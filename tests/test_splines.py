"""Interpolating splines, quadratic smoothing, and the pair-range projector."""

import numpy as np
import pytest

from relcalc import (
    ConsistencyError,
    SmoothingProblem,
    SplineProblem,
    Tolerance,
    compose,
    graph_of_matrix,
    invert,
    null_space,
    orthonormalize,
    projection_m,
    smooth_solve,
    spline_solve,
    subspace_equals,
)
from relcalc import oracles, splines

from genutil import cmat, cvec, random_unitary


def random_spline_problem(rng, max_dim=6):
    n = int(rng.integers(2, max_dim + 1))
    e = int(rng.integers(1, max_dim + 1))
    k = int(rng.integers(1, n + 1))  # V surjective needs k <= n
    T = cmat(rng, e, n)
    if rng.random() < 0.3:
        T = T @ np.diag([0.0] * (n // 2) + [1.0] * (n - n // 2))  # rank-deficient T
    V = cmat(rng, k, n)
    b = cvec(rng, k)
    return SplineProblem(T, V, b)


def well_conditioned(rng, m, n):
    """m x n with singular values in [0.5, 2] between random unitary factors."""
    r = min(m, n)
    return (random_unitary(rng, m)[:, :r] * rng.uniform(0.5, 2.0, r)) @ random_unitary(rng, n)[:, :r].conj().T


class TestSplineSolve:
    def test_minimal_norm_interpolant(self):
        sol = spline_solve(SplineProblem(np.eye(2), np.array([[1.0, 0.0]]), np.array([1.0])))
        assert sol.exists
        assert np.allclose(sol.spline_set.point, [1.0, 0.0])
        assert sol.spline_set.direction.dim == 0
        assert abs(sol.min_value - 1.0) < 1e-12

    def test_objective_blind_to_constraint_kernel(self):
        # T = V: the objective is constant on the feasible set, so every
        # solution of V x = b is a spline
        v = np.array([[1.0, 1.0]])
        sol = spline_solve(SplineProblem(v, v, np.array([2.0])))
        feasible_dir = null_space(v)
        assert subspace_equals(sol.spline_set.direction, feasible_dir)
        assert np.allclose(v @ sol.spline_set.point, [2.0])

    def test_rejects_non_surjective_constraint(self):
        with pytest.raises(ValueError):
            SplineProblem(np.eye(2), np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([1.0, 2.0]))

    def test_surjectivity_uses_the_library_cutoff(self):
        # a singular value of 1e-11 is under the 1e-10 rank cutoff, though
        # numpy's own matrix_rank keeps it
        with pytest.raises(ValueError, match="surjective"):
            SplineProblem(np.eye(2), np.diag([1.0, 1e-11]), np.array([1.0, 1.0]))

    def test_solve_ranks_v_at_the_callers_tolerance(self):
        # the problem keeps V's factors, but spline_solve cuts them at its
        # own tolerance: a singular value of 1e-7 survives Tolerance() and
        # falls under Tolerance(1e-6)'s cutoff, which drops the second
        # constraint from the feasible point
        p = SplineProblem(np.eye(3), np.diag([1.0, 1e-7, 0.0])[:2], np.array([1.0, 1.0]))
        sol = spline_solve(p)
        assert np.allclose(p.V @ sol.spline_set.point, p.b)
        with pytest.raises(ConsistencyError, match="misses the interpolation constraint"):
            spline_solve(p, Tolerance(1e-6))

    def test_problem_owns_read_only_copies(self):
        # the problem caches the SVD of V, so an edit of the caller's
        # arrays after construction must reach neither it nor the answer
        rng = np.random.default_rng(17)
        T, V, b = cmat(rng, 3, 4), cmat(rng, 2, 4), cvec(rng, 2)
        p = SplineProblem(T, V, b)
        before = spline_solve(p)
        for mine, kept in ((T, p.T), (V, p.V), (b, p.b)):
            assert mine.flags.writeable and not kept.flags.writeable
            assert not np.shares_memory(mine, kept)
            with pytest.raises(ValueError, match="read-only"):
                kept[...] = 0
        V[1, 1], T[0, 0], b[0] = 0.0, 5.0, 7.0
        after = spline_solve(p)
        assert np.array_equal(after.spline_set.point, before.spline_set.point)
        assert np.array_equal(after.spline_set.direction.basis, before.spline_set.direction.basis)
        assert after.min_value == before.min_value

    @pytest.mark.parametrize("where", ["T", "V", "b"])
    def test_rejects_non_finite(self, where):
        data = {"T": np.eye(2), "V": np.array([[1.0, 0.0]]), "b": np.array([1.0])}
        data[where] = np.where(data[where] == 1.0, np.nan, data[where])
        with pytest.raises(ValueError, match="finite"):
            SplineProblem(data["T"], data["V"], data["b"])

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_constrained_least_squares_oracle(self, seed):
        rng = np.random.default_rng(6000 + seed)
        p = random_spline_problem(rng)
        sol = spline_solve(p)
        oracle_min, oracle_point, oracle_flat = oracles.spline_kkt(p.T, p.V, p.b)
        assert abs(sol.min_value - oracle_min) < 1e-8
        assert sol.spline_set.contains(oracle_point)
        assert subspace_equals(
            sol.spline_set.direction,
            orthonormalize(oracle_flat, ambient_dim=p.T.shape[1]),
        )

    def test_bulk_oracle_agreement(self):
        # value and argmin-direction agreement across a wide randomized sweep
        rng = np.random.default_rng(6500)
        failures = 0
        for _ in range(1000):
            p = random_spline_problem(rng)
            sol = spline_solve(p)
            oracle_min, oracle_point, oracle_flat = oracles.spline_kkt(p.T, p.V, p.b)
            ok = abs(sol.min_value - oracle_min) < 1e-8
            ok &= sol.spline_set.contains(oracle_point)
            ok &= subspace_equals(
                sol.spline_set.direction,
                orthonormalize(oracle_flat, ambient_dim=p.T.shape[1]),
            )
            failures += not ok
        assert failures == 0

    def test_oracle_stage_takes_one_svd(self, svd_calls):
        # the oracle keeps numpy's least squares for the feasible point and
        # its own null basis Z of V; the stage T Z reads its point and its
        # flat directions from one SVD, so the two share one cut
        rng = np.random.default_rng(6600)
        n, k = 64, 32
        T, V, b = cmat(rng, n, n), cmat(rng, k, n), cvec(rng, k)
        del svd_calls[:]
        oracles.spline_kkt(T, V, b)
        assert svd_calls == ["lstsq", "svd", "svd"]

    def test_ill_conditioned_v_interpolates_up_to_rounding(self):
        # V's smallest singular value scaled by 10^U(-9, 0): the feasible
        # point grows to about ||b|| / sigma_min(V), and V x rounds at
        # eps ||V|| ||x||, which the interpolation check once ignored: 98 of
        # these 499 accepted problems raised "misses the interpolation
        # constraint".  The answers are as accurate as numpy's: the worst
        # residual is 18.0 eps ||V|| ||x|| (lstsq's reaches 18.2) and the
        # worst minimum gap to the oracle 14.1 eps kappa(V) ||b|| max(1, min)
        rng = np.random.default_rng(4321)
        eps = np.finfo(float).eps
        accepted, residual, gap = 0, 0.0, 0.0
        for _ in range(500):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n + 1))
            T, V, b = cmat(rng, n, n), cmat(rng, k, n), cvec(rng, k)
            u, sigma, vh = np.linalg.svd(V, full_matrices=False)
            sigma[-1] *= 10.0 ** rng.uniform(-9, 0)
            V = (u * sigma) @ vh
            try:
                p = SplineProblem(T, V, b)
            except ValueError:
                continue
            accepted += 1
            sol = spline_solve(p)
            x = sol.spline_set.point
            residual = max(residual, np.linalg.norm(V @ x - b) / (eps * sigma[0] * np.linalg.norm(x)))
            oracle_min, _, _ = oracles.spline_kkt(T, V, b)
            scale = eps * sigma[0] / sigma[-1] * np.linalg.norm(b) * max(1.0, oracle_min)
            gap = max(gap, abs(sol.min_value - oracle_min) / scale)
        assert accepted == 499
        assert residual < 20 and gap < 16

    def test_an_empty_constraint_leaves_the_minimum_of_t(self):
        # k = 0: V has no rows, so its SVD has no singular values and every
        # x is feasible; the spline is the minimum of ||T x||, at zero
        sol = spline_solve(SplineProblem(np.eye(2), np.zeros((0, 2)), np.zeros(0)))
        assert sol.spline_set.direction.dim == 0
        assert np.array_equal(sol.spline_set.point, np.zeros(2)) and sol.min_value == 0.0

    @pytest.mark.parametrize("factor", [1e-12, 1.0, 1e3, 1e6, 1e9, 1e12])
    def test_large_b_solves(self, factor):
        # the feasible-point independence check compared the two spline
        # points at an absolute 1e-10 whatever their size: scaling b by 1e6,
        # 1e9 and 1e12 raised "spline set depends on the feasible point
        # chosen" on 250, 297 and 297 of these 300 problems
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(300):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n))
            T, V = well_conditioned(rng, n, n), well_conditioned(rng, k, n)
            b = factor * cvec(rng, k)
            point = spline_solve(SplineProblem(T, V, b)).spline_set.point
            _, oracle_point, _ = oracles.spline_kkt(T, V, b)
            worst = max(worst, np.linalg.norm(point - oracle_point) / np.linalg.norm(oracle_point))
        assert worst < 1e-12


class TestSmoothSolve:
    def test_balanced_tradeoff(self):
        base = SplineProblem(np.eye(2), np.array([[1.0, 0.0]]), np.array([1.0]))
        sol = smooth_solve(SmoothingProblem(base, 1.0))
        assert np.allclose(sol.argmin_set.point, [0.5, 0.0])
        assert abs(sol.min_value - np.sqrt(2) / 2) < 1e-12

    def test_zero_target_costs_nothing(self):
        base = SplineProblem(np.eye(2), np.array([[1.0, 0.0]]), np.array([0.0]))
        sol = smooth_solve(SmoothingProblem(base, 3.0))
        assert sol.argmin_set.contains(np.zeros(2))
        assert sol.min_value < 1e-12

    def test_penalty_sweep_approaches_constrained_minimum(self):
        rng = np.random.default_rng(20)
        p = random_spline_problem(rng)
        constrained = spline_solve(p).min_value
        values = [smooth_solve(SmoothingProblem(p, rho)).min_value for rho in (1.0, 10.0, 100.0)]
        assert values[0] <= values[1] + 1e-12 <= values[2] + 2e-12
        assert all(v <= constrained + 1e-9 for v in values)
        gaps = [abs(constrained - v) for v in values]
        assert gaps[2] <= gaps[0] + 1e-12

    def test_rho_must_be_positive(self):
        base = SplineProblem(np.eye(2), np.array([[1.0, 0.0]]), np.array([1.0]))
        with pytest.raises(ValueError):
            SmoothingProblem(base, 0.0)

    @pytest.mark.parametrize("rho", [np.inf, np.nan])
    def test_rho_must_be_finite(self, rho):
        # rho = inf passed, and smooth_solve then failed in numpy's SVD
        base = SplineProblem(np.eye(2), np.array([[1.0, 0.0]]), np.array([1.0]))
        with pytest.raises(ValueError, match="rho must be positive and finite"):
            SmoothingProblem(base, rho)

    @pytest.mark.parametrize("rho", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_stationarity_oracle(self, seed, rho):
        rng = np.random.default_rng(6100 + seed)
        p = random_spline_problem(rng)
        sol = smooth_solve(SmoothingProblem(p, rho))
        x = oracles.smoothing_stacked_lstsq(p.T, p.V, p.b, rho)
        value = np.sqrt(
            np.linalg.norm(p.T @ x) ** 2 + rho * np.linalg.norm(p.V @ x - p.b) ** 2
        )
        assert abs(sol.min_value - value) < 1e-8
        assert sol.argmin_set.contains(x)
        # the reported minimum is exactly the objective of the reported point
        x_star = sol.argmin_set.point
        direct = np.sqrt(
            np.linalg.norm(p.T @ x_star) ** 2 + rho * np.linalg.norm(p.V @ x_star - p.b) ** 2
        )
        assert abs(direct - sol.min_value) < 1e-10


    def test_gaussian_family_raises_nothing(self):
        # T 3 x 7, V 4 x 7, rho = 0.1: the pinv cross-check at the absolute
        # tolerance raised on 129 of these 3000 (smallest singular value of
        # the stacked map down to 3.5e-8), and a pinv oracle of
        # T*T + rho V*V, which squares that condition number, missed the
        # minimum by up to 0.118
        rng = np.random.default_rng(601)
        for _ in range(3000):
            T, V = rng.standard_normal((3, 7)), rng.standard_normal((4, 7))
            b = rng.standard_normal(4)
            sol = smooth_solve(SmoothingProblem(SplineProblem(T, V, b), 0.1))
            x = oracles.smoothing_stacked_lstsq(T, V, b, 0.1)
            value = np.sqrt(np.linalg.norm(T @ x) ** 2 + 0.1 * np.linalg.norm(V @ x - b) ** 2)
            assert abs(sol.min_value - value) <= 1e-8

    def test_mutated_minimizer_is_not_stationary(self):
        rng = np.random.default_rng(602)
        T, V, b = rng.standard_normal((3, 7)), rng.standard_normal((4, 7)), rng.standard_normal(4)
        stacked = np.vstack([T, V])
        target = np.concatenate([np.zeros(3), b])
        u, sigma, vh = np.linalg.svd(stacked, full_matrices=True)
        x_star = np.linalg.pinv(stacked) @ target
        pairs = u[:, : sigma.size]
        sol = smooth_solve(SmoothingProblem(SplineProblem(T, V, b), 1.0))
        check = splines._smoothing_minimum
        assert abs(check(stacked, target, x_star, pairs, sigma) - sol.min_value) < 1e-12
        # the stacked map is 7 x 7 and invertible, so the argmin set is {x*}
        shifted = x_star + 1e-6 * np.linalg.norm(x_star) * vh[0].conj()
        with pytest.raises(ConsistencyError, match="stationary"):
            check(stacked, target, shifted, pairs, sigma)


class TestProjectionBlocks:
    def test_rank_follows_the_tolerance(self):
        # the singular value 1e-7 is cut at abs_eps 1e-6 and kept by default
        T, V = np.diag([1.0, 1e-7]), np.zeros((1, 2))
        assert np.allclose(projection_m(T, V).tt, np.eye(2))
        assert np.allclose(projection_m(T, V, Tolerance(abs_eps=1e-6)).tt, np.diag([1.0, 0.0]))

    def test_rank_is_read_on_the_stack_own_scale(self):
        # the stack was cut at the absolute abs_eps: at c = 1e-11 and 1e-13
        # every singular value fell under it and the projector was 0
        rng = np.random.default_rng(5)
        T, V = cmat(rng, 3, 4), rng.standard_normal((2, 4))
        unit = projection_m(T, V)
        assert np.trace(unit.matrix()).real == pytest.approx(4.0)
        for c in (1e-11, 1e-13, 1e8):
            scaled = projection_m(c * T, c * V).matrix()
            assert np.linalg.norm(scaled - unit.matrix()) <= 1e-12 * np.linalg.norm(unit.matrix())

    def test_trivial_second_map(self):
        blocks = projection_m(np.eye(2), np.zeros((1, 2)))
        assert np.allclose(blocks.tt, np.eye(2))
        assert np.allclose(blocks.tv, 0) and np.allclose(blocks.vt, 0) and np.allclose(blocks.vv, 0)

    def test_explicit_two_by_two(self):
        blocks = projection_m(np.eye(2), np.array([[1.0, 0.0]]))
        assert np.allclose(blocks.tt, np.diag([0.5, 1.0]))
        assert np.allclose(blocks.vv, [[0.5]])
        full = blocks.matrix()
        assert np.linalg.norm(full @ full - full) < 1e-9
        assert np.linalg.norm(full - full.conj().T) < 1e-9

    @pytest.mark.parametrize("seed", range(20))
    def test_projector_axioms_and_range(self, seed):
        rng = np.random.default_rng(6200 + seed)
        p = random_spline_problem(rng)
        full = projection_m(p.T, p.V).matrix()
        assert np.linalg.norm(full @ full - full) < 1e-9
        assert np.linalg.norm(full - full.conj().T) < 1e-9
        stacked = np.vstack([p.T, p.V])
        got = orthonormalize(full, ambient_dim=full.shape[0])
        assert subspace_equals(got, orthonormalize(stacked))

    @pytest.mark.parametrize("seed", range(15))
    def test_pair_range_as_relation_quotient(self, seed):
        # the range pairs {(Tx, Vx)} coincide with the graph of V after T-inverse
        rng = np.random.default_rng(6300 + seed)
        p = random_spline_problem(rng)
        quotient = compose(graph_of_matrix(p.V), invert(graph_of_matrix(p.T)))
        stacked = orthonormalize(np.vstack([p.T, p.V]))
        assert subspace_equals(quotient.graph, stacked)

    @pytest.mark.parametrize("seed", range(10))
    def test_reproduces_unit_penalty_minimum(self, seed):
        rng = np.random.default_rng(6400 + seed)
        p = random_spline_problem(rng)
        full = projection_m(p.T, p.V).matrix()
        paired = np.concatenate([np.zeros(p.T.shape[0], dtype=complex), p.b])
        residual = float(np.linalg.norm(paired - full @ paired))
        sol = smooth_solve(SmoothingProblem(p, 1.0))
        assert abs(residual - sol.min_value) < 1e-8


@pytest.fixture(scope="module")
def units_family():
    """``default_rng(31)``'s first 150 complex Gaussian problems, n in
    2..8, T n x n, V k x n with k in 1..n-1, b of length k, each with its
    raw-numpy references at unit scale: the spline's minimum and point, and
    the smoothing argmin and minimum at rho = 0.5."""
    rng = np.random.default_rng(31)
    family = []
    for _ in range(150):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n))
        T, V, b = cmat(rng, n, n), cmat(rng, k, n), cvec(rng, k)
        spline_min, spline_point, _ = oracles.spline_kkt(T, V, b)
        x = oracles.smoothing_stacked_lstsq(T, V, b, 0.5)
        smooth_min = np.sqrt(np.linalg.norm(T @ x) ** 2 + 0.5 * np.linalg.norm(V @ x - b) ** 2)
        family.append((T, V, b, spline_min, spline_point, x, smooth_min))
    return family


class TestSplineUnits:
    """Scaling T scales the spline minimum and keeps the spline, scaling V
    and b together keeps both, and scaling T, V and b together keeps the
    smoothing argmin and scales its minimum: against raw-numpy references
    at unit scale, on 150 problems."""

    @staticmethod
    def _assert_close(got, want):
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e6, 1e12])
    def test_spline_in_units_of_t(self, scale, units_family):
        # the corner K* T*T K is read on T / ||T||: cut at the absolute
        # abs_eps on T itself, T x 1e-12 gave a wrong answer on all 150 and
        # T x 1e-6 raised on all 150
        for T, V, b, oracle_min, oracle_point, _, _ in units_family:
            sol = spline_solve(SplineProblem(scale * T, V, b))
            assert sol.spline_set.direction.dim == 0
            self._assert_close(sol.spline_set.point, oracle_point)
            self._assert_close(sol.min_value, scale * oracle_min)

    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6, 1e12])
    def test_spline_in_units_of_v_and_b(self, scale, units_family):
        # V's rank is read on sigma / sigma_max: at the absolute cutoff,
        # SplineProblem refused (V, b) x 1e-12 as not surjective on all 150
        for T, V, b, oracle_min, oracle_point, _, _ in units_family:
            sol = spline_solve(SplineProblem(T, scale * V, scale * b))
            assert sol.spline_set.direction.dim == 0
            self._assert_close(sol.spline_set.point, oracle_point)
            self._assert_close(sol.min_value, oracle_min)

    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6, 1e12])
    def test_smoothing_in_units_of_the_data(self, scale, units_family):
        # the stack's rank is read on its own scale as well: with V's rank
        # relative and the stack's absolute, (T, V, b) x 1e-12 gave a wrong
        # answer on all 150 (with both absolute, SplineProblem refused them)
        for T, V, b, _, _, x, value in units_family:
            sol = smooth_solve(SmoothingProblem(SplineProblem(scale * T, scale * V, scale * b), 0.5))
            assert sol.argmin_set.direction.dim == 0
            self._assert_close(sol.argmin_set.point, x)
            self._assert_close(sol.min_value, scale * value)
