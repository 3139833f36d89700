"""Weighted least-squares inclusions: solve, the normal equation, two-weight refinement."""

import numpy as np
import pytest

from relcalc import (
    ConsistencyError,
    Coset,
    DimensionMismatchError,
    LinearRelation,
    LssProblem,
    NoSolutionError,
    SmoothingProblem,
    SplineProblem,
    Tolerance,
    Weight,
    adjoint,
    apply,
    apply_to_coset,
    check_normal,
    complementability,
    compose,
    from_graph_basis,
    full_space,
    graph_of_matrix,
    identity_minus,
    image,
    invert,
    krein_classify,
    make_pws,
    null_space,
    orthonormalize,
    parts,
    product_of_subspaces,
    psd_sqrt,
    shorted,
    smooth_solve,
    solve,
    spline_solve,
    subspace_complement,
    subspace_equals,
    subspace_intersect,
    subspace_sum,
    w1w2_solve,
    zero_space,
)
from relcalc import oracles

from genutil import (
    cmat,
    coset_gap,
    cvec,
    degenerate_subspace,
    loosely_orthonormal_relation,
    projector_dist,
    psd_with_tiny_eigenvalues,
    random_psd,
    random_relation,
    random_subspace,
    random_symmetry,
    relation_near_output_axis,
    relation_with_ker_and_mul,
    rotated_borderline_problem,
    weight_and_subspace,
    WIDE_SPECTRA,
)

E2_LINE = orthonormalize([np.array([0.0, 1.0])])


def borderline_neutral_weight():
    """Accepted-psd weight whose top-left block vanishes: eigenvalues are
    {~1, -1e-12}, inside the psd acceptance band, and span(e1) is W-neutral."""
    return np.array([[0.0, 1e-6], [1e-6, 1.0]])


def classic_problem():
    return LssProblem(
        graph_of_matrix(np.diag([1.0, 0.0])),
        Weight(np.eye(2), "psd"),
        np.array([1.0, 1.0]),
    )


class TestNonFiniteInput:
    """Non-finite data is bad input (ValueError), never a mathematical answer."""

    def test_nan_in_b_is_not_no_solution(self):
        # solve used to return exists=False with min_value nan
        with pytest.raises(ValueError, match="finite"):
            solve(
                LssProblem(
                    graph_of_matrix(np.diag([1.0, 0.0])),
                    Weight(np.eye(2), "psd"),
                    np.array([np.nan, 1.0]),
                )
            )

    def test_inf_in_spline_target_is_not_a_consistency_error(self):
        # spline_solve used to raise ConsistencyError ("feasible point
        # escaped the projection domain")
        with pytest.raises(ValueError, match="finite"):
            spline_solve(SplineProblem(np.eye(2), np.array([[1.0, 0.0]]), np.array([np.inf])))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_matrix_relation_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            graph_of_matrix(np.array([[1.0, bad], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "call",
        [
            # apply returned the empty coset, check_normal raised "candidate
            # lies outside dom A", apply_to_coset returned the empty coset
            pytest.param(lambda x: apply(graph_of_matrix(np.eye(2)), x), id="apply"),
            pytest.param(lambda x: check_normal(classic_problem(), x), id="check_normal"),
            pytest.param(
                lambda x: apply_to_coset(graph_of_matrix(np.eye(2)), Coset.of(x, E2_LINE)),
                id="apply_to_coset",
            ),
            pytest.param(
                lambda x: apply_to_coset(graph_of_matrix(np.eye(2)), Coset.of(x, zero_space(2))),
                id="apply_to_point",
            ),
            pytest.param(lambda x: Coset.of(np.zeros(2), E2_LINE).contains(x), id="Coset.contains"),
            pytest.param(lambda x: E2_LINE.contains_vector(x), id="Subspace.contains_vector"),
        ],
    )
    def test_non_finite_vector_is_refused(self, call, bad):
        # under the error::RuntimeWarning filter: the refusal comes before
        # any arithmetic on the vector
        with pytest.raises(ValueError, match="vector must be finite"):
            call(np.array([bad, 0.0]))


class TestProblemData:
    def test_problem_owns_a_read_only_copy_of_b(self):
        # the caller's complex b used to be frozen in place: their later
        # b[0] = 5 raised "assignment destination is read-only"
        b = np.array([1.0, 1.0], dtype=complex)
        p = LssProblem(graph_of_matrix(np.diag([1.0, 0.0])), Weight(np.eye(2), "psd"), b)
        before = solve(p)
        assert b.flags.writeable and not p.b.flags.writeable
        assert not np.shares_memory(b, p.b)
        b[0] = 5.0
        after = solve(p)
        assert np.array_equal(p.b, [1.0, 1.0])
        assert after.min_value == before.min_value
        assert np.array_equal(after.witness, before.witness)

    @pytest.mark.parametrize("which", ["LssProblem", "w1w2_solve W2"])
    def test_a_weight_of_the_wrong_size_is_a_dimension_mismatch(self, which):
        # the type weighted.py raises for a subspace of the wrong size; the
        # weight's size check raised a plain ValueError
        a, right, wrong = graph_of_matrix(np.eye(3)), Weight(np.eye(3), "psd"), Weight(np.eye(2), "psd")
        with pytest.raises(DimensionMismatchError, match=r"^weight size 2 != relation dimension 3$"):
            if which == "LssProblem":
                LssProblem(a, wrong, np.ones(3))
            else:
                w1w2_solve(a, right, wrong, np.ones(3))


class TestSolveExamples:
    def test_classical_projection_onto_axis(self):
        sol = solve(classic_problem())
        assert sol.exists
        assert abs(sol.min_value - 1.0) < 1e-12
        assert np.allclose(sol.witness, [1.0, 0.0])
        assert subspace_equals(sol.solution_set.direction, E2_LINE)
        assert sol.solution_set.contains(np.array([1.0, 7.0]))

    def test_everything_relation_solves_exactly(self):
        everything = product_of_subspaces(full_space(2), full_space(2))
        sol = solve(LssProblem(everything, Weight(np.eye(2), "psd"), np.array([2.0, 3.0])))
        assert sol.exists and sol.min_value < 1e-12
        assert sol.solution_set.direction.dim == 2

    def test_degenerate_weight_widens_solution_set(self):
        sol = solve(
            LssProblem(
                graph_of_matrix(np.diag([1.0, 0.0])),
                Weight(np.diag([0.0, 1.0]), "psd"),
                np.array([1.0, 1.0]),
            )
        )
        assert sol.exists and abs(sol.min_value - 1.0) < 1e-12
        assert sol.solution_set.direction.dim == 2

    def test_explicit_tolerance_reaches_the_weight_root(self):
        # at abs_eps = 1e-6 the weight's 1e-9 eigenvalues are zero, so every
        # output in e1 + span(e2) is a minimizer; the root of W must be cut
        # at the same tolerance, or its 3e-5 entries make the minimum vary
        a = graph_of_matrix(np.diag([1.0, 1.0, 0.0]))
        w = Weight(np.diag([1.0, 1e-9, 1e-9]), "psd")
        sol = solve(LssProblem(a, w, np.ones(3)), Tolerance(abs_eps=1e-6))
        assert sol.exists and sol.min_value == 0.0
        assert sol.minimizing_outputs.direction.dim == 1

    def test_unsolvable_is_reported_not_raised(self):
        # A truly psd weight is always complementable in finite dimensions, so
        # the no-solution branch only opens through a borderline weight: this
        # one pairs the range against its complement and is psd up to 1e-12.
        a = graph_of_matrix(np.diag([1.0, 0.0]))
        w = Weight(borderline_neutral_weight(), "psd")
        assert w.borderline
        sol = solve(LssProblem(a, w, np.array([0.0, 1.0])))
        assert not sol.exists and sol.witness is None
        assert sol.solution_set.is_empty and np.isnan(sol.min_value)


class TestSolveInvariants:
    @pytest.mark.parametrize("seed", range(25))
    def test_existence_minimum_and_structure(self, seed):
        rng = np.random.default_rng(5000 + seed)
        n = int(rng.integers(2, 7))
        a = random_relation(rng, n, n)
        w = Weight(random_psd(rng, n), "psd")
        b = cvec(rng, n)
        prob = LssProblem(a, w, b)
        sol = solve(prob)
        ran_a = parts(a).ran
        # existence matches direct membership in ran A + companion
        dom = parts(make_pws(w, ran_a)).dom
        assert sol.exists == dom.contains_vector(b)
        if not sol.exists:
            return
        oracle_min = oracles.weighted_min_over_span(w.matrix, ran_a.basis, b)
        assert abs(sol.min_value - oracle_min) < 1e-8
        # attainment: members of the output coset meet the minimum, outsiders miss it
        w_half = psd_sqrt(w.matrix)
        outputs = sol.minimizing_outputs
        for _ in range(3):
            member = outputs.point
            if outputs.direction.dim:
                member = member + outputs.direction.basis @ cvec(rng, outputs.direction.dim)
            assert abs(np.linalg.norm(w_half @ (member - b)) - sol.min_value) < 1e-8
        lively = [
            s_vec
            for s_vec in ran_a.basis.T
            if np.linalg.norm(w_half @ s_vec) > 1e-3 and not outputs.contains(outputs.point + s_vec)
        ]
        for s_vec in lively[:2]:
            assert np.linalg.norm(w_half @ (outputs.point + s_vec - b)) > sol.min_value + 1e-10
        # solution-set structure: witness + inverse image of ker W
        assert sol.solution_set.contains(sol.witness)
        assert check_normal(prob, sol.witness)

    @pytest.mark.parametrize("seed", range(15))
    def test_solvable_for_all_b_iff_complementable(self, seed):
        rng = np.random.default_rng(5100 + seed)
        n = int(rng.integers(2, 6))
        a = random_relation(rng, n, n)
        w = Weight(random_psd(rng, n), "psd")
        report = complementability(w, parts(a).ran)
        solvable_everywhere = all(
            solve(LssProblem(a, w, cvec(rng, n))).exists for _ in range(5)
        )
        if report.is_complementable:
            assert solvable_everywhere
        else:
            outside = subspace_complement(report.domain)
            assert not solve(LssProblem(a, w, outside.basis[:, 0])).exists


def _check_normal_by_relations(p, x0):
    """The normal equation through the calculus: zero as a value of
    A* W (A x0 - b), by membership and by the set form
    A* W (A x0 - b) = A* W (mul A), which must agree."""
    aw = compose(adjoint(p.A), graph_of_matrix(p.W.matrix))
    pushed = apply_to_coset(aw, apply(p.A, x0).translate(-p.b))
    by_membership = pushed.contains(np.zeros(p.A.dim_in))
    rhs = image(aw, parts(p.A).mul)
    by_set_form = (
        not pushed.is_empty
        and subspace_equals(pushed.direction, rhs)
        and rhs.contains_vector(pushed.point)
    )
    assert by_membership == by_set_form
    return by_membership


def _criterion_7_instances(rng, count):
    for _ in range(count):
        n = int(rng.integers(2, 9))
        a = random_relation(rng, n, n)
        w = Weight(random_psd(rng, n), "psd")
        yield LssProblem(a, w, cvec(rng, n))


def _numpy_rank(sigma: np.ndarray) -> int:
    """How many singular values pass a 1e-8 cut relative to the largest."""
    return int(np.count_nonzero(sigma > 1e-8 * sigma[0])) if sigma.size else 0


def _wrong_solution_dims(route):
    """How many solution sets ``route(a, sol, tol)`` gives at the wrong
    dimension, and of how many solvable draws: 600 random relations with
    weights from psd_with_tiny_eigenvalues (``default_rng(4242)``) solved at
    ``Tolerance(0, 1e-9)``, against rank(F null((I - P_D) H)) in raw numpy,
    for F over H the graph blocks and D the minimizing output directions
    that solve found."""
    tol = Tolerance(0, 1e-9)
    rng = np.random.default_rng(4242)
    wrong = solvable = 0
    for _ in range(600):
        n = int(rng.integers(2, 9))
        a = random_relation(rng, n, n)
        w = Weight(psd_with_tiny_eigenvalues(rng, n), "psd")
        b = cvec(rng, n)
        try:
            sol = solve(LssProblem(a, w, b), tol)
        except ConsistencyError:
            continue  # raised, not silent: ROADMAP item 13
        if not sol.exists:
            continue
        solvable += 1
        d = sol.minimizing_outputs.direction.basis
        f, h = a.in_block, a.out_block
        _, sigma, vh = np.linalg.svd(h - d @ (d.conj().T @ h))
        null = vh[_numpy_rank(sigma) :].conj().T
        expected = _numpy_rank(np.linalg.svd(f @ null, compute_uv=False))
        wrong += route(a, sol, tol).direction.dim != expected
    return wrong, solvable


class TestSolutionDirections:
    def test_dimension_is_what_the_parts_predict(self):
        # for X in ran A, A^-1(X) has dimension dim X + dim ker A -
        # dim(X cap mul A); mapping the output directions through the kept
        # triplets of A's output block scaled their rounding by up to
        # 1 / sigma_min, a spurious extra direction on 21 of these 3000
        rng = np.random.default_rng(14001)
        for _ in range(3000):
            n = int(rng.integers(2, 9))
            a = relation_with_ker_and_mul(rng, n, n)
            wh = cmat(rng, int(rng.integers(0, n + 1)), n)
            sol = solve(LssProblem(a, Weight(wh.conj().T @ wh, "psd"), cvec(rng, n)))
            p, outputs = parts(a), sol.minimizing_outputs.direction
            expected = outputs.dim + p.ker.dim - subspace_intersect(outputs, p.mul).dim
            assert sol.solution_set.direction.dim == expected

    def test_relative_tolerance_keeps_every_solution_direction(self):
        # A^-1 through apply_to_coset left out output directions as
        # infeasible: its cut of their off-dom part, a matrix of rounding,
        # kept "rank" at this purely relative tolerance, and the solution
        # set was too small on 37 of these 422 solvable draws, none raised
        wrong, solvable = _wrong_solution_dims(lambda a, sol, tol: sol.solution_set)
        assert (wrong, solvable) == (0, 422)

    @pytest.mark.xfail(
        strict=True,
        reason="apply_to_coset's cut of the off-dom part of a coset's directions has no "
        "rounding floor at a purely relative tolerance (ROADMAP item 13)",
    )
    def test_relative_tolerance_keeps_every_direction_through_apply_to_coset(self):
        # the calculus route on the same family: too small on 37 of 422
        wrong, _ = _wrong_solution_dims(
            lambda a, sol, tol: apply_to_coset(invert(a), sol.minimizing_outputs, tol)
        )
        assert wrong == 0

    @pytest.mark.xfail(
        strict=True,
        reason="A^-1 scales the rounding of the output directions by about 1 / tilt, "
        "above the cutoff at tilt 1e-7: a spurious solution direction (ROADMAP item 5)",
    )
    def test_no_spurious_direction_at_a_small_singular_value(self):
        # mul A = D is mapped to ker A; on both routes the rounding of D along
        # the output direction of singular value ~tilt comes back as a
        # direction of size eps / tilt, over the 1e-10 cutoff: 161 of these
        # 200 at tilt 1e-7 (the route through apply_to_coset gave 162)
        rng = np.random.default_rng(12300)
        wrong = 0
        for _ in range(200):
            n = int(rng.integers(2, 9))
            a = relation_with_ker_and_mul(rng, n, n, tilt=1e-7)
            p = parts(a)
            proj = np.eye(n) - p.mul.projector()
            w = Weight(proj @ random_psd(rng, n, force_singular=False) @ proj, "psd")
            sol = solve(LssProblem(a, w, cvec(rng, n)))
            outputs = sol.minimizing_outputs.direction
            wrong += sol.solution_set.direction.dim != outputs.dim + p.ker.dim - p.mul.dim
        assert wrong == 0

    @pytest.mark.parametrize("seed,top", WIDE_SPECTRA)
    def test_zero_weight_keeps_every_input_of_a_wide_operator(self, seed, top):
        # with W = 0 every output minimizes, so an invertible A has the whole
        # space as its solution set, also with singular values from 1 / top
        # to top (1e6 and 1e8), where A^-1 shrinks some directions and
        # stretches others.  A floor of 10 max(shape) eps s_max / s_min on
        # the final direction cut of A^-1 (ROADMAP item 17) failed all ten
        # at 1e8
        rng = np.random.default_rng(12200 + seed)
        n = int(rng.integers(2, 7))
        a = cmat(rng, n, n)
        u, _, vh = np.linalg.svd(a)
        a = (u * np.geomspace(1 / top, top, n)) @ vh
        sol = solve(LssProblem(graph_of_matrix(a), Weight(np.zeros((n, n)), "psd"), cvec(rng, n)))
        assert sol.solution_set.direction.dim == n

    @pytest.mark.xfail(
        strict=True,
        reason="A^-1's final cut weighs the F parts of unit graph vectors at the absolute "
        "cutoff, and the sigma_max direction's is 1 / hypot(1, sigma_max) <= 1e-10: the "
        "units of M decide the solution set (ROADMAP items 5 and 13)",
    )
    def test_zero_weight_keeps_every_input_past_a_1e10_singular_value(self):
        # parts reads dom = ran = C^n and ker = mul = 0 at singular values
        # from 1 to 1e10, yet with W = 0 the solution set, and
        # apply_to_coset(invert(A), p + C^n), has dimension n - 1 on 50 of
        # these 50, with no error; at sigma_max <= 3e9 on none
        wrong = 0
        for i in range(50):
            rng = np.random.default_rng(900 + i)
            n = int(rng.integers(2, 7))
            u, _, vh = np.linalg.svd(cmat(rng, n, n))
            a = graph_of_matrix((u * np.geomspace(1, 1e10, n)) @ vh)
            p = parts(a)
            assert p.dom.dim == p.ran.dim == n and p.ker.dim == p.mul.dim == 0
            sol = solve(LssProblem(a, Weight(np.zeros((n, n)), "psd"), cvec(rng, n)))
            wrong += sol.solution_set.direction.dim != n
        assert wrong == 0

    def test_are_the_inverse_image_of_ker_w(self):
        # solve checks its output directions against ran A cap ker W, before
        # A^-1; the inverse image of ker W must still be the solution
        # directions
        rng = np.random.default_rng(107)
        worst = 0.0
        for prob in _criterion_7_instances(rng, 300):
            directions = solve(prob).solution_set.direction
            structural = image(invert(prob.A), null_space(prob.W.matrix))
            assert directions.dim == structural.dim
            worst = max(worst, projector_dist(directions, structural))
        assert worst <= 1e-9

    @pytest.mark.parametrize("small", [1e-6, 1e-8])
    def test_ill_conditioned_relations_do_not_raise(self, small):
        # A = n x r times r x n with its two smallest nonzero singular values
        # at ``small``; comparing the two estimates of ran A cap ker W after
        # A^-1 scaled their gap by up to 1 / small, and raised on 15 (1e-6)
        # and 17 (1e-8) of these
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            r = int(rng.integers(1, n + 1))
            u, sigma, vh = np.linalg.svd(cmat(rng, n, r) @ cmat(rng, r, n))
            sigma[max(r - 2, 0) : r] = small
            sigma[r:] = 0.0
            wh = cmat(rng, int(rng.integers(1, n + 1)), n)
            prob = LssProblem(
                graph_of_matrix((u * sigma) @ vh), Weight(wh.conj().T @ wh, "psd"), cvec(rng, n)
            )
            sol = solve(prob)
            oracle_min = oracles.weighted_min_over_span(prob.W.matrix, parts(prob.A).ran.basis, prob.b)
            assert sol.exists and abs(sol.min_value - oracle_min) < 1e-8


class TestNormalEquation:
    def test_classical_case_reduces_to_matrix_normal_equation(self):
        rng = np.random.default_rng(18)
        a_mat = cmat(rng, 3, 3)
        b = cvec(rng, 3)
        prob = LssProblem(graph_of_matrix(a_mat), Weight(np.eye(3), "psd"), b)
        x0 = np.linalg.lstsq(a_mat, b, rcond=None)[0]
        assert check_normal(prob, x0)
        assert np.linalg.norm(a_mat.conj().T @ (a_mat @ x0 - b)) < 1e-9

    def test_rejects_points_outside_domain(self):
        a = graph_of_matrix(np.diag([1.0, 0.0]))
        prob = LssProblem(
            product_of_subspaces(E2_LINE, E2_LINE), Weight(np.eye(2), "psd"), np.zeros(2)
        )
        with pytest.raises(ValueError):
            check_normal(prob, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("seed", range(25))
    def test_agreement_with_solution_membership(self, seed):
        rng = np.random.default_rng(5200 + seed)
        n = int(rng.integers(2, 6))
        a = random_relation(rng, n, n)
        dom = parts(a).dom
        if dom.dim == 0:
            return
        w = Weight(random_psd(rng, n), "psd")
        b = cvec(rng, n)
        prob = LssProblem(a, w, b)
        sol = solve(prob)
        candidate = dom.basis @ cvec(rng, dom.dim)
        verdict = check_normal(prob, candidate)
        assert verdict == (sol.exists and sol.solution_set.contains(candidate))
        if sol.exists:
            assert check_normal(prob, sol.witness)

    def test_matches_the_relation_route_and_membership(self):
        # check_normal reads the normal equation on U*W; the relation route
        # it replaced and solution-set membership must give the same verdict
        # on the witness, on another member and on a point of dom A
        rng = np.random.default_rng(107)
        accepted = 0
        for prob in _criterion_7_instances(rng, 300):
            sol = solve(prob)
            directions, dom = sol.solution_set.direction, parts(prob.A).dom
            member = sol.witness + directions.basis @ cvec(rng, directions.dim)
            candidate = dom.basis @ cvec(rng, dom.dim)
            for x0 in (sol.witness, member, candidate):
                verdict = check_normal(prob, x0)
                assert verdict == sol.solution_set.contains(x0)
                assert verdict == _check_normal_by_relations(prob, x0)
            accepted += check_normal(prob, candidate)
        assert 0 < accepted < 300

    @pytest.mark.parametrize("top", [1e2, 1e3])
    def test_accepts_the_witness_at_a_large_singular_value(self, top):
        # A is the graph of a matrix with one singular value at ``top``; the
        # relation route through the graph of A* W rejected 60 (1e2) and
        # 418 (1e3) of these witnesses
        rng = np.random.default_rng(9200)
        for i in range(500):
            n = int(rng.integers(2, 9))
            u, _, vh = np.linalg.svd(cmat(rng, n, n))
            sigma = rng.uniform(0.5, 2.0, n)
            sigma[int(rng.integers(0, n))] = top
            m = (u * sigma) @ vh
            w = Weight(random_psd(rng, n, force_singular=False), "psd")
            b = m @ cvec(rng, n) if i % 2 == 0 else cvec(rng, n)
            prob = LssProblem(graph_of_matrix(m), w, b)
            assert check_normal(prob, solve(prob).witness)
            assert not check_normal(prob, cvec(rng, n))


class TestTwoWeights:
    def test_second_weight_size_is_checked(self):
        # a 2 x 2 W2 against a 3-dim relation failed inside numpy's matmul
        a = graph_of_matrix(np.eye(3))
        with pytest.raises(ValueError, match="weight size 2 != relation dimension 3"):
            w1w2_solve(a, Weight(np.eye(3), "psd"), Weight(np.eye(2), "psd"), np.ones(3))

    def test_degenerate_first_weight(self):
        a = graph_of_matrix(np.diag([1.0, 0.0]))
        coset = w1w2_solve(
            a, Weight(np.diag([0.0, 1.0]), "psd"), Weight(np.eye(2), "psd"), np.array([1.0, 1.0])
        )
        assert np.linalg.norm(coset.min_norm_point()) < 1e-10
        assert coset.direction.dim == 0

    def test_identity_weights_give_pseudoinverse_solution(self):
        rng = np.random.default_rng(19)
        a_mat = cmat(rng, 4, 4) @ np.diag([1.0, 1.0, 0.0, 0.0])
        b = cvec(rng, 4)
        eye = Weight(np.eye(4), "psd")
        coset = w1w2_solve(graph_of_matrix(a_mat), eye, eye, b)
        assert np.linalg.norm(coset.min_norm_point() - np.linalg.pinv(a_mat) @ b) < 1e-8

    def test_no_first_stage_solution_raises(self):
        a = graph_of_matrix(np.diag([1.0, 0.0]))
        w1 = Weight(borderline_neutral_weight(), "psd")
        with pytest.raises(NoSolutionError):
            w1w2_solve(a, w1, Weight(np.eye(2), "psd"), np.array([0.0, 1.0]))

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_two_stage_oracle(self, seed):
        rng = np.random.default_rng(5300 + seed)
        n = int(rng.integers(2, 6))
        a = random_relation(rng, n, n)
        w1 = Weight(random_psd(rng, n), "psd")
        w2 = Weight(random_psd(rng, n), "psd")
        b = cvec(rng, n)
        first = solve(LssProblem(a, w1, b))
        if not first.exists:
            with pytest.raises(NoSolutionError):
                w1w2_solve(a, w1, w2, b)
            return
        refined = w1w2_solve(a, w1, w2, b)
        point, flat = oracles.minimize_seminorm_over_coset(
            w2.matrix, first.solution_set.point, first.solution_set.direction.basis
        )
        expected_dir = orthonormalize(flat, ambient_dim=n)
        assert subspace_equals(refined.direction, expected_dir)
        assert refined.contains(point)
        # every member is a first-stage solution of minimal second seminorm
        w2_half = psd_sqrt(w2.matrix)
        assert first.solution_set.contains(refined.point)
        assert (
            abs(
                np.linalg.norm(w2_half @ refined.point)
                - np.linalg.norm(w2_half @ point)
            )
            < 1e-8
        )

    def test_matches_the_graph_oracle(self):
        # the oracle behind w1w2-solve --verify: both least-squares stages in
        # graph coordinates, with no call into the library
        rng = np.random.default_rng(5350)
        for _ in range(300):
            n = int(rng.integers(2, 8))
            a = random_relation(rng, n, n)
            w1 = Weight(random_psd(rng, n), "psd")
            w2 = Weight(random_psd(rng, n), "psd")
            b = cvec(rng, n)
            refined = w1w2_solve(a, w1, w2, b)
            point, direction = oracles.w1w2_by_graph(
                a.graph.basis, n, w1.matrix, w2.matrix, b, 1e-10
            )
            gap = refined.direction.projector() - direction @ direction.conj().T
            assert np.linalg.norm(gap) < 1e-9
            assert refined.contains(point)

    def test_graph_oracle_calls_no_lstsq(self, svd_calls):
        # each least-squares stage of the oracle takes its point and its
        # flat directions from one SVD cut once: with W1 singular, the W1
        # stage and the W2 stage make one SVD each, after the eigh of each
        # weight's root (the answer's directions are 0, so none is spanned)
        rng = np.random.default_rng(5360)
        n = 6
        a = graph_of_matrix(cmat(rng, n, 3) @ cmat(rng, 3, n))
        w1, w2, b = random_psd(rng, n, force_singular=True), random_psd(rng, n), cvec(rng, n)
        del svd_calls[:]
        oracles.w1w2_by_graph(a.graph.basis, n, w1, w2, b, 1e-10)
        assert svd_calls == ["eigh", "svd", "eigh", "svd"]

    def test_graph_oracle_at_every_weight_scale(self):
        # the relation families of tools/compare.py with both weights scaled
        # together: per scale, the oracle answers more than 1e-8 off
        # w1w2_solve number no more than the counts below, which the stages
        # made when numpy's lstsq inverted singular values that a separately
        # cut null basis dropped, and fewer in all.  Those left are pairs
        # tilted 1e-5..1e-8 off the input axis, on which the oracle's
        # absolute atol and the library's relative cut read different
        # problems; at 1e-24 the absolute atol flushes both weights
        two_cut = {0: 36, -6: 35, -12: 39, -24: 277, 8: 36, 15: 35}
        cases = []
        for i in range(300):
            rng = np.random.default_rng([31, i])
            n = int(rng.integers(2, 9))
            tilt = 10.0 ** -(4 + (i // 5) % 5)
            if i % 5 == 2:
                k = int(rng.integers(0, n + 1))
                a = graph_of_matrix(cmat(rng, n, k) @ cmat(rng, k, n))
            else:
                a = {
                    0: lambda: random_relation(rng, n, n),
                    1: lambda: relation_with_ker_and_mul(rng, n, n, tilt),
                    3: lambda: relation_near_output_axis(rng, n, n, tilt),
                    4: lambda: loosely_orthonormal_relation(rng, n, n),
                }[i % 5]()
            w1, w2 = random_psd(rng, n), random_psd(rng, n, force_singular=False)
            cases.append((a, w1, w2, cvec(rng, n)))
        off = {}
        for e in two_cut:
            off[e] = 0
            for a, w1, w2, b in cases:
                w1s, w2s = 10.0**e * w1, 10.0**e * w2
                refined = w1w2_solve(a, Weight(w1s, "psd"), Weight(w2s, "psd"), b)
                point, direction = oracles.w1w2_by_graph(a.graph.basis, a.dim_in, w1s, w2s, b, 1e-10)
                gap = refined.direction.projector() - direction @ direction.conj().T
                offset = point - refined.point
                offset = offset - refined.direction.project(offset)
                off[e] += max(np.linalg.norm(gap), np.linalg.norm(offset)) > 1e-8
        assert all(off[e] <= two_cut[e] for e in two_cut), off
        assert sum(off.values()) < sum(two_cut.values()), off


def _fields(p):
    return p.dom, p.ran, p.ker, p.mul


class TestRankDecisionCount:
    def test_svd_calls_per_solve(self, svd_calls, qr_calls):
        # the instance family of acceptance criterion 7; the count pins the
        # one-SVD intersection, A's output block as the only block factored
        # (ran A, and A^-1 through its triplets), the one span of the
        # solution directions, and the block-form projection: one eigh of
        # the block U*WU, as the root of W and ker W are cut from the
        # eigenpairs the weight keeps (a second eigh of W made them before;
        # the de Morgan kernel made 45 / 56 SVDs, six-SVD parts 22.7 / 29, the relation route through make_pws and apply
        # 11.7 / 15, the structural check through A^-1 (ker W) 5.2 / 8, both
        # blocks factored with an lstsq and a separate intersection for the
        # coset 3.12 / 6 with 0.25 lstsq; A^-1 through apply_to_coset, its
        # preimage under H and its image 2.16 / 5; 1.66 / 3 now, A^-1 read
        # from H's kept triplets with at most one QR of the output directions)
        rng = np.random.default_rng(107)
        counts = []
        for _ in range(300):
            n = int(rng.integers(2, 9))
            a = random_relation(rng, n, n)
            w = Weight(random_psd(rng, n), "psd")
            b = cvec(rng, n)
            svd_calls.clear()
            qr_calls.clear()
            solve(LssProblem(a, w, b))
            counts.append(svd_calls.count("svd"))
            assert svd_calls.count("eigh") == 1
            assert len(qr_calls) <= 1
            assert "lstsq" not in svd_calls
        assert np.mean(counts) <= 1.66
        assert max(counts) <= 3

    def test_svd_calls_per_solve_on_a_matrix_graph(self, svd_calls, qr_calls):
        # graph_of_matrix seeds A's output half, so solve factors no block:
        # none when W is definite, else the intersection with ker W and the
        # span of the solution directions, plus one QR of their coordinates
        # (the graph factored by the SVD of [I; M] made 3.07 / 5, with the
        # output block; A^-1 through apply_to_coset, with its SVD and the
        # image's preimage and span, 4 when W is singular and 2.07 in all)
        rng = np.random.default_rng(108)
        counts = []
        for _ in range(300):
            n = int(rng.integers(2, 9))
            a = graph_of_matrix(cmat(rng, n, n))
            w = Weight(random_psd(rng, n), "psd")
            b = cvec(rng, n)
            svd_calls.clear()
            qr_calls.clear()
            solve(LssProblem(a, w, b))
            counts.append(svd_calls.count("svd"))
            singular = np.linalg.matrix_rank(w.matrix) < n
            assert counts[-1] == 2 * singular
            assert len(qr_calls) == singular
        assert np.mean(counts) <= 1.04

    @pytest.mark.parametrize("n", [16, 32])
    def test_solve_factors_the_n_by_n_output_block_once(self, svd_shapes, n):
        # the benchmark's large-solve structure: n - 2 generic pairs, one
        # (0, y) and one (x, 0) pair, and a weight of rank 7n/8; A^-1 of the
        # minimizing outputs reads H's kept triplets, so H's SVD is the only
        # n x n one (the preimage under H in apply_to_coset made a second)
        rng = np.random.default_rng(117 + n)
        pairs = np.zeros((2 * n, n), dtype=complex)
        pairs[:, : n - 2] = cmat(rng, 2 * n, n - 2)
        pairs[n:, n - 2] = cvec(rng, n)
        pairs[:n, n - 1] = cvec(rng, n)
        wh = cmat(rng, n - n // 8, n)
        prob = LssProblem(from_graph_basis(n, n, pairs), Weight(wh.conj().T @ wh, "psd"), cvec(rng, n))
        svd_shapes.clear()
        sol = solve(prob)
        assert sol.solution_set.direction.dim > parts(prob.A).ker.dim
        assert [shape for shape, _ in svd_shapes].count((n, n)) == 1

    def test_solve_factors_only_the_output_block(self, svd_calls):
        # solve reads ran A and A^-1 from A's output block alone: afterwards
        # ran A and ker A are cached, and dom A costs the one SVD of the input block
        # (none for a zero graph, whose blocks have no columns)
        rng = np.random.default_rng(113)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            a = random_relation(rng, n, n)
            solve(LssProblem(a, Weight(random_psd(rng, n), "psd"), cvec(rng, n)))
            svd_calls.clear()
            p = parts(a)
            ran, ker = p.ran, p.ker
            assert svd_calls == []
            dom = p.dom
            assert svd_calls == ["svd"] * (a.graph.dim > 0)
            q = parts(a)
            assert q.ran is ran and q.ker is ker and q.dom is dom and q.mul is p.mul
            assert svd_calls == ["svd"] * (a.graph.dim > 0)

    def test_svd_calls_per_check_normal(self, svd_calls):
        # with the parts of A cached, one SVD of K = U*W M and only when
        # mul A is not zero (the relation route through the graph of A* W
        # made 9.1 SVDs and 0.5 lstsq per call)
        rng = np.random.default_rng(107)
        counts = []
        for prob in _criterion_7_instances(rng, 300):
            p = parts(prob.A)
            dom, _ = p.dom, p.ran  # both halves factored before the count
            candidate = dom.basis @ cvec(rng, dom.dim)
            svd_calls.clear()
            check_normal(prob, candidate)
            counts.append(svd_calls.count("svd"))
            assert counts[-1] == (parts(prob.A).mul.dim > 0)
            assert len(svd_calls) == counts[-1]
        assert 0 < sum(counts) < len(counts)

    def test_svd_calls_per_w1w2_solve(self, svd_calls):
        # solve's count, plus the block form of the W2-projection onto the
        # solution directions: one more eigh, of its corner, and no SVD, as
        # the root of W2 is cut from W2's own eigenpairs (it made its own
        # eigh before; the relation route through make_pws, identity_minus
        # and apply_to_coset made 20.0 / 26 SVDs, with both blocks of A
        # factored 2.84 / 6, with solve's A^-1 through apply_to_coset
        # 1.92 / 5; 1.53 / 3 now)
        rng = np.random.default_rng(112)
        counts = []
        for _ in range(300):
            n = int(rng.integers(2, 9))
            a = random_relation(rng, n, n)
            w1 = Weight(random_psd(rng, n), "psd")
            w2 = Weight(random_psd(rng, n), "psd")
            b = cvec(rng, n)
            svd_calls.clear()
            w1w2_solve(a, w1, w2, b)
            counts.append(svd_calls.count("svd"))
            assert svd_calls.count("eigh") == 2
            assert "lstsq" not in svd_calls
        assert np.mean(counts) <= 1.53
        assert max(counts) <= 3

    def test_identity_minus_is_one_span(self, svd_calls):
        # I - T is the span of (x, x - y); as the operator sum of the
        # identity and -T it took 3 SVDs
        t = random_relation(np.random.default_rng(108), 4, 4)
        svd_calls.clear()
        identity_minus(t)
        assert svd_calls == ["svd"]

    def test_smooth_solve_is_one_svd(self, svd_calls):
        # x*, the argmin directions and the range pairs all come from one
        # SVD of [T; sqrt(rho) V]; it was lstsq, null_space and a pinv
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n + 1))
            p = SmoothingProblem(
                SplineProblem(cmat(rng, int(rng.integers(1, 7)), n), cmat(rng, k, n), cvec(rng, k)),
                float(rng.choice([0.1, 1.0, 10.0])),
            )
            svd_calls.clear()
            smooth_solve(p)
            assert svd_calls == ["svd"]

    def test_svd_calls_per_spline_solve(self, svd_calls):
        # construction included: one full SVD of V decides surjectivity and
        # gives both the feasible point and ker V, and one eigh of the
        # corner K* T*T K serves both feasible points of the independence
        # check; no lstsq, and T*T is psd by construction and takes no
        # eigvalsh certificate (the relation route made 9.0 / 10, and
        # 17.75 / 19 when I - P was an operator sum; the feasible point was
        # one lstsq at numpy's cutoff; a thin SVD of V* for surjectivity, a
        # full SVD of V and one eigh per feasible point made 2 SVDs and 2
        # eigh)
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n + 1))
            T, V = rng.standard_normal((n, n)), rng.standard_normal((k, n))
            b = rng.standard_normal(k)
            svd_calls.clear()
            spline_solve(SplineProblem(T, V, b))
            assert svd_calls.count("svd") == 1
            assert "lstsq" not in svd_calls
            assert svd_calls.count("eigh") == 1
            assert "eigvalsh" not in svd_calls

    def test_spline_problem_owns_the_svd_of_v(self, svd_calls):
        # the problem makes the one SVD of V; spline_solve reads its
        # factors, at any tolerance, and makes only the eigh of the corner
        rng = np.random.default_rng(31)
        for i in range(100):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n + 1))
            svd_calls.clear()
            p = SplineProblem(cmat(rng, n, n), cmat(rng, k, n), cvec(rng, k))
            assert svd_calls == ["svd"]
            svd_calls.clear()
            spline_solve(p, Tolerance(1e-9) if i % 2 else None)
            assert svd_calls == ["eigh"]

    def test_svd_calls_per_krein_classify(self, svd_calls):
        # one eigh of the Gram matrix U*JU, and for the cross-check the null
        # space of U*J and its intersection with S, one SVD each (the
        # relation route through the companion, its intersection and sum
        # with S and the parts of P made 8.1 / 9, and 12.1 / 13 when
        # make_pws recomputed the companion)
        rng = np.random.default_rng(5)
        counts = []
        for i in range(300):
            n = int(rng.integers(2, 9))
            j = random_symmetry(rng, n)
            if i % 2:
                s = degenerate_subspace(rng, j)
            else:
                s = random_subspace(rng, n, dim=int(rng.integers(1, n + 1)))
            w = Weight(j, "symmetry")
            svd_calls.clear()
            krein_classify(s, w)
            counts.append(svd_calls.count("svd"))
            assert svd_calls.count("eigh") == 1
        assert max(counts) <= 2

    def test_svd_calls_per_complementability(self, svd_calls):
        # one SVD of U*W and one of the cosines R*U decide rank U*W and
        # rank a on the scales of W and of the angles, one more the domain
        # S + (W S)-perp, and when complementable S-perp and the span of the
        # off-diagonal block; no eigh of the quadratic corner U*WU (the
        # relation route through make_pws, parts, canonical_blocks and the
        # regeneration made 33.0 / 38)
        rng = np.random.default_rng(3600)
        counts = []
        for _ in range(400):
            w, s = weight_and_subspace(rng)
            w = Weight(w)
            svd_calls.clear()
            complementability(w, s)
            counts.append(svd_calls.count("svd"))
            assert svd_calls.count("eigh") == 0
        assert np.mean(counts) <= 4.1
        assert max(counts) <= 5

    def test_svd_calls_per_shorted(self, svd_calls):
        # one SVD of R (I - UU*) for Q, R read from the weight's own
        # eigenpairs, and two eigvalsh for the sandwich 0 <= Sigma <= W (the
        # Schur route made an SVD for S-perp and an eigh for the
        # pseudo-inverse of the complement block; the relation route
        # W (I - P) made 10.9 / 12)
        rng = np.random.default_rng(3700)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            w = Weight(random_psd(rng, n), "psd")
            s = random_subspace(rng, n)
            svd_calls.clear()
            shorted(w, s)
            assert svd_calls.count("svd") == 1
            assert svd_calls.count("eigh") + svd_calls.count("eigvalsh") == 2

    def test_parts_factors_a_block_when_a_field_is_read(self, svd_calls):
        # one full SVD per graph block gives its span and its null space (it
        # took six: span, null space and re-orthonormalized image per block),
        # made the first time one of the block's two subspaces is read: the
        # input block for dom and mul, the output block for ran and ker
        rng = np.random.default_rng(109)
        for i in range(100):
            t = relation_with_ker_and_mul(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
            svd_calls.clear()
            p = parts(t)
            assert svd_calls == []
            getattr(p, ("dom", "mul")[i % 2])
            assert svd_calls == ["svd"]
            getattr(p, ("ran", "ker")[i // 2 % 2])
            assert svd_calls == ["svd", "svd"]
            for name in ("dom", "ran", "ker", "mul"):
                assert getattr(p, name) is getattr(parts(t), name)
            assert svd_calls == ["svd", "svd"]

    def test_inverse_shares_the_parts(self, svd_calls):
        rng = np.random.default_rng(110)
        for _ in range(100):
            n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            t = random_relation(rng, n, m)
            dom, ran, ker, mul = _fields(parts(t))
            svd_calls.clear()
            inverse = invert(t)
            swapped = _fields(parts(inverse))
            twice = _fields(parts(invert(inverse)))
            assert svd_calls == []
            assert all(a is b for a, b in zip(twice, (dom, ran, ker, mul)))
            assert all(a is b for a, b in zip(swapped, (ran, dom, mul, ker)))
            # and they are the parts a fresh analysis of the inverse finds
            for got, want in zip(swapped, _fields(parts(LinearRelation(m, n, inverse.graph)))):
                assert got.dim == want.dim
                assert np.linalg.norm(got.projector() - want.projector()) <= 1e-12

    def test_apply_reuses_the_factors(self, svd_calls):
        # apply reads the input block's kept singular triplets that parts
        # cut; it was one lstsq at numpy's cutoff per call
        rng = np.random.default_rng(111)
        for _ in range(100):
            n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            t = random_relation(rng, n, m)
            p = parts(t)
            dom, _ = p.dom, p.ran  # both halves factored before the count
            svd_calls.clear()
            apply(t, dom.basis @ cvec(rng, dom.dim))
            apply(invert(t), cvec(rng, m))
            assert svd_calls == []


class TestAgainstTheRelationRoute:
    """The solvers take the weighted projection from its block form; the
    relation route they replaced (make_pws, identity_minus, apply), built on
    the calculus that is itself checked against the cylinder oracles, must
    give the same verdict, dimensions, cosets and minimum."""

    @pytest.mark.parametrize(
        "family,bound", [(random_relation, 1e-9), (relation_with_ker_and_mul, 1e-7)]
    )
    def test_solve(self, family, bound):
        # relation_with_ker_and_mul's inverse has a 1e-6 singular value, so
        # its solution sets are fixed only to about eps / 1e-6
        rng = np.random.default_rng(7000 + (family is relation_with_ker_and_mul))
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            a = family(rng, n, n)
            w = Weight(random_psd(rng, n), "psd")
            b = cvec(rng, n)
            old = apply(make_pws(w, parts(a).ran), b)
            old_set = apply_to_coset(invert(a), old)
            sol = solve(LssProblem(a, w, b))
            assert sol.exists == (not old.is_empty)
            if old.is_empty:
                continue
            assert sol.minimizing_outputs.direction.dim == old.direction.dim
            assert sol.solution_set.direction.dim == old_set.direction.dim
            worst = max(
                worst, coset_gap(sol.minimizing_outputs, old), coset_gap(sol.solution_set, old_set)
            )
            old_min = np.linalg.norm(psd_sqrt(w.matrix) @ (old.point - b))
            assert abs(sol.min_value - old_min) <= 1e-9 * max(1.0, old_min)
        assert worst <= bound

    def test_spline_solve(self):
        rng = np.random.default_rng(7002)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n + 1))
            T = cmat(rng, int(rng.integers(1, 9)), n)
            if rng.random() < 0.3:
                T = T @ np.diag([0.0] * (n // 2) + [1.0] * (n - n // 2))
            p = SplineProblem(T, cmat(rng, k, n), cvec(rng, k))
            sol = spline_solve(p)
            x_feasible = np.linalg.lstsq(p.V, p.b, rcond=None)[0]
            weight = Weight(p.T.conj().T @ p.T, "psd")
            old = apply(identity_minus(make_pws(weight, null_space(p.V))), x_feasible)
            assert not old.is_empty
            assert sol.spline_set.direction.dim == old.direction.dim
            worst = max(worst, coset_gap(sol.spline_set, old))
            old_min = np.linalg.norm(p.T @ old.point)
            assert abs(sol.min_value - old_min) <= 1e-9 * max(1.0, old_min)
        assert worst <= 1e-9

    def test_w1w2_solve(self):
        rng = np.random.default_rng(7003)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            a = random_relation(rng, n, n)
            w1 = Weight(random_psd(rng, n), "psd")
            w2 = Weight(random_psd(rng, n), "psd")
            b = cvec(rng, n)
            refined = w1w2_solve(a, w1, w2, b)
            first = solve(LssProblem(a, w1, b)).solution_set
            old = apply_to_coset(identity_minus(make_pws(w2, first.direction)), first)
            assert not old.is_empty
            assert refined.direction.dim == old.direction.dim
            worst = max(worst, coset_gap(refined, old))
        assert worst <= 1e-9


class TestBorderlineWeights:
    @pytest.mark.parametrize("eps", [1e-6, 1e-7])
    def test_rotated_neutral_range_has_no_solution(self, eps):
        # the lss-no-solution fixture in random coordinates; the relation
        # route raised on 58 (eps 1e-6) and 305 (eps 1e-7) of these 333
        # copies, mostly "companion computed by image and preimage routes
        # disagrees", and answered "exists" on 3 and 7
        rng = np.random.default_rng(7100 + int(eps == 1e-7))
        for _ in range(333):
            a, w, b = rotated_borderline_problem(rng, int(rng.integers(2, 5)), eps)
            sol = solve(LssProblem(graph_of_matrix(a), Weight(w, "psd"), b))
            assert not sol.exists

    def test_tiny_weight_eigenvalues_never_block_a_solution(self):
        # a psd weight always admits a solution: g = U*W b has at most
        # sqrt(mu) ||W^1/2 b|| on an eigenvector of U*WU with eigenvalue mu,
        # so dropping mu under the cut must not read as "no solution"
        rng = np.random.default_rng(7200)
        tols = [None, Tolerance(abs_eps=1e-6), Tolerance(abs_eps=1e-8), Tolerance(abs_eps=1e-11)]
        verdicts = []
        for i in range(1000):
            n = int(rng.integers(2, 7))
            a = random_relation(rng, n, n)
            w = Weight(psd_with_tiny_eigenvalues(rng, n), "psd")
            b = cvec(rng, n)
            try:
                verdicts.append(solve(LssProblem(a, w, b), tols[i % 4]).exists)
            except ConsistencyError:
                # the constant-minimum and structural checks compare cuts on
                # different scales of W (ROADMAP item 5)
                continue
        assert all(verdicts)
        # 80 raise here; 76 when solve cut W itself, not W over its largest
        # eigenvalue, which moves the cutoff these tiny eigenvalues straddle;
        # 74 when the structural check ran after A^-1; the relation route
        # raised on 149, 134 of them in the companion's two routes
        assert len(verdicts) >= 900


def _units_instance(rng):
    """A = n x r times r x n with r in [1, n], W = Wh*Wh for Wh of size k x n
    with k in [1, n], and a real Gaussian b, for n in [2, 6]."""
    n = int(rng.integers(2, 7))
    r = int(rng.integers(1, n + 1))
    k = int(rng.integers(1, n + 1))
    a = graph_of_matrix(rng.standard_normal((n, r)) @ rng.standard_normal((r, n)))
    wh = rng.standard_normal((k, n))
    return a, wh.T @ wh, rng.standard_normal(n)


class TestWeightUnits:
    @pytest.mark.parametrize("scale", [1e-12, 1e-24, 2.0**20, 1e12, 1e16])
    def test_scaling_w_scales_the_minimum_by_its_root(self, scale):
        # solve cuts W divided by its largest eigenvalue, so the units of W
        # decide no rank: with the absolute cut on W itself, W x 1e-12 and
        # W x 1e-24 flushed the whole weight on 74 of these 200 instances,
        # each reporting a minimum of exactly 0, and W x 1e16 raised on 51
        rng = np.random.default_rng(11)
        for _ in range(200):
            a, w, b = _units_instance(rng)
            unit = solve(LssProblem(a, Weight(w, "psd"), b))
            scaled = solve(LssProblem(a, Weight(scale * w, "psd"), b))
            assert unit.exists and scaled.exists
            assert type(scaled.min_value) is float
            bound = 1e-7 * np.sqrt(scale * np.linalg.norm(w, 2)) * np.linalg.norm(b)
            assert abs(scaled.min_value - np.sqrt(scale) * unit.min_value) <= bound

    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e6, 1e12])
    def test_scaling_b_scales_the_answer(self, scale):
        # the check that the minimum is constant on the output coset reads
        # the gap on the scale of y and b: with an absolute floor of 1, b x
        # 1e12 raised "minimum value varies" on 69 of these 200 instances
        rng = np.random.default_rng(11)
        for _ in range(200):
            a, w, b = _units_instance(rng)
            unit = solve(LssProblem(a, Weight(w, "psd"), b))
            scaled = solve(LssProblem(a, Weight(w, "psd"), scale * b))
            assert unit.exists and scaled.exists
            assert scaled.solution_set.direction.dim == unit.solution_set.direction.dim
            bound = 1e-9 * np.sqrt(np.linalg.norm(w, 2)) * np.linalg.norm(b)
            assert abs(scaled.min_value / scale - unit.min_value) <= bound
            witness = unit.witness
            assert np.linalg.norm(scaled.witness / scale - witness) <= 1e-9 * (1 + np.linalg.norm(witness))

    @pytest.mark.parametrize("scale", [1e-12, 1e-24, 1e12, 1e16])
    def test_scaling_w2_keeps_the_w1w2_answer(self, scale):
        # the W2-weighted projection does not change when W2 is scaled, and
        # w1w2_solve reads it on W2 / lambda2: with W2's root and corner cut
        # on W2's own scale, W2 x 1e-12 gave 171 wrong answers and 2 raises
        # of these 200, and W2 x 1e-24 173 wrong answers
        rng = np.random.default_rng(12)
        for _ in range(200):
            a, w1, b = _units_instance(rng)
            n = b.size
            wh2 = rng.standard_normal((int(rng.integers(1, n + 1)), n))
            w2 = wh2.T @ wh2
            unit = w1w2_solve(a, Weight(w1, "psd"), Weight(w2, "psd"), b)
            scaled = w1w2_solve(a, Weight(w1, "psd"), Weight(scale * w2, "psd"), b)
            assert scaled.direction.dim == unit.direction.dim
            point = unit.min_norm_point()
            assert np.linalg.norm(scaled.min_norm_point() - point) <= 1e-9 * (1 + np.linalg.norm(point))

    @pytest.mark.parametrize("scale", [1e-12, 1e-24, 2.0**20, 1e12])
    def test_scaling_w_keeps_the_check_normal_verdict(self, scale):
        # check_normal reads U*(W / lambda), as solve reads W: on W itself,
        # W x 1e-12 and 1e-24 turned the verdict on 193 and 200 of these 200
        # random candidates to True, and W x 2^20 and 1e12 refused 188 and
        # 200 of the witnesses
        rng = np.random.default_rng(11)
        rejected = 0
        for _ in range(200):
            a, w, b = _units_instance(rng)
            unit, scaled = LssProblem(a, Weight(w, "psd"), b), LssProblem(a, Weight(scale * w, "psd"), b)
            assert check_normal(scaled, solve(unit).witness)
            candidate = rng.standard_normal(b.size)
            verdict = check_normal(unit, candidate)
            assert check_normal(scaled, candidate) == verdict
            rejected += not verdict
        assert rejected >= 100

    @pytest.mark.parametrize("scale", [1e-12, 1e-24, 2.0**20, 1e12])
    def test_scaling_w_scales_the_shorted_operator(self, scale):
        # shorted is lambda times Anderson's form on W / lambda: the Schur
        # complement on W itself pseudo-inverted the complement block at
        # the absolute cutoff, so at W x 1e-12 and 1e-24 it dropped the
        # whole correction and answered U a U*, wrong on all 200 of these
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            wh = rng.standard_normal((int(rng.integers(1, n + 1)), n))
            w = wh.T @ wh
            s = random_subspace(rng, n, int(rng.integers(1, n)))
            unit = shorted(Weight(w, "psd"), s)
            assert np.linalg.norm(shorted(Weight(scale * w, "psd"), s) / scale - unit) <= 1e-9 * np.linalg.norm(w)

    def test_shorted_accepts_weights_with_tiny_eigenvalues(self):
        # an eigenvalue of W's block on S-perp just under the cutoff made the
        # Schur complement leave 0 <= Sigma <= W: 49 of these 1500 raised
        rng = np.random.default_rng(4300)
        for _ in range(1500):
            n = int(rng.integers(2, 9))
            w = Weight(psd_with_tiny_eigenvalues(rng, n), "psd")
            shorted(w, random_subspace(rng, n))

    @pytest.mark.parametrize("scale", [1e-12, 1e-24, 1e12])
    def test_psd_sqrt_scales_by_the_root(self, scale):
        # psd_sqrt is sqrt(lambda) times the root of M / lambda: cut on the
        # absolute scale, M x 1e-12 and 1e-24 flushed the whole root to 0 on
        # all 200 of these
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            wh = rng.standard_normal((int(rng.integers(1, n + 1)), n))
            w = wh.T @ wh
            root = np.sqrt(scale) * psd_sqrt(w)
            assert np.linalg.norm(psd_sqrt(scale * w) - root) <= 1e-12 * np.linalg.norm(root)

    @pytest.mark.parametrize("eigs", [(1e-17, -1e-17), (1e-30, -1e-17), (0.0, -1e-17), (1e-17, -3e-17)])
    def test_a_weight_zero_up_to_rounding_admits_a_zero_minimum(self, eigs):
        # the certificate accepts the negative eigenvalue as rounding; read
        # on W's own scale, it became an eigenvalue of -1 that made b = (1, 1)
        # look unsolvable for A = I.  Cut on the absolute scale, W is zero:
        # every x minimizes, with minimum 0
        p = LssProblem(graph_of_matrix(np.eye(2)), Weight(np.diag(eigs), "psd"), np.array([1.0, 1.0]))
        sol = solve(p)
        assert sol.exists and sol.min_value == 0.0
        assert sol.solution_set.direction.dim == 2
        assert check_normal(p, sol.witness)

    @pytest.mark.parametrize("scale", [1e-12, 1e12])
    def test_scaling_w_keeps_a_borderline_problem_unsolvable(self, scale):
        # W / lambda passes the certificate here, so the negative eigenvalue
        # -eps^2 lambda stays in the corner at every scale: with the absolute
        # cut on W itself, all 100 read "exists" at 1e-12 and 50 raised at 1e12
        rng = np.random.default_rng(7100)
        for _ in range(100):
            a, w, b = rotated_borderline_problem(rng, int(rng.integers(2, 5)), 1e-6)
            assert not solve(LssProblem(graph_of_matrix(a), Weight(scale * w, "psd"), b)).exists
