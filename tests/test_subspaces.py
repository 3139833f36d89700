"""Subspace arithmetic: examples, lattice laws, and the projector oracle."""

import numpy as np
import pytest

from relcalc import (
    Coset,
    DimensionMismatchError,
    Subspace,
    Tolerance,
    from_graph_basis,
    full_space,
    null_space,
    orthonormalize,
    psd_sqrt,
    subspace_complement,
    subspace_contains,
    subspace_equals,
    subspace_intersect,
    subspace_sum,
    zero_space,
)
from relcalc import oracles

from genutil import cvec, cmat, projector_dist, random_subspace, random_unitary


def e(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


class TestOrthonormalize:
    def test_collinear_vectors_span_a_line(self):
        s = orthonormalize([np.array([1.0, 0.0]), np.array([2.0, 0.0])])
        assert s.dim == 1 and s.ambient_dim == 2

    def test_empty_span_is_zero_subspace(self):
        s = orthonormalize([], ambient_dim=2)
        assert s.dim == 0 and s.ambient_dim == 2

    def test_two_independent_vectors_fill_c2(self):
        # oracle: the projector of the full space is the identity
        s = orthonormalize([np.array([1.0, 1.0]), np.array([1.0, -1.0])])
        assert np.linalg.norm(s.projector() - np.eye(2)) < 1e-9

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DimensionMismatchError):
            orthonormalize([np.zeros(2), np.zeros(3)])

    def test_equal_inputs_yield_identical_basis(self):
        rng = np.random.default_rng(7)
        mat = cmat(rng, 4, 2)
        a = orthonormalize(mat)
        b = orthonormalize(mat.copy())
        assert np.array_equal(a.basis, b.basis)


class TestLattice:
    def test_sum_of_axes_is_everything(self):
        s = subspace_sum(orthonormalize([e(2, 0)]), orthonormalize([e(2, 1)]))
        assert subspace_equals(s, full_space(2))

    def test_intersection_of_skew_lines_is_zero(self):
        s = subspace_intersect(
            orthonormalize([np.array([1.0, 1.0])]), orthonormalize([e(2, 0)])
        )
        assert s.dim == 0

    def test_complement_of_axis(self):
        c = subspace_complement(orthonormalize([e(2, 0)]))
        assert subspace_equals(c, orthonormalize([e(2, 1)]))

    @pytest.mark.parametrize("seed", range(25))
    def test_modular_law_exact_dimension_count(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        s1, s2 = random_subspace(rng, n), random_subspace(rng, n)
        total = subspace_sum(s1, s2)
        meet = subspace_intersect(s1, s2)
        assert total.dim + meet.dim == s1.dim + s2.dim

    @pytest.mark.parametrize("seed", range(25))
    def test_double_complement_and_de_morgan(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 9))
        s1, s2 = random_subspace(rng, n), random_subspace(rng, n)
        assert subspace_equals(subspace_complement(subspace_complement(s1)), s1)
        # closedness of sums is vacuous here, surviving as the lattice identity
        lhs = subspace_complement(subspace_intersect(s1, s2))
        rhs = subspace_sum(subspace_complement(s1), subspace_complement(s2))
        assert subspace_equals(lhs, rhs)


def _span(basis):
    return Subspace(basis, validate=False)


class TestIntersectAgainstDeMorgan:
    """subspace_intersect against the raw-numpy de Morgan oracle."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_pairs(self, seed):
        rng = np.random.default_rng(1500 + seed)
        n = int(rng.integers(2, 9))
        s1, s2 = random_subspace(rng, n), random_subspace(rng, n)
        meet = subspace_intersect(s1, s2)
        oracle = _span(oracles.intersect_de_morgan(s1.basis, s2.basis))
        assert meet.dim == oracle.dim == max(0, s1.dim + s2.dim - n)
        assert projector_dist(meet, oracle) < 1e-9
        assert projector_dist(subspace_intersect(s2, s1), meet) < 1e-9

    @pytest.mark.parametrize("seed", range(30))
    def test_known_meet_with_a_tiny_principal_angle(self, seed):
        # S1 and S2 share C exactly; besides it they hold u and a vector
        # tilted 1e-6 from u, which is no common direction at the 1e-10 cut
        rng = np.random.default_rng(1600 + seed)
        n = int(rng.integers(3, 9))
        q = random_unitary(rng, n)
        c = int(rng.integers(0, n - 1))
        extra = int(rng.integers(0, n - c - 1))
        theta = 1e-6
        tilted = np.cos(theta) * q[:, c] + np.sin(theta) * q[:, c + 1]
        s1 = orthonormalize(np.column_stack([q[:, : c + 1], q[:, c + 2 : c + 2 + extra]]))
        s2 = orthonormalize(np.column_stack([q[:, :c], tilted]), ambient_dim=n)
        common = orthonormalize(q[:, :c], ambient_dim=n)
        meet = subspace_intersect(s1, s2)
        oracle = _span(oracles.intersect_de_morgan(s1.basis, s2.basis))
        assert meet.dim == oracle.dim == c
        assert projector_dist(meet, common) < 1e-9
        assert projector_dist(meet, oracle) < 1e-9


class TestProject:
    def test_axis_projection(self):
        assert np.allclose(orthonormalize([e(2, 0)]).project(np.array([3.0, 4.0])), [3, 0])

    def test_rank_one_projector(self):
        got = orthonormalize([np.array([1.0, 1.0])]).project(np.array([1.0, 0.0]))
        assert np.allclose(got, [0.5, 0.5])

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_normal_equations_oracle(self, seed):
        # oracle: least-squares fit of v onto a raw (non-orthonormal) spanning set
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(2, 9))
        raw = cmat(rng, n, int(rng.integers(1, n + 1)))
        v = cvec(rng, n)
        coeff, *_ = np.linalg.lstsq(raw, v, rcond=None)
        fitted = raw @ coeff
        assert np.linalg.norm(orthonormalize(raw).project(v) - fitted) < 1e-9

    @pytest.mark.parametrize("seed", range(20))
    def test_projector_idempotent_selfadjoint(self, seed):
        rng = np.random.default_rng(300 + seed)
        s = random_subspace(rng, int(rng.integers(2, 9)))
        p = s.projector()
        assert np.linalg.norm(p @ p - p) < 1e-10
        assert np.linalg.norm(p - p.conj().T) < 1e-10


class TestCompare:
    def test_full_space_equality(self):
        s = orthonormalize([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert subspace_equals(s, full_space(2))

    def test_containment(self):
        assert subspace_contains(full_space(2), orthonormalize([e(2, 0)]))

    def test_distinct_lines_differ(self):
        a = orthonormalize([np.array([1.0, 1.0])])
        b = orthonormalize([np.array([1.0, -1.0])])
        assert not subspace_equals(a, b)

    def test_zero_subspace_contained_everywhere(self):
        assert subspace_contains(zero_space(3), zero_space(3))
        assert subspace_contains(random_subspace(np.random.default_rng(1), 3), zero_space(3))


class TestTolerance:
    def test_negative_components_rejected(self):
        with pytest.raises(ValueError):
            Tolerance(abs_eps=-1.0)
        with pytest.raises(ValueError):
            Tolerance(rel_eps=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_components_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            Tolerance(abs_eps=value)
        with pytest.raises(ValueError, match="finite"):
            Tolerance(rel_eps=value)

    def test_rank_of_no_singular_values_is_zero(self):
        assert Tolerance().rank(np.zeros(0), (3, 0)) == 0

    def test_rank_keeps_the_cutoff_and_drops_below_it(self):
        tol = Tolerance(abs_eps=1e-3, rel_eps=0.1)
        cutoff = tol.rank_cutoff(2.0, (3, 2))
        assert tol.rank(np.array([2.0, cutoff]), (3, 2)) == 2
        assert tol.rank(np.array([2.0, np.nextafter(cutoff, 0.0)]), (3, 2)) == 1

    def test_rank_cut_follows_abs_eps(self):
        # a vector of norm below abs_eps is treated as zero
        tiny = orthonormalize([np.array([1e-13, 0.0])])
        assert tiny.dim == 0
        kept = orthonormalize([np.array([1e-13, 0.0])], Tolerance(abs_eps=1e-15))
        assert kept.dim == 1

    @pytest.mark.parametrize("tol", [Tolerance(0.0), Tolerance(0.0, rel_eps=0.0)])
    def test_a_zero_cutoff_keeps_no_zero_singular_value(self, tol):
        # at abs_eps = 0 the cutoff of an all-zero matrix is 0 itself
        assert orthonormalize(np.zeros((3, 2)), tol).dim == 0
        assert tol.rank(np.array([1.0, 0.0]), (2, 2)) == 1


class TestNonFiniteData:
    """An inf entry factors into NaN singular values or eigenvalues, which
    failed every cutoff comparison and read as rank 0: a silent wrong
    answer.  The keep-mask refuses a largest magnitude that is not finite."""

    @pytest.mark.parametrize(
        "call",
        [
            # these gave dim 0, dim 2, graph dim 0 and the zero matrix
            pytest.param(lambda: orthonormalize([[np.inf], [1.0]]), id="orthonormalize"),
            pytest.param(lambda: null_space([[np.inf, 1.0]]), id="null_space"),
            pytest.param(lambda: from_graph_basis(1, 1, [[np.inf, 1.0]]), id="from_graph_basis"),
            pytest.param(lambda: psd_sqrt([[np.inf, 0.0], [0.0, 1.0]]), id="psd_sqrt"),
        ],
    )
    def test_inf_entry_is_refused(self, call):
        with pytest.raises(ValueError, match="matrix must be finite"):
            call()


class TestCoset:
    def test_membership(self):
        c = Coset.of(np.array([1.0, 0.0]), orthonormalize([e(2, 1)]))
        assert c.contains(np.array([1.0, 5.0]))
        assert not c.contains(np.array([2.0, 0.0]))

    def test_empty_is_a_value(self):
        c = Coset.empty(2)
        assert c.is_empty and not c.contains(np.zeros(2))

    def test_min_norm_point(self):
        c = Coset.of(np.array([1.0, 7.0]), orthonormalize([e(2, 1)]))
        assert np.allclose(c.min_norm_point(), [1.0, 0.0])

    def test_equality_ignores_representative(self):
        line = orthonormalize([e(2, 1)])
        a = Coset.of(np.array([1.0, 0.0]), line)
        b = Coset.of(np.array([1.0, 3.0]), line)
        assert a.equals(b)
        assert not a.equals(Coset.of(np.array([0.0, 0.0]), line))
        assert not a.equals(Coset.empty(2))


class TestSubspaceInvariants:
    def test_basis_is_readonly(self):
        s = orthonormalize([e(2, 0)])
        with pytest.raises(ValueError):
            s.basis[0, 0] = 5.0

    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(ValueError):
            Subspace(np.array([[1.0], [1.0]]))

    def test_too_many_columns_rejected(self):
        with pytest.raises(ValueError):
            Subspace(np.ones((2, 3)), validate=False)
