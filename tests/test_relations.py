"""Relation calculus: constructors, parts, the algebra, and its identities."""

import warnings

import numpy as np
import pytest

from relcalc import (
    Coset,
    DimensionMismatchError,
    LinearRelation,
    Tolerance,
    adjoint,
    apply,
    apply_to_coset,
    as_matrix,
    compose,
    cw_sum,
    from_graph_basis,
    full_space,
    graph_of_matrix,
    identity_minus,
    identity_on,
    image,
    invert,
    is_operator,
    make_pmn,
    op_sum,
    orthonormalize,
    parts,
    product_of_subspaces,
    relation_contains,
    relation_equals,
    restrict,
    scale,
    subspace_complement,
    subspace_contains,
    subspace_equals,
    subspace_intersect,
    subspace_sum,
    zero_on,
    zero_space,
)
from relcalc import oracles

from genutil import (
    cmat,
    coset_gap,
    cvec,
    loosely_orthonormal_relation,
    projector_dist,
    random_relation,
    random_unitary,
    random_subspace,
    relation_near_output_axis,
    relation_with_ker_and_mul,
)


def rngs(base, count=30):
    return [np.random.default_rng(base + i) for i in range(count)]


class TestConstructors:
    def test_identity_matrix_graph(self):
        t = graph_of_matrix(np.eye(2))
        p = parts(t)
        assert p.dom.dim == 2 and p.ran.dim == 2 and p.ker.dim == 0 and p.mul.dim == 0

    def test_zero_on_full_space(self):
        t = zero_on(full_space(2))
        p = parts(t)
        assert p.dom.dim == 2 and p.ran.dim == 0

    def test_product_of_subspaces_parts(self):
        t = product_of_subspaces(zero_space(2), orthonormalize([np.array([1.0, 0.0])]))
        p = parts(t)
        assert p.dom.dim == 0 and p.mul.dim == 1


def _matrix_with_placed_values(rng):
    """An m x n matrix, m and n in 1..8, whose top singular value is drawn
    from 10^U(-3, 12) and whose smallest ones sit at 1e-11, 1e-10 or 1e-9
    of it, around the rank cutoffs."""
    m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    k = min(m, n)
    top = 10 ** rng.uniform(-3, 12)
    s = top * 10 ** rng.uniform(-3, 0, size=k)
    s[0] = top
    placed = int(rng.integers(0, k))
    s[k - placed :] = top * rng.choice([1e-11, 1e-10, 1e-9], size=placed)
    return random_unitary(rng, m)[:, :k] @ np.diag(np.sort(s)[::-1]) @ random_unitary(rng, n)[:, :k].conj().T


class TestGraphOfMatrix:
    """graph_of_matrix reads the graph and both blocks' halves of the parts
    off one SVD of M, against the span of [I; M] and its block SVDs."""

    FIELDS = ("dom", "ran", "ker", "mul")

    def _against_the_stacked_route(self, matrix, tol, fields=FIELDS):
        m, n = matrix.shape
        new = graph_of_matrix(matrix, tol)
        old = from_graph_basis(n, m, np.vstack([np.eye(n), matrix]), tol)
        a, b = parts(new, tol), parts(old, tol)
        pairs = [(new.graph, old.graph)] + [(getattr(a, f), getattr(b, f)) for f in fields]
        assert [x.dim for x, _ in pairs] == [y.dim for _, y in pairs]
        return max(projector_dist(x, y) for x, y in pairs)

    @staticmethod
    def _assert_an_operator(t, tols):
        # graph dim n, dom = C^n and mul = {0}, whatever the tolerance
        for tol in tols:
            p = parts(t, tol)
            assert t.graph.dim == p.dom.dim == t.dim_in and p.mul.dim == 0

    @staticmethod
    def _graph_residual(t, matrix):
        # how far the columns of [I; M] leave the graph, each over its norm
        # (scaled by its largest entry first, whose square may overflow)
        stacked = np.vstack([np.eye(t.dim_in), matrix])
        stacked /= np.abs(stacked).max(axis=0)
        stacked /= np.linalg.norm(stacked, axis=0)
        off = stacked - t.graph.basis @ (t.graph.basis.conj().T @ stacked)
        return float(np.linalg.norm(off, axis=0).max(initial=0.0))

    @pytest.mark.parametrize("tol", [None, Tolerance(1e-6)], ids=["default", "1e-6"])
    def test_agrees_with_the_stacked_route(self, tol):
        # the stacked route's graph drops the directions of small sigma once
        # sigma_max nears 1e11 (13 of these 300), where the graph of M still
        # has all n, and its dom and mul read the units of M (its input
        # block's values 1 / sigma fall under the 1e-10 cutoff for sigma past
        # 1e10).  Where its graph is whole, graph, ran and ker agree up to
        # its rounding against the separation of the values around a cutoff
        # (worst 1.4e-5).  On all 300, ran and ker agree with a fresh
        # factorization of the relation's own output block (worst 1.3e-11),
        # dom and mul are C^n and {0}, and the graph spans [I; M]
        rng = np.random.default_rng(2300)
        worst, worst_own, compared = 0.0, 0.0, 0
        for _ in range(300):
            matrix = _matrix_with_placed_values(rng)
            m, n = matrix.shape
            t = graph_of_matrix(matrix, tol)
            if from_graph_basis(n, m, np.vstack([np.eye(n), matrix]), tol).graph.dim == n:
                worst = max(worst, self._against_the_stacked_route(matrix, tol, ("ran", "ker")))
                compared += 1
            seeded, own = parts(t, tol), parts(LinearRelation(n, m, t.graph), tol)
            for field in ("ran", "ker"):
                x, y = getattr(seeded, field), getattr(own, field)
                assert x.dim == y.dim
                worst_own = max(worst_own, projector_dist(x, y))
            self._assert_an_operator(t, [tol])
            assert self._graph_residual(t, matrix) <= 1e-12
        assert compared == 287
        assert worst <= 1e-4 and worst_own <= 1e-9

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_shapes(self, shape):
        assert self._against_the_stacked_route(np.zeros(shape), None) == 0.0

    def test_entries_near_1e200(self):
        # hypot(1, sigma) where sqrt(1 + sigma^2) would overflow: the graph
        # keeps every direction, of sigma = 0 and sigma = 1 too, and the
        # relation stays an operator
        rng = np.random.default_rng(2310)
        matrices = [1e200 * cmat(rng, 3, 5), 1e200 * cmat(rng, 5, 3), np.diag([1e200, 1.0])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for matrix in matrices:
                t = graph_of_matrix(matrix)
                self._assert_an_operator(t, [None])
                own = parts(LinearRelation(t.dim_in, t.dim_out, t.graph))
                assert projector_dist(parts(t).ran, own.ran) <= 1e-12
                assert projector_dist(parts(t).ker, own.ker) <= 1e-12
                assert self._graph_residual(t, matrix) <= 1e-12

    def test_a_large_entry_leaves_the_value_single(self):
        # F's value 1 / hypot(1, 1e11) used to fall under the 1e-10 cutoff,
        # moving e1 out of dom and into mul: T e2 was the line e2 + span(e1)
        value = apply(graph_of_matrix(np.diag([1e11, 1.0])), np.array([0.0, 1.0]))
        assert value.direction.dim == 0
        assert np.linalg.norm(value.point - [0.0, 1.0]) <= 1e-15

    @pytest.mark.parametrize("exponent", [-12, 0, 12, 100, 200])
    def test_an_operator_in_any_units(self, exponent):
        # with the cuts on hypot-derived values, every one of these matrices
        # at 1e12 had mul != 0 and dom != C^n
        rng = np.random.default_rng(2330)
        tols = [None, Tolerance(1e-6), Tolerance(1e-3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(60):
                m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
                matrix = 10.0**exponent * cmat(rng, m, n)
                t = graph_of_matrix(matrix)
                self._assert_an_operator(t, tols)
                x = cvec(rng, n)
                y = matrix / 10.0**exponent @ x
                for tol in tols:
                    value = apply(t, x, tol)
                    assert value.direction.dim == 0
                    assert np.linalg.norm(value.point / 10.0**exponent - y) <= 1e-13 * np.linalg.norm(y)

    def test_one_svd_and_none_on_read(self, svd_calls):
        rng = np.random.default_rng(2320)
        for _ in range(60):
            m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            r = int(rng.integers(0, min(m, n) + 1))
            matrix = cmat(rng, m, r) @ cmat(rng, r, n)
            for tol in (None, Tolerance(1e-6)):
                svd_calls.clear()
                t = graph_of_matrix(matrix, tol)
                assert svd_calls == ["svd"]
                p = parts(t, tol)
                fields = [getattr(p, f) for f in self.FIELDS]
                apply(t, cvec(rng, n), tol)
                apply(invert(t), cvec(rng, m), tol)
                assert svd_calls == ["svd"]
                assert t.graph.dim == n == fields[0].dim + fields[3].dim == fields[1].dim + fields[2].dim
            # at another tolerance dom, mul and apply, and the inverse's ran
            # and ker, factor nothing; ran factors the output block
            other = Tolerance(1e-3)
            parts(t, other).dom, parts(t, other).mul, apply(t, cvec(rng, n), other)
            parts(invert(t), other).ran, parts(invert(t), other).ker
            assert svd_calls == ["svd"]
            parts(t, other).ran
            assert svd_calls == ["svd"] * 2

    def test_one_rank_decision(self, monkeypatch):
        # the one cut is H's values at the tolerance: none on F or the graph
        calls = []
        rank = Tolerance.rank
        monkeypatch.setattr(Tolerance, "rank", lambda self, *args: calls.append(args) or rank(self, *args))
        rng = np.random.default_rng(2340)
        graph_of_matrix(cmat(rng, 3, 5))
        assert len(calls) == 1


class TestParts:
    def test_single_pair_graph(self):
        t = from_graph_basis(2, 2, [np.array([1.0, 0, 0, 1.0])])  # (e1, e2)
        p = parts(t)
        assert subspace_equals(p.dom, orthonormalize([np.array([1.0, 0.0])]))
        assert subspace_equals(p.ran, orthonormalize([np.array([0.0, 1.0])]))
        assert p.ker.dim == 0 and p.mul.dim == 0

    def test_purely_multivalued(self):
        t = product_of_subspaces(zero_space(2), full_space(2))
        p = parts(t)
        assert p.dom.dim == 0 and p.mul.dim == 2

    @pytest.mark.parametrize("seed", range(30))
    def test_against_nullspace_oracle(self, seed):
        # oracle: ker and mul from the graph's intersections with the axes
        rng = np.random.default_rng(400 + seed)
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        t = random_relation(rng, n, m)
        p = parts(t)
        ker_alt, mul_alt = oracles.kernel_and_mul_via_axes(t.graph.basis, n)
        assert subspace_equals(p.ker, orthonormalize(ker_alt, ambient_dim=n))
        assert subspace_equals(p.mul, orthonormalize(mul_alt, ambient_dim=m))
        assert t.graph.dim == p.dom.dim + p.mul.dim
        assert t.graph.dim == p.ran.dim + p.ker.dim

    @pytest.mark.parametrize("seed", range(1000))
    def test_kernel_and_mul_with_a_near_kernel_pair(self, seed):
        # x' lies 1e-6 off the kernel: both routes keep it out
        rng = np.random.default_rng(430 + seed)
        n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        t = relation_with_ker_and_mul(rng, n, m)
        p = parts(t)
        ker_alt, mul_alt = oracles.kernel_and_mul_via_axes(t.graph.basis, n)
        assert p.ker.dim == ker_alt.shape[1] >= 1 and p.mul.dim == mul_alt.shape[1] >= 1
        # the kernel and the multivalued part are fixed only to about
        # eps / sigma_gap, the smallest singular value the cuts of the two
        # graph blocks keep (about the tilt of the near pair): the worst
        # ratio of the gap to eps (n + m) / sigma_gap over these 1000 seeds
        # is 1.3
        tol = Tolerance()
        sigma_gap = min(
            s[: tol.rank(s, block.shape)].min()
            for block in (t.in_block, t.out_block)
            for s in [np.linalg.svd(block, compute_uv=False)]
        )
        bound = 10 * np.finfo(float).eps * (n + m) / sigma_gap
        assert projector_dist(p.ker, orthonormalize(ker_alt, ambient_dim=n)) <= bound
        assert projector_dist(p.mul, orthonormalize(mul_alt, ambient_dim=m)) <= bound
        # while the pairs (k, 0) and (0, y) of both routes lie on the graph
        graph = t.graph.projector()
        for k in (p.ker.basis, ker_alt):
            pairs = np.vstack([k, np.zeros((m, k.shape[1]))])
            assert np.linalg.norm(pairs - graph @ pairs, axis=0).max() <= 1e-13
        for y in (p.mul.basis, mul_alt):
            pairs = np.vstack([np.zeros((n, y.shape[1])), y])
            assert np.linalg.norm(pairs - graph @ pairs, axis=0).max() <= 1e-13
        assert t.graph.dim == p.dom.dim + p.mul.dim == p.ran.dim + p.ker.dim

    def test_cache_is_per_tolerance(self):
        t = relation_with_ker_and_mul(np.random.default_rng(460), 3, 3)
        default, coarse = parts(t), parts(t, Tolerance(abs_eps=1e-3))
        for name in ("dom", "ran", "ker", "mul"):
            field = getattr(default, name)
            assert getattr(parts(t, Tolerance()), name) is field is getattr(parts(t, None), name)
            assert getattr(parts(t, Tolerance(abs_eps=1e-3)), name) is getattr(coarse, name)
            assert getattr(coarse, name) is not field
        # at 1e-3 the tilted pair counts as a kernel direction
        assert coarse.ker.dim == default.ker.dim + 1

    def test_axis_oracle_factors_the_graph_complement_once(self, svd_calls):
        # the write-heavy relation of the CLI benchmark, rank 24 of 48: the
        # oracle shares the graph's complement between its two de Morgan
        # intersections (7 SVDs when each intersection made its own) and
        # returns what the two full intersections give, bit for bit
        rng = np.random.default_rng(470)
        n = 48
        graph = graph_of_matrix(cmat(rng, n, n // 2) @ cmat(rng, n // 2, n)).graph.basis
        del svd_calls[:]
        ker, mul = oracles.kernel_and_mul_via_axes(graph, n, 1e-10)
        assert svd_calls == ["svd"] * 6
        axes = np.eye(2 * n, dtype=complex)
        ker_pairs = oracles.intersect_de_morgan(graph, axes[:, :n], 1e-10)
        mul_pairs = oracles.intersect_de_morgan(graph, axes[:, n:], 1e-10)
        assert np.array_equal(ker, oracles._span_basis(ker_pairs[:n], 1e-10))
        assert np.array_equal(mul, oracles._span_basis(mul_pairs[n:], 1e-10))
        assert (ker.shape, mul.shape) == ((n, n // 2), (n, 0))


def _sizes(rng):
    return int(rng.integers(1, 6)), int(rng.integers(1, 6))


def _edge_relation(family, rng):
    n, m = _sizes(rng)
    if family == "empty input":
        return LinearRelation(0, m, random_subspace(rng, m))
    if family == "empty output":
        return LinearRelation(n, 0, random_subspace(rng, n))
    if family == "zero graph":
        return LinearRelation(n, m, zero_space(n + m))
    if family == "whole space":
        return LinearRelation(n, m, full_space(n + m))
    if family == "1e-11 off the output axis":
        return relation_near_output_axis(rng, n, m, 1e-11)
    if family == "1e-9 off the output axis":
        return relation_near_output_axis(rng, n, m, 1e-9)
    return loosely_orthonormal_relation(rng, n + 1, m + 1)


class TestPartsEdgeShapes:
    """parts on empty blocks, trivial graphs, pairs just under and just over
    the rank cutoff from the output axis (abs_eps = 1e-10), and a graph basis
    whose Gram matrix is about 1e-9 off: each relation plain, inverted after
    its parts are cached, and inverted twice, against the raw-numpy
    graph-and-axis route."""

    FAMILIES = [
        "empty input",
        "empty output",
        "zero graph",
        "whole space",
        "1e-11 off the output axis",
        "1e-9 off the output axis",
        "Gram matrix 1e-9 off",
    ]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_against_the_axes_oracle(self, family):
        rng = np.random.default_rng(2200 + self.FAMILIES.index(family))
        worst = 0.0
        for _ in range(60):
            t = _edge_relation(family, rng)
            parts(t)
            for form in (t, invert(t), invert(invert(t))):
                p = parts(form)
                ker, mul = oracles.kernel_and_mul_via_axes(form.graph.basis, form.dim_in)
                assert (p.ker.dim, p.mul.dim) == (ker.shape[1], mul.shape[1])
                assert form.graph.dim == p.dom.dim + p.mul.dim == p.ran.dim + p.ker.dim
                worst = max(worst, _basis_dist(p.ker.basis, ker), _basis_dist(p.mul.basis, mul))
        assert worst <= 1e-9

    def test_near_axis_pair_is_decided_at_the_cutoff(self):
        rng = np.random.default_rng(2210)
        under = relation_near_output_axis(rng, 3, 4, 1e-11)
        over = relation_near_output_axis(rng, 3, 4, 1e-9)
        assert parts(under).mul.dim == 1 and parts(over).mul.dim == 0
        assert parts(invert(under)).ker.dim == 1 and parts(invert(over)).ker.dim == 0

    @pytest.mark.parametrize("seed", range(10))
    def test_loose_graph_parts_are_orthonormal(self, seed):
        p = parts(loosely_orthonormal_relation(np.random.default_rng(2220 + seed), 4, 3))
        for s in (p.dom, p.ran, p.ker, p.mul):
            assert np.allclose(s.basis.conj().T @ s.basis, np.eye(s.dim), atol=1e-13)


class TestInvert:
    def test_matrix_inverse(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert relation_equals(invert(graph_of_matrix(a)), graph_of_matrix(np.linalg.inv(a)))

    def test_zero_on_inverts_to_mul(self):
        m = random_subspace(np.random.default_rng(3), 4, 2)
        t = invert(zero_on(m))
        assert subspace_equals(parts(t).mul, m)

    @pytest.mark.parametrize("seed", range(10))
    def test_involution(self, seed):
        rng = np.random.default_rng(500 + seed)
        t = random_relation(rng, 3, 4)
        assert relation_equals(invert(invert(t)), t)


class TestAdjoint:
    def test_matrix_adjoint(self):
        rng = np.random.default_rng(0)
        a = cmat(rng, 3, 2)
        assert relation_equals(adjoint(graph_of_matrix(a)), graph_of_matrix(a.conj().T))

    def test_mul_of_adjoint_is_domain_complement(self):
        t = product_of_subspaces(zero_space(2), full_space(2))
        ts = parts(adjoint(t))
        assert ts.dom.dim == 0 and ts.mul.dim == 2

    @pytest.mark.parametrize("seed", range(20))
    def test_double_adjoint_and_part_complements(self, seed):
        rng = np.random.default_rng(600 + seed)
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        t = random_relation(rng, n, m)
        ts = adjoint(t)
        assert relation_equals(adjoint(ts), t)
        p, ps = parts(t), parts(ts)
        assert subspace_equals(ps.mul, subspace_complement(p.dom))
        assert subspace_equals(ps.ker, subspace_complement(p.ran))


class TestCompose:
    def test_matrix_product(self):
        rng = np.random.default_rng(1)
        a, b = cmat(rng, 3, 3), cmat(rng, 3, 3)
        assert relation_equals(
            compose(graph_of_matrix(b), graph_of_matrix(a)), graph_of_matrix(b @ a)
        )

    def test_zero_after_anything(self):
        rng = np.random.default_rng(2)
        t = random_relation(rng, 3, 4)
        zero = zero_on(full_space(4))
        composed = compose(zero, t)
        p = parts(composed)
        assert subspace_equals(p.dom, parts(t).dom)
        assert p.ran.dim == 0

    @pytest.mark.parametrize("seed", range(30))
    def test_range_and_mul_propagation(self, seed):
        rng = np.random.default_rng(700 + seed)
        n, k, m = (int(rng.integers(1, 6)) for _ in range(3))
        t = random_relation(rng, n, k)
        r = random_relation(rng, k, m)
        rt = compose(r, t)
        p = parts(rt)
        assert subspace_equals(p.ran, image(r, parts(t).ran))
        assert subspace_equals(p.mul, image(r, parts(t).mul))

    def test_inner_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            compose(graph_of_matrix(np.eye(2)), graph_of_matrix(np.eye(3)))


class TestSums:
    def test_matrix_sum(self):
        rng = np.random.default_rng(4)
        a, b = cmat(rng, 3, 3), cmat(rng, 3, 3)
        assert relation_equals(
            op_sum(graph_of_matrix(a), graph_of_matrix(b)), graph_of_matrix(a + b)
        )

    def test_zero_is_additive_identity_on_domain(self):
        rng = np.random.default_rng(5)
        t = random_relation(rng, 3, 3)
        zero = zero_on(parts(t).dom)
        assert relation_equals(op_sum(t, zero), t)

    @pytest.mark.parametrize("seed", range(20))
    def test_operator_sum_part_identities(self, seed):
        rng = np.random.default_rng(800 + seed)
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        t, s = random_relation(rng, n, m), random_relation(rng, n, m)
        total = op_sum(t, s)
        p = parts(total)
        assert subspace_equals(p.dom, subspace_intersect(parts(t).dom, parts(s).dom))
        assert subspace_equals(p.mul, subspace_sum(parts(t).mul, parts(s).mul))

    def test_componentwise_sum_builds_projection(self):
        rng = np.random.default_rng(6)
        m, n = random_subspace(rng, 4, 2), random_subspace(rng, 4, 1)
        assert relation_equals(cw_sum(identity_on(m), zero_on(n)), make_pmn(m, n))

    def test_componentwise_idempotent(self):
        rng = np.random.default_rng(7)
        t = random_relation(rng, 3, 3)
        assert relation_equals(cw_sum(t, t), t)

    @pytest.mark.parametrize("seed", range(10))
    def test_componentwise_parts(self, seed):
        rng = np.random.default_rng(900 + seed)
        t, s = random_relation(rng, 4, 3), random_relation(rng, 4, 3)
        both = cw_sum(t, s)
        assert subspace_equals(parts(both).dom, subspace_sum(parts(t).dom, parts(s).dom))
        assert subspace_equals(parts(both).ran, subspace_sum(parts(t).ran, parts(s).ran))


class TestRestrict:
    def test_full_restriction_is_identity(self):
        rng = np.random.default_rng(8)
        a = cmat(rng, 3, 3)
        t = graph_of_matrix(a)
        assert relation_equals(restrict(t, full_space(3)).relation, t)

    def test_restriction_to_zero(self):
        rng = np.random.default_rng(9)
        t = random_relation(rng, 3, 3)
        restricted = restrict(t, zero_space(3)).relation
        assert subspace_equals(parts(restricted).mul, parts(t).mul)
        assert parts(restricted).dom.dim == 0

    @pytest.mark.parametrize("seed", range(20))
    def test_product_restriction_identity(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n, k, m = (int(rng.integers(1, 6)) for _ in range(3))
        t = random_relation(rng, n, k)
        s = random_relation(rng, k, m)
        sub = random_subspace(rng, n)
        lhs = restrict(compose(s, t), sub).relation
        rhs = compose(s, restrict(t, sub).relation)
        assert relation_equals(lhs, rhs)


class TestApply:
    def test_matrix_application(self):
        rng = np.random.default_rng(10)
        a = cmat(rng, 3, 3)
        x = cvec(rng, 3)
        c = apply(graph_of_matrix(a), x)
        assert np.linalg.norm(c.point - a @ x) < 1e-10 and c.direction.dim == 0

    def test_product_relation_application(self):
        m = orthonormalize([np.array([1.0, 0.0])])
        n = orthonormalize([np.array([0.0, 1.0])])
        c = apply(product_of_subspaces(m, n), np.array([2.0, 0.0]))
        assert np.allclose(c.point - c.direction.project(c.point), 0)
        assert subspace_equals(c.direction, n)

    def test_outside_domain_is_empty(self):
        t = zero_on(orthonormalize([np.array([1.0, 0.0])]))
        assert apply(t, np.array([0.0, 1.0])).is_empty

    @pytest.mark.parametrize("seed", range(20))
    def test_returned_point_is_graph_consistent(self, seed):
        rng = np.random.default_rng(1100 + seed)
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        t = random_relation(rng, n, m)
        dom = parts(t).dom
        if dom.dim == 0:
            return
        x = dom.basis @ cvec(rng, dom.dim)
        c = apply(t, x)
        assert not c.is_empty
        pair = np.concatenate([x, c.point])
        resid = pair - t.graph.project(pair)
        assert np.linalg.norm(resid) < 1e-9 * max(1.0, np.linalg.norm(pair))

    @pytest.mark.parametrize("tilt", [1e-11, 1e-9])
    @pytest.mark.parametrize("seed", range(20))
    def test_value_near_the_output_axis(self, tilt, seed):
        # under the cutoff the near pair's input is outside dom T; over it,
        # a value is 1 / tilt large and must still lie on the graph
        rng = np.random.default_rng(1120 + seed)
        t = relation_near_output_axis(rng, *_sizes(rng), tilt)
        for form in (t, invert(t)):
            p = parts(form)
            x = p.dom.basis @ cvec(rng, p.dom.dim)
            c = apply(form, x)
            pair = np.concatenate([x, c.point])
            assert np.linalg.norm(pair - form.graph.project(pair)) <= 1e-12 * np.linalg.norm(pair)
            assert c.direction is p.mul
            if p.dom.dim < form.dim_in:
                off = cvec(rng, form.dim_in)
                assert apply(form, off - p.dom.project(off)).is_empty


class TestApplyToCoset:
    def test_affine_image_of_line(self):
        a = np.diag([1.0, 0.0])
        t = graph_of_matrix(a)
        c = Coset.of(np.array([1.0, 0.0]), orthonormalize([np.array([0.0, 1.0])]))
        out = apply_to_coset(t, c)
        assert np.allclose(out.point, [1.0, 0.0]) and out.direction.dim == 0

    def test_empty_in_empty_out(self):
        t = graph_of_matrix(np.eye(2))
        assert apply_to_coset(t, Coset.empty(2)).is_empty

    def test_infeasible_coset(self):
        t = zero_on(orthonormalize([np.array([1.0, 0.0, 0.0])]))
        c = Coset.of(np.array([0.0, 1.0, 0.0]), orthonormalize([np.array([0.0, 0.0, 1.0])]))
        assert apply_to_coset(t, c).is_empty

    def test_partially_feasible_coset(self):
        t = zero_on(orthonormalize([np.array([1.0, 0.0, 0.0])]))
        c = Coset.of(np.array([0.0, 1.0, 0.0]), orthonormalize([np.eye(3)[0], np.eye(3)[1]]))
        out = apply_to_coset(t, c)
        assert not out.is_empty and np.allclose(out.point, 0)

    @pytest.mark.parametrize("seed", range(10))
    def test_keeps_what_the_relation_shrinks_beside_what_it_stretches(self, seed):
        # singular values from 1e-6 to 1e6: the image of the whole space is
        # ran T.  The image is cut on unit graph vectors; a cut relative to
        # the largest image vector would drop the directions T (or its
        # inverse) shrinks beside the ones it stretches
        rng = np.random.default_rng(12100 + seed)
        n = int(rng.integers(2, 7))
        sigma = np.geomspace(1e-6, 1e6, n)
        t = graph_of_matrix(random_unitary(rng, n) @ np.diag(sigma) @ random_unitary(rng, n))
        for form in (t, invert(t)):
            out = apply_to_coset(form, Coset.of(cvec(rng, n), full_space(n)))
            assert out.direction.dim == parts(form).ran.dim == n

    @pytest.mark.parametrize(
        "family,bound", [(random_relation, 1e-9), (relation_with_ker_and_mul, 1e-7)]
    )
    def test_against_the_intersection_route(self, family, bound):
        # one SVD of the off-dom part of the directions gives the shift into
        # dom T and the feasible directions; the route it replaced shifted
        # the point by lstsq at numpy's cutoff and intersected the
        # directions with dom T in a separate SVD.  relation_with_ker_and_mul
        # has a 1e-6 singular value, so its images are fixed only to about
        # eps / 1e-6
        rng = np.random.default_rng(12000 + (family is relation_with_ker_and_mul))
        worst, nonempty = 0.0, 0
        for i in range(2000):
            n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            t = family(rng, n, m)
            dom = parts(t).dom
            direction = random_subspace(rng, n, dim=int(rng.integers(1, n + 1)))
            # generic points, and points of dom T moved along the directions
            point = cvec(rng, n)
            if i % 2:
                point = dom.basis @ cvec(rng, dom.dim) + direction.basis @ cvec(rng, direction.dim)
            c = Coset.of(point, direction)
            got, old = apply_to_coset(t, c), _apply_to_coset_by_intersection(t, c)
            assert got.is_empty == old.is_empty
            if old.is_empty:
                continue
            nonempty += 1
            assert got.direction.dim == old.direction.dim
            worst = max(worst, coset_gap(got, old))
        assert worst <= bound
        assert 0 < nonempty < 2000


def _apply_to_coset_by_intersection(t, c):
    """The image of a coset by its former route: a least-squares shift of
    the point into dom T at numpy's lstsq cutoff, then the image of the
    directions' intersection with dom T through ``restrict``."""
    dom = parts(t).dom
    proj = dom.projector()
    shift, *_ = np.linalg.lstsq(
        c.direction.basis - proj @ c.direction.basis, proj @ c.point - c.point, rcond=None
    )
    value = apply(t, c.point + c.direction.basis @ shift)
    if value.is_empty:
        return value
    return Coset.of(value.point, image(t, subspace_intersect(c.direction, dom)))


def _basis_dist(a, b):
    return float(np.linalg.norm(a @ a.conj().T - b @ b.conj().T))


def _cylinder_gap(op, family, rng):
    """Projector distance between the library's result and the raw-numpy
    cylinder-intersection route on one random instance."""
    n, k, m = (int(rng.integers(2, 7)) for _ in range(3))
    if op == "compose":
        t, r = family(rng, n, k), family(rng, k, m)
        oracle = oracles.compose_by_cylinders(r.graph.basis, t.graph.basis, n)
        return _basis_dist(compose(r, t).graph.basis, oracle)
    if op == "op_sum":
        t, s = family(rng, n, m), family(rng, n, m)
        oracle = oracles.op_sum_by_cylinders(t.graph.basis, s.graph.basis, n)
        return _basis_dist(op_sum(t, s).graph.basis, oracle)
    if op == "restrict":
        t, sub = family(rng, n, m), random_subspace(rng, n)
        got = restrict(t, sub)
        graph, img = oracles.restrict_by_cylinders(t.graph.basis, n, sub.basis)
        return max(
            _basis_dist(got.relation.graph.basis, graph), _basis_dist(got.image.basis, img)
        )
    # I - T as the operator sum of the identity and -T
    t = family(rng, n, n)
    eye = np.vstack([np.eye(n), np.eye(n)]) / np.sqrt(2.0)
    minus_t = np.vstack([t.in_block, -t.out_block])
    oracle = oracles.op_sum_by_cylinders(eye, minus_t, n)
    return _basis_dist(identity_minus(t).graph.basis, oracle)


class TestCalculusAgainstCylinders:
    """compose, op_sum, restrict and identity_minus against the raw-numpy
    intersections of zero-padded cylinders; a wrong rank reads >= 1."""

    OPS = ["compose", "op_sum", "restrict", "identity_minus"]

    @pytest.mark.parametrize("op", OPS)
    def test_random_relations(self, op):
        rng = np.random.default_rng(2000 + self.OPS.index(op))
        assert max(_cylinder_gap(op, random_relation, rng) for _ in range(300)) <= 1e-9

    @pytest.mark.parametrize("op", OPS)
    def test_relations_with_a_near_kernel_pair(self, op):
        # the graphs hold a pair 1e-6 off the input axis, so some principal
        # angles are small but far above the cut; both routes must keep them
        rng = np.random.default_rng(2100 + self.OPS.index(op))
        assert max(_cylinder_gap(op, relation_with_ker_and_mul, rng) for _ in range(300)) <= 1e-7


class TestEqualityCriterion:
    @pytest.mark.parametrize("seed", range(30))
    def test_equality_criterion(self, seed):
        # S = T iff S <= T with dom T <= dom S and mul T <= mul S
        rng = np.random.default_rng(1200 + seed)
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        t = random_relation(rng, n, m)
        if t.graph.dim and rng.random() < 0.6:
            s = from_graph_basis(n, m, t.graph.basis[:, : t.graph.dim - 1])
        else:
            s = t
        lhs = relation_equals(s, t)
        rhs = (
            relation_contains(t, s)
            and subspace_contains(parts(s).dom, parts(t).dom)
            and subspace_contains(parts(s).mul, parts(t).mul)
        )
        assert lhs == rhs


class TestAdjointProduct:
    @pytest.mark.parametrize("seed", range(20))
    def test_containment_and_matrix_equality(self, seed):
        rng = np.random.default_rng(1300 + seed)
        n, k, m = (int(rng.integers(1, 5)) for _ in range(3))
        t = random_relation(rng, n, k)
        r = random_relation(rng, k, m)
        lhs = compose(adjoint(t), adjoint(r))
        rhs = adjoint(compose(r, t))
        assert relation_contains(rhs, lhs)
        r_op = graph_of_matrix(cmat(rng, m, k))
        lhs_op = compose(adjoint(t), adjoint(r_op))
        rhs_op = adjoint(compose(r_op, t))
        assert relation_equals(lhs_op, rhs_op)


class TestMisc:
    def test_scale_by_zero_collapses(self):
        rng = np.random.default_rng(12)
        t = random_relation(rng, 3, 3)
        z = scale(t, 0.0)
        assert parts(z).ran.dim == 0
        assert subspace_equals(parts(z).dom, parts(t).dom)

    def test_as_matrix_roundtrip(self):
        rng = np.random.default_rng(13)
        a = cmat(rng, 4, 4)
        assert np.linalg.norm(as_matrix(graph_of_matrix(a)) - a) < 1e-10
        assert is_operator(graph_of_matrix(a))
        with pytest.raises(ValueError):
            as_matrix(product_of_subspaces(zero_space(2), full_space(2)))
