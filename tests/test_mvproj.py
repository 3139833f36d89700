"""Multivalued projections: construction, taxonomy, block representations."""

import numpy as np
import pytest

import relcalc.mvproj
from relcalc import (
    BlockRep,
    ConsistencyError,
    NotRepresentableError,
    Tolerance,
    adjoint,
    apply,
    assemble_representation,
    build_super,
    canonical_blocks,
    classify,
    coefficient_x,
    compose,
    cw_sum,
    decompose,
    from_graph_basis,
    full_space,
    graph_of_matrix,
    identity_minus,
    identity_on,
    image,
    invert,
    make_pmn,
    op_sum,
    orthonormalize,
    parts,
    product_of_subspaces,
    relation_contains,
    relation_equals,
    representable,
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
from relcalc.mvproj import _fixed_points, _generated_super

from genutil import (
    cmat,
    cvec,
    graph_dist,
    projector_dist,
    random_mv_projection,
    random_relation,
    random_representable,
    random_subspace,
    subspace_of,
)

E1 = orthonormalize([np.array([1.0, 0.0])])
E2 = orthonormalize([np.array([0.0, 1.0])])
DIAG = orthonormalize([np.array([1.0, 1.0])])


class TestMakePmn:
    def test_orthogonal_case_is_projector_graph(self):
        p = make_pmn(E1, E2)
        assert relation_equals(p, graph_of_matrix(np.diag([1.0, 0.0])))

    def test_coincident_range_and_kernel(self):
        p = make_pmn(E1, E1)
        q = parts(p)
        assert subspace_equals(q.dom, E1) and subspace_equals(q.mul, E1)

    def test_oblique_application(self):
        # solving e2 = m + n with m on the diagonal, n on the first axis
        # gives m = (1, 1); frozen from the 2x2 linear system
        c = apply(make_pmn(DIAG, E1), np.array([0.0, 1.0]))
        assert not c.is_empty and c.direction.dim == 0
        assert np.allclose(c.point, [1.0, 1.0])

    @pytest.mark.parametrize("seed", range(20))
    def test_projection_identities(self, seed):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(2, 7))
        p, m, k = random_mv_projection(rng, n)
        q = parts(p)
        assert relation_equals(compose(p, p), p)
        assert subspace_equals(q.dom, subspace_sum(m, k))
        assert subspace_equals(q.mul, subspace_intersect(m, k))
        assert subspace_equals(q.ran, m)
        # reconstruction from range and kernel alone
        rebuilt = cw_sum(identity_on(q.ran), product_of_subspaces(q.ker, zero_space(n)))
        assert relation_equals(rebuilt, p)
        # adjoint swaps and complements range and kernel
        assert relation_equals(
            adjoint(p), make_pmn(subspace_complement(k), subspace_complement(m))
        )

    @pytest.mark.parametrize("seed", range(15))
    def test_factorization_through_overlap(self, seed):
        rng = np.random.default_rng(2100 + seed)
        n = int(rng.integers(2, 7))
        p, m, k = random_mv_projection(rng, n)
        first = make_pmn(m, subspace_intersect(m, k))
        assert relation_equals(compose(first, p), p)


class TestClassify:
    def test_everything_relation(self):
        e = product_of_subspaces(full_space(2), full_space(2))
        c = classify(e)
        assert c.is_idempotent and c.is_mvproj

    def test_idempotent_operator(self):
        c = classify(graph_of_matrix(np.array([[1.0, 1.0], [0.0, 0.0]])))
        assert c.is_idempotent and c.is_mvproj

    def test_super_idempotent_with_canonical_data(self):
        e = cw_sum(identity_on(E1), product_of_subspaces(zero_space(2), E2))
        c = classify(e)
        assert c.is_super and not c.is_mvproj
        m, n, s = c.canonical
        assert subspace_equals(m, E1) and n.dim == 0 and subspace_equals(s, E2)
        rebuilt = cw_sum(make_pmn(m, n), product_of_subspaces(zero_space(2), s))
        assert relation_equals(rebuilt, e)

    def test_non_idempotent(self):
        c = classify(graph_of_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])))
        assert not c.is_idempotent and c.canonical is None


class TestDecompose:
    def test_full_overlap(self):
        op_part, mul_part = decompose(make_pmn(E1, E1))
        assert subspace_equals(mul_part, E1)
        value = apply(op_part, np.array([1.0, 0.0]))
        assert np.allclose(value.point, 0) and value.direction.dim == 0

    def test_orthogonal_pair_has_no_mul(self):
        p = make_pmn(E1, E2)
        op_part, mul_part = decompose(p)
        assert mul_part.dim == 0
        assert relation_equals(op_part, p)

    @pytest.mark.parametrize("seed", range(15))
    def test_summands_reassemble_and_are_orthogonal(self, seed):
        rng = np.random.default_rng(2200 + seed)
        p, _, _ = random_mv_projection(rng, 4)
        op_part, mul_part = decompose(p)
        tail = product_of_subspaces(zero_space(4), mul_part)
        assert relation_equals(cw_sum(op_part, tail), p)
        assert parts(op_part).mul.dim == 0
        cross = op_part.graph.basis.conj().T @ tail.graph.basis
        assert np.linalg.norm(cross) < 1e-10

    def test_rejects_non_projection(self):
        with pytest.raises(ValueError):
            decompose(graph_of_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])))

    @pytest.mark.parametrize("tol", [Tolerance(), Tolerance(1e-6)], ids=["default", "1e-6"])
    def test_dimensions_on_generic_pairs(self, tol):
        # generic M and N meet in max(0, dim M + dim N - n) dimensions; the
        # operator part projects onto M minus that overlap along N
        rng = np.random.default_rng(777)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            m, k = random_subspace(rng, n), random_subspace(rng, n)
            overlap_dim = max(0, m.dim + k.dim - n)
            op_part, overlap = decompose(make_pmn(m, k, tol), tol)
            p = parts(op_part, tol)
            got = (overlap.dim, p.ran.dim, p.ker.dim, p.mul.dim)
            assert got == (overlap_dim, m.dim - overlap_dim, k.dim, 0)


class TestRepresentable:
    def test_projection_along_its_range(self):
        rng = np.random.default_rng(14)
        p, m, _ = random_mv_projection(rng, 4)
        assert representable(p, m)

    def test_skew_domain_fails(self):
        # dom T is the diagonal; its shadow on the first axis escapes it
        t = from_graph_basis(2, 2, [np.array([1.0, 1.0, 0.0, 0.0])])
        assert not representable(t, E1)

    def test_everywhere_defined_operator_always_splits(self):
        rng = np.random.default_rng(15)
        t = graph_of_matrix(cmat(rng, 3, 3))
        s = random_subspace(rng, 3, 2)
        assert representable(t, s)


class TestCanonicalBlocks:
    def test_scalar_entry_blocks(self):
        t = graph_of_matrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
        rep = canonical_blocks(t, E1)
        e1, e2 = np.eye(2)[0], np.eye(2)[1]
        assert np.allclose(apply(rep.a, e1).point, 1.0 * e1)
        assert np.allclose(apply(rep.b, e2).point, 2.0 * e1)
        assert np.allclose(apply(rep.c, e1).point, 3.0 * e2)
        assert np.allclose(apply(rep.d, e2).point, 4.0 * e2)
        assert relation_equals(rep.generate(), t)

    def test_projection_blocks_along_range(self):
        rng = np.random.default_rng(16)
        p, m, _ = random_mv_projection(rng, 4)
        rep = canonical_blocks(p, m)
        assert relation_contains(rep.a, identity_on(m))
        assert parts(rep.c).ran.dim == 0
        assert relation_equals(rep.generate(), p)

    @pytest.mark.parametrize("seed", range(20))
    def test_round_trip_on_representable_relations(self, seed):
        rng = np.random.default_rng(2300 + seed)
        n = int(rng.integers(2, 7))
        t, s = random_representable(rng, n)
        rep = canonical_blocks(t, s)
        assert relation_equals(rep.generate(), t)
        # corner structure mirrors the split of dom and mul
        p = parts(t)
        dom_meet = subspace_intersect(parts(rep.a).dom, parts(rep.c).dom)
        assert subspace_equals(dom_meet, subspace_intersect(s, p.dom))
        mul_join = subspace_sum(parts(rep.a).mul, parts(rep.b).mul)
        assert subspace_equals(mul_join, subspace_intersect(s, p.mul))

    def test_unrepresentable_raises(self):
        t = from_graph_basis(2, 2, [np.array([1.0, 1.0, 0.0, 0.0])])
        with pytest.raises(NotRepresentableError):
            canonical_blocks(t, E1)


class TestCoefficientX:
    def test_orthogonal_kernel_gives_zero(self):
        x = coefficient_x(E1, E2)
        value = apply(x, np.array([0.0, 1.0]))
        assert np.allclose(value.point, 0) and value.direction.dim == 0

    def test_oblique_kernel(self):
        # n = t(1,1) splits as (0,t) + (t,0): the coefficient sends (0,t) to (-t,0)
        x = coefficient_x(E1, DIAG)
        value = apply(x, np.array([0.0, 2.0]))
        assert np.allclose(value.point, [-2.0, 0.0])

    def test_coincident_range_and_kernel(self):
        x = coefficient_x(E1, E1)
        p = parts(x)
        assert p.dom.dim == 0 and subspace_equals(p.mul, E1)

    @pytest.mark.parametrize("seed", range(20))
    def test_parts_and_parameterization(self, seed):
        rng = np.random.default_rng(2400 + seed)
        n = int(rng.integers(2, 7))
        m, k = random_subspace(rng, n), random_subspace(rng, n)
        x = coefficient_x(m, k)
        p = parts(x)
        shadow = orthonormalize(k.basis - m.projector() @ k.basis, ambient_dim=n)
        assert subspace_equals(p.dom, shadow)
        assert subspace_equals(p.mul, subspace_intersect(m, k))
        # composing with the overlap projection changes nothing
        assert relation_equals(compose(make_pmn(m, subspace_intersect(m, k)), x), x)

    def test_matches_the_composed_form(self):
        # -P_M ((I - P_M)|_N)^(-1) through the calculus, the construction the
        # isometric graph basis replaced
        rng = np.random.default_rng(2450)
        worst = 0.0
        for _ in range(300):
            n = int(rng.integers(2, 8))
            m, k = random_subspace(rng, n), random_subspace(rng, n)
            x = coefficient_x(m, k)
            assert np.allclose(x.graph.basis.conj().T @ x.graph.basis, np.eye(k.dim), atol=1e-13)
            proj = m.projector()
            restricted = restrict(graph_of_matrix(np.eye(n) - proj), k)
            composed = compose(scale(graph_of_matrix(proj), -1.0), invert(restricted))
            worst = max(worst, graph_dist(x, composed))
        assert worst <= 1e-9


class TestAssembleRepresentation:
    def test_oblique_round_trip(self):
        rep = assemble_representation(E1, DIAG)
        assert relation_equals(rep.generate(), make_pmn(E1, DIAG))

    def test_trivial_kernel_gives_identity(self):
        rep = assemble_representation(E1, zero_space(2))
        assert relation_equals(rep.generate(), identity_on(E1))

    def test_orthogonal_pair_gives_orthogonal_projector(self):
        rep = assemble_representation(E1, E2)
        assert relation_equals(rep.generate(), graph_of_matrix(np.diag([1.0, 0.0])))
        assert parts(rep.b).ran.dim == 0

    @pytest.mark.parametrize("seed", range(20))
    def test_random_round_trip(self, seed):
        rng = np.random.default_rng(2500 + seed)
        n = int(rng.integers(2, 7))
        m, k = random_subspace(rng, n), random_subspace(rng, n)
        rep = assemble_representation(m, k)
        assert relation_equals(rep.generate(), make_pmn(m, k))

    def test_matches_the_cylinder_oracle(self):
        # the route behind proj-represent --verify: the blocks regenerated by
        # cylinder intersections against the raw graph span{(m, m), (k, 0)}
        rng = np.random.default_rng(2550)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            m, k = random_subspace(rng, n), random_subspace(rng, n)
            rep = assemble_representation(m, k)
            blocks = [block.graph.basis for block in (rep.a, rep.b, rep.c, rep.d)]
            regenerated = oracles.block_graph_by_cylinders(*blocks, n, 1e-10)
            direct = oracles.pmn_graph(m.basis, k.basis, 1e-10)
            gap = regenerated @ regenerated.conj().T - direct @ direct.conj().T
            assert np.linalg.norm(gap) < 1e-9

    def test_wrong_coefficient_raises(self, monkeypatch):
        right = relcalc.mvproj.coefficient_x
        monkeypatch.setattr(
            relcalc.mvproj, "coefficient_x", lambda m, n: scale(right(m, n), 2.0)
        )
        with pytest.raises(ConsistencyError, match="regenerate"):
            assemble_representation(E1, DIAG)


class TestBuildSuper:
    def test_zero_coefficient_idempotent(self):
        x = from_graph_basis(2, 2, [])
        result = build_super(E1, E1, zero_space(2), x)
        expected = cw_sum(identity_on(E1), product_of_subspaces(zero_space(2), E1))
        assert result.is_idempotent
        assert relation_equals(result.relation, expected)

    def test_empty_s2_always_idempotent(self):
        rng = np.random.default_rng(17)
        n = 4
        m = random_subspace(rng, n, 2)
        s1 = subspace_of(rng, m, 1)
        x = _coefficient_into(rng, m)
        result = build_super(m, s1, zero_space(n), x)
        assert result.is_idempotent

    def test_escaping_image_breaks_idempotency(self):
        e1 = orthonormalize([np.eye(3)[0]])
        e2 = orthonormalize([np.eye(3)[1]])
        x = from_graph_basis(3, 3, [np.array([0, 1.0, 0, 1.0, 0, 0])])
        result = build_super(e1, zero_space(3), e2, x)
        assert not result.is_idempotent
        squared = compose(result.relation, result.relation)
        assert not relation_equals(squared, result.relation)

    def test_precondition_violations(self):
        with pytest.raises(ValueError):
            build_super(E1, E2, zero_space(2), from_graph_basis(2, 2, []))

    @pytest.mark.parametrize("seed", range(20))
    def test_canonical_reconstruction_and_parts(self, seed):
        rng = np.random.default_rng(2600 + seed)
        n = int(rng.integers(3, 7))
        m = random_subspace(rng, n, int(rng.integers(1, n)))
        m_perp = subspace_complement(m)
        s1 = subspace_of(rng, m)
        s2 = subspace_of(rng, m_perp)
        x = _coefficient_between(rng, m_perp, m)
        result = build_super(m, s1, s2, x)
        mc, nc, sc = result.canonical
        rebuilt = cw_sum(make_pmn(mc, nc), product_of_subspaces(zero_space(n), sc))
        assert relation_equals(rebuilt, result.relation)
        cls = classify(result.relation)
        assert cls.is_super
        assert cls.is_idempotent == result.is_idempotent


def _coefficient_into(rng, target):
    """Random relation into `target` defined on its complement."""
    return _coefficient_between(rng, subspace_complement(target), target)


def _coefficient_between(rng, source, target):
    n = source.ambient_dim
    pairs = []
    for _ in range(int(rng.integers(0, max(source.dim, 1) + 1))):
        u = source.basis @ cvec(rng, source.dim) if source.dim else np.zeros(n, dtype=complex)
        v = target.basis @ cvec(rng, target.dim) if target.dim else np.zeros(n, dtype=complex)
        pairs.append(np.concatenate([u, v]))
    if rng.random() < 0.3 and target.dim:
        # a purely multivalued column keeps mul x exercised
        v = target.basis @ cvec(rng, target.dim)
        pairs.append(np.concatenate([np.zeros(n, dtype=complex), v]))
    return from_graph_basis(n, n, pairs)


class TestSuperIdempotentParts:
    @pytest.mark.parametrize("seed", range(15))
    def test_part_formulas(self, seed):
        rng = np.random.default_rng(2700 + seed)
        n = int(rng.integers(2, 7))
        m, k, s = (random_subspace(rng, n) for _ in range(3))
        t = cw_sum(make_pmn(m, k), product_of_subspaces(zero_space(n), s))
        p = parts(t)
        assert subspace_equals(p.dom, subspace_sum(m, k))
        assert subspace_equals(p.ran, subspace_sum(m, s))
        assert subspace_equals(p.ker, subspace_sum(k, subspace_intersect(m, s)))
        assert subspace_equals(p.mul, subspace_sum(s, subspace_intersect(m, k)))
        assert classify(t).is_super


def _super_instance(rng):
    """(M, S1, S2, x) from the family of acceptance criterion 4: n 2-8, S1
    inside M, S2 inside its complement, x from the complement into M, or
    into S1 for about 40% of the instances."""
    n = int(rng.integers(2, 9))
    m = random_subspace(rng, n, int(rng.integers(1, n)))
    m_perp = subspace_complement(m)
    s1, s2 = subspace_of(rng, m), subspace_of(rng, m_perp)
    target = s1 if (rng.random() < 0.4 and s1.dim) else m
    return m, s1, s2, _coefficient_between(rng, m_perp, target)


def _gap(new, old):
    """Projector distance of two subspaces of equal dimension; inf otherwise."""
    return projector_dist(new, old) if new.dim == old.dim else np.inf


CROSS_TOLS = [Tolerance(), Tolerance(abs_eps=1e-6), Tolerance(abs_eps=1e-12)]


class TestGraphBlockRoutes:
    """The corners, the generated super-idempotent and the fixed points come
    from the graph blocks; each is checked against the relation calculus
    route it replaced."""

    def test_corners_match_the_restrict_route(self):
        # P_out T|_in as the product of the projector's graph and T restricted
        rng = np.random.default_rng(15200)
        worst = 0.0
        for tol in CROSS_TOLS:
            for _ in range(500):
                t, s = random_representable(rng, int(rng.integers(2, 9)))
                rep = canonical_blocks(t, s, tol)
                s_perp = rep.co_splitter
                corners = ((rep.a, s, s), (rep.b, s_perp, s), (rep.c, s, s_perp), (rep.d, s_perp, s_perp))
                for corner, inp, out in corners:
                    route = compose(graph_of_matrix(out.projector()), restrict(t, inp, tol), tol)
                    worst = max(worst, _gap(corner.graph, route.graph))
        assert worst <= 1e-9

    def test_generated_relation_matches_the_block_route(self):
        # one span against the relation BlockRep.generate builds from two
        # operator sums and a componentwise sum of the four blocks
        rng = np.random.default_rng(15201)
        worst = 0.0
        for tol in CROSS_TOLS + [Tolerance(abs_eps=0, rel_eps=1e-9)]:
            for _ in range(1000):
                m, s1, s2, x = _super_instance(rng)
                n = m.ambient_dim
                m_perp = subspace_complement(m, tol)
                rep = BlockRep(
                    m,
                    m_perp,
                    identity_on(m),
                    cw_sum(x, product_of_subspaces(zero_space(n), s1), tol),
                    cw_sum(zero_on(m), product_of_subspaces(zero_space(n), s2), tol),
                    zero_on(m_perp),
                )
                worst = max(worst, _gap(_generated_super(m, s1, s2, x, tol).graph, rep.generate(tol).graph))
        assert worst <= 1e-9

    def test_fixed_points_match_identity_minus(self):
        # ker(I - E) against the kernel of the relation I - E, on generated
        # super-idempotents, on P(M, N) + {0} x S and on random relations
        rng = np.random.default_rng(15202)
        worst = 0.0
        for tol in CROSS_TOLS:
            for i in range(1000):
                n = int(rng.integers(2, 9))
                if i % 3 == 0:
                    e = _generated_super(*_super_instance(rng), tol)
                elif i % 3 == 1:
                    m, k, s = (random_subspace(rng, n) for _ in range(3))
                    e = cw_sum(make_pmn(m, k), product_of_subspaces(zero_space(n), s))
                else:
                    e = random_relation(rng, n, n)
                worst = max(worst, _gap(_fixed_points(e, tol), parts(identity_minus(e, tol), tol).ker))
        assert worst <= 1e-9


class TestResidualRoutes:
    """The containments build_super tests as residuals of x's graph blocks,
    and the one span of BlockRep.generate, against the normalizing routes
    they replaced, on about 300 instances each."""

    def test_criterion_matches_the_image_route(self):
        # x(S2) <= S1 + mul x on image's orthonormal basis of x(S2)
        rng = np.random.default_rng(15203)
        for i in range(300):
            tol = CROSS_TOLS[i % 3]
            m, s1, s2, x = _super_instance(rng)
            s1_mul = subspace_sum(s1, parts(x, tol).mul, tol)
            expected = subspace_contains(s1_mul, image(x, s2, tol), tol)
            assert build_super(m, s1, s2, x, tol).is_idempotent == expected

    def test_preconditions_match_the_complement_route(self):
        # the first precondition that fails, read on subspace_complement(M)
        # and on x's parts, against the ValueError build_super raises; a
        # quarter of the instances are valid, the rest break S2, dom x or
        # ran x
        rng = np.random.default_rng(15204)
        messages = ("s1 must", "s2 must", "ran x must", "dom x must")
        for i in range(300):
            tol = CROSS_TOLS[i % 3]
            m, s1, s2, x = _super_instance(rng)
            n = m.ambient_dim
            m_perp = subspace_complement(m, tol)
            if i % 4 == 1:
                s2 = random_subspace(rng, n)
            elif i % 4 == 2:
                x = _coefficient_between(rng, random_subspace(rng, n), m)
            elif i % 4 == 3:
                x = _coefficient_between(rng, m_perp, random_subspace(rng, n))
            px = parts(x, tol)
            holds = (
                subspace_contains(m, s1, tol),
                subspace_contains(m_perp, s2, tol),
                subspace_contains(m, px.ran, tol),
                subspace_contains(m_perp, px.dom, tol),
            )
            expected = next((msg for msg, ok in zip(messages, holds) if not ok), None)
            try:
                build_super(m, s1, s2, x, tol)
                raised = None
            except ValueError as err:
                raised = next(msg for msg in messages if str(err).startswith(msg))
            assert raised == expected, i

    def test_generate_matches_the_sum_route(self):
        # one span of both operator sums' pairs against cw_sum(a + c, b + d),
        # on canonical blocks and on assembled representations
        rng = np.random.default_rng(15205)
        for i in range(300):
            tol = CROSS_TOLS[i % 3]
            n = int(rng.integers(2, 9))
            if i % 2:
                rep = canonical_blocks(*random_representable(rng, n), tol)
            else:
                rep = assemble_representation(random_subspace(rng, n), random_subspace(rng, n), tol)
            route = cw_sum(op_sum(rep.a, rep.c, tol), op_sum(rep.b, rep.d, tol), tol)
            assert relation_equals(rep.generate(tol), route, tol)


class TestRankDecisionCount:
    """SVDs per call at desk scale, 300 calls each from default_rng(15100)."""

    def test_svd_calls_per_canonical_blocks(self, svd_calls):
        # representable's parts and two spans, the complement, one preimage
        # per input side and one span per corner (the projector graphs,
        # restrict and compose made a mean of 18.4 and a max of 19)
        rng = np.random.default_rng(15100)
        counts = []
        for _ in range(300):
            t, s = random_representable(rng, int(rng.integers(2, 9)))
            svd_calls.clear()
            canonical_blocks(t, s)
            counts.append(svd_calls.count("svd"))
        assert np.mean(counts) <= 10.5
        assert max(counts) <= 11

    def test_representable_leaves_the_output_block_unfactored(self, svd_calls):
        # representable reads dom T and mul T, the input block's half of the
        # parts; the output block is factored only when ran T or ker T is read
        rng = np.random.default_rng(15100)
        for _ in range(300):
            t, s = random_representable(rng, int(rng.integers(2, 9)))
            representable(t, s)
            svd_calls.clear()
            p = parts(t)
            assert p.dom.dim + p.mul.dim == t.graph.dim
            assert svd_calls == []
            assert p.ran.dim + p.ker.dim == t.graph.dim
            assert svd_calls == ["svd"] * (t.graph.dim > 0)

    def test_svd_calls_per_build_super(self, svd_calls):
        # the generated relation is one span and ker(I - E) one SVD, and
        # S1 + mul x is formed once (BlockRep.generate, identity_minus and
        # the repeated sum made a mean of 20.9 and a max of 28); the
        # preconditions and the criterion are residuals of x's graph blocks
        # and the first two canonical sums one span each (the complement,
        # parts(x).ran, image's second SVD and the two normalizing spans made
        # a mean of 13.08 and a max of 18)
        rng = np.random.default_rng(15100)
        counts = []
        for _ in range(300):
            instance = _super_instance(rng)
            svd_calls.clear()
            build_super(*instance)
            counts.append(svd_calls.count("svd"))
        assert np.mean(counts) <= 10.1
        assert max(counts) <= 13

    def test_svd_calls_per_classify(self, svd_calls):
        # E^2, the parts, one SVD for ker(I - E) and the rebuilt relation,
        # one span of its three generators (ker(I - E) as the kernel of
        # identity_minus made a mean of 7.9 and a max of 9, and the rebuild
        # as make_pmn's sum and a second sum a mean of 5.97 and a max of 7)
        rng = np.random.default_rng(15100)
        counts = []
        for _ in range(300):
            e, _, _ = random_mv_projection(rng, int(rng.integers(2, 9)))
            svd_calls.clear()
            classify(e)
            counts.append(svd_calls.count("svd"))
        assert np.mean(counts) <= 5.6
        assert max(counts) <= 6

    def test_svd_calls_per_decompose(self, svd_calls):
        # E^2, the parts, M cap N and, as the overlap lies in M, M minus the
        # overlap as M times the null space of overlap* M, then make_pmn's
        # sum (the complement of the overlap and a second intersection made
        # a mean of 6.32 and a max of 8)
        rng = np.random.default_rng(15100)
        counts = []
        for _ in range(300):
            e, _, _ = random_mv_projection(rng, int(rng.integers(2, 9)))
            svd_calls.clear()
            decompose(e)
            counts.append(svd_calls.count("svd"))
        assert np.mean(counts) <= 5.6
        assert max(counts) <= 7

    def test_svd_calls_per_generate(self, svd_calls):
        # one preimage per operator sum and one span of both sums' pairs
        # (two op_sum spans and a cw_sum span made a mean of 4.81 and a max
        # of 5)
        rng = np.random.default_rng(15100)
        counts = []
        for _ in range(300):
            rep = canonical_blocks(*random_representable(rng, int(rng.integers(2, 9))))
            svd_calls.clear()
            rep.generate()
            counts.append(svd_calls.count("svd"))
        assert np.mean(counts) <= 3
        assert max(counts) <= 3
