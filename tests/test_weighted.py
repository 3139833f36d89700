"""Weighted companions, projections, complementability, shorted operators, Krein flags."""

import functools

import numpy as np
import pytest

from relcalc import (
    ConsistencyError,
    Subspace,
    Tolerance,
    Weight,
    adjoint,
    apply,
    as_matrix,
    canonical_blocks,
    complementability,
    compose,
    full_space,
    graph_of_matrix,
    identity_minus,
    krein_classify,
    make_pmn,
    make_pws,
    matrix_image,
    null_space,
    orthonormalize,
    parts,
    psd_sqrt,
    relation_contains,
    relation_equals,
    shorted,
    subspace_complement,
    subspace_equals,
    subspace_intersect,
    subspace_sum,
    w_companion,
    zero_space,
)
from relcalc import oracles, weighted

from genutil import (
    cmat,
    cvec,
    degenerate_subspace,
    graph_dist,
    projector_dist,
    psd_with_tiny_eigenvalues,
    random_psd,
    random_selfadjoint,
    random_subspace,
    random_symmetry,
    random_unitary,
    weight_and_subspace,
)

E1 = orthonormalize([np.array([1.0, 0.0])])
E2 = orthonormalize([np.array([0.0, 1.0])])
DIAG = orthonormalize([np.array([1.0, 1.0])])


class TestWeightValidation:
    def test_rejects_non_selfadjoint(self):
        with pytest.raises(ValueError):
            Weight(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_indefinite_psd_claim(self):
        with pytest.raises(ValueError):
            Weight(np.diag([1.0, -1.0]), "psd")

    def test_rejects_non_involutive_symmetry(self):
        with pytest.raises(ValueError):
            Weight(np.diag([2.0, 1.0]), "symmetry")

    def test_borderline_psd_accepted_and_flagged(self):
        w = Weight(np.diag([1.0, -1e-13]), "psd")
        assert w.borderline

    def test_clean_psd_not_flagged(self):
        assert not Weight(np.eye(2), "psd").borderline

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Weight(np.array([[1.0, 0.0], [0.0, bad]]), "psd")

    @pytest.mark.parametrize(
        "bad,message",
        [(np.diag([1.0, -1.0]), "not positive semidefinite"), ([[0.0, 1.0], [0.0, 0.0]], "not selfadjoint")],
    )
    def test_psd_sqrt_refuses_a_matrix_that_is_not_psd(self, bad, message):
        # it returned the root of the positive part of the Hermitian part
        with pytest.raises(ValueError, match=message):
            psd_sqrt(bad)


class TestCompanion:
    def test_identity_weight_gives_complement(self):
        assert subspace_equals(w_companion(E1, Weight(np.eye(2), "psd")), E2)

    def test_kernel_direction_gives_everything(self):
        w = Weight(np.diag([1.0, 0.0]), "psd")
        assert subspace_equals(w_companion(E2, w), full_space(2))

    def test_rank_one_weight(self):
        w = Weight(np.array([[1.0, 1.0], [1.0, 1.0]]), "psd")
        expected = orthonormalize([np.array([1.0, -1.0])])
        assert subspace_equals(w_companion(E1, w), expected)

    @pytest.mark.parametrize("seed", range(20))
    def test_companion_is_image_complement(self, seed):
        rng = np.random.default_rng(3000 + seed)
        n = int(rng.integers(2, 8))
        w = Weight(random_selfadjoint(rng, n))
        s = random_subspace(rng, n)
        companion = w_companion(s, w)
        assert subspace_equals(companion, subspace_complement(matrix_image(w.matrix, s)))


class TestMakePws:
    def test_identity_weight_is_orthogonal_projection(self):
        p = make_pws(Weight(np.eye(2), "psd"), E1)
        assert relation_equals(p, graph_of_matrix(np.diag([1.0, 0.0])))

    def test_singular_weight_parts(self):
        p = make_pws(Weight(np.diag([1.0, 0.0]), "psd"), E2)
        q = parts(p)
        assert q.dom.dim == 2 and subspace_equals(q.mul, E2)

    @pytest.mark.parametrize("seed", range(20))
    def test_adjoint_formula_and_mul(self, seed):
        rng = np.random.default_rng(3100 + seed)
        n = int(rng.integers(2, 8))
        w = Weight(random_psd(rng, n), "psd")
        s = random_subspace(rng, n)
        p = make_pws(w, s)
        expected = make_pmn(matrix_image(w.matrix, s), subspace_complement(s))
        assert relation_equals(adjoint(p), expected)
        # with a psd weight the multivalued part collapses onto S cap ker W
        from relcalc import null_space, subspace_intersect

        assert subspace_equals(parts(p).mul, subspace_intersect(s, null_space(w.matrix)))

    @pytest.mark.parametrize("seed", range(20))
    def test_weighted_symmetry_containment(self, seed):
        rng = np.random.default_rng(3200 + seed)
        n = int(rng.integers(2, 7))
        w = Weight(random_selfadjoint(rng, n))
        s = random_subspace(rng, n)
        wp = compose(graph_of_matrix(w.matrix), make_pws(w, s))
        assert relation_contains(adjoint(wp), wp)


def _neutral_pair(rng, n):
    """Selfadjoint weight and subspace that are not complementable."""
    s = random_subspace(rng, n, int(rng.integers(1, n)))
    s_perp = subspace_complement(s)
    if s_perp.dim == 0:
        return None
    u = s.basis @ cvec(rng, s.dim)
    v = s_perp.basis @ cvec(rng, s_perp.dim)
    w = np.outer(u, v.conj()) + np.outer(v, u.conj())
    return Weight((w + w.conj().T) / 2), s


class TestComplementability:
    def test_neutral_diagonal_line(self):
        w = Weight(np.diag([1.0, -1.0]), "symmetry")
        report = complementability(w, DIAG)
        assert not report.is_complementable and not report.criterion_ab
        assert report.domain.dim == 1 and report.pws_blocks is None

    def test_identity_weight(self):
        report = complementability(Weight(np.eye(2), "psd"), E1)
        assert report.is_complementable and report.criterion_ab
        blocks = report.pws_blocks
        assert parts(blocks.b).ran.dim == 0  # the off-diagonal coefficient vanishes

    @pytest.mark.parametrize("seed", range(25))
    def test_psd_weights_always_complementable(self, seed):
        rng = np.random.default_rng(3300 + seed)
        n = int(rng.integers(2, 9))
        w = Weight(random_psd(rng, n), "psd")
        s = random_subspace(rng, n)
        report = complementability(w, s)
        assert report.is_complementable
        assert relation_equals(report.pws_blocks.generate(), make_pws(w, s))

    @pytest.mark.parametrize("seed", range(10))
    def test_off_diagonal_block_is_a_relation_quotient(self, seed):
        # the b-block of the projection is inv(a) b with the *relation*
        # inverse, so its multivalued part is exactly ker a
        rng = np.random.default_rng(3350 + seed)
        n = int(rng.integers(2, 7))
        w = Weight(random_psd(rng, n), "psd")
        s = random_subspace(rng, n, int(rng.integers(1, n + 1)))
        report = complementability(w, s)
        a = canonical_blocks(graph_of_matrix(w.matrix), s).a
        x = report.pws_blocks.b
        assert subspace_equals(parts(x).mul, parts(a).ker)

    def test_zero_subspace_edge(self):
        report = complementability(Weight(np.eye(3), "psd"), zero_space(3))
        assert report.is_complementable and report.domain.dim == 3

    @pytest.mark.parametrize("seed", range(15))
    def test_constructed_non_complementable(self, seed):
        rng = np.random.default_rng(3400 + seed)
        pair = _neutral_pair(rng, int(rng.integers(2, 7)))
        if pair is None:
            return
        report = complementability(*pair)
        assert not report.is_complementable

    @pytest.mark.parametrize("seed", range(15))
    def test_selfadjoint_equivalence_with_projection_identity(self, seed):
        # when complementable, W P equals P* W as relations and mul P* = {0}
        rng = np.random.default_rng(3500 + seed)
        n = int(rng.integers(2, 7))
        w = Weight(random_selfadjoint(rng, n))
        s = random_subspace(rng, n)
        report = complementability(w, s)
        p = make_pws(w, s)
        wg = graph_of_matrix(w.matrix)
        if report.is_complementable:
            assert relation_equals(compose(wg, p), compose(adjoint(p), wg))
            assert parts(adjoint(p)).mul.dim == 0


class TestComplementabilityAgainstSpan:
    def test_matches_the_span_oracle(self):
        # the oracle behind complementable --verify: complementable iff
        # S + {x : S* W x = 0} is everything, with that sum as the domain
        rng = np.random.default_rng(3600)
        flags = []
        for _ in range(400):
            w, s = weight_and_subspace(rng)
            report = complementability(Weight(w), s)
            flag, domain = oracles.complementable_by_span(w, s.basis, 1e-10)
            assert flag == report.is_complementable
            assert np.linalg.norm(report.domain.projector() - domain @ domain.conj().T) < 1e-9
            flags.append(flag)
        assert 50 <= flags.count(False) <= 350

    @pytest.mark.parametrize("delta", [1e-6, 1e-8])
    def test_a_line_close_to_the_kernel_of_w(self, delta):
        # U*W keeps its singular value delta, far above the cutoff, while the
        # corner a = U*WU is about delta^2, under it: S is complementable,
        # with mul P = 0 and P e1 = (1, 1/delta)
        w = np.diag([1.0, 0.0])
        s = orthonormalize([np.array([delta, 1.0])])
        report = complementability(Weight(w, "psd"), s)
        flag, _ = oracles.complementable_by_span(w, s.basis, 1e-10)
        assert flag and report.is_complementable and report.criterion_ab
        assert report.mul.dim == 0 and report.domain.dim == 2
        image = apply(report.pws_blocks.generate(), np.array([1.0, 0.0]))
        assert np.linalg.norm(image.point - [1.0, 1.0 / delta]) <= 1e-6 / delta

    @pytest.mark.parametrize(
        "family,mul_bound",
        # U*W keeps singular values down to the cutoff 1e-10 on the tiny-
        # eigenvalue family, where its singular vectors, and so mul, are
        # fixed only to about eps / 1e-10 = 2e-6
        [("tiny eigenvalues", 1e-5), ("rotated line near the kernel", 1e-9)],
    )
    def test_matches_the_span_oracle_near_the_cutoff(self, family, mul_bound):
        # psd weights whose eigenvalues or whose angles to S sit around the
        # default cutoff: flags and domain against the span oracle, mul
        # against S cap {x : S* W x = 0} ranked by principal angles
        rng = np.random.default_rng(4100 if family == "tiny eigenvalues" else 4200)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            if family == "tiny eigenvalues":
                w = psd_with_tiny_eigenvalues(rng, n)
                s = random_subspace(rng, n, dim=int(rng.integers(1, n + 1)))
            else:
                q = random_unitary(rng, n)
                w = (q * np.r_[np.ones(n - 1), 0.0]) @ q.conj().T
                w = (w + w.conj().T) / 2
                line = np.r_[10.0 ** rng.uniform(-9.5, -3), np.zeros(n - 2), 1.0]
                s = orthonormalize(q @ np.column_stack([line, np.eye(n)[:, 1 : int(rng.integers(1, n))]]))
            report = complementability(Weight(w, "psd"), s)
            flag, domain = oracles.complementable_by_span(w, s.basis, 1e-10)
            assert flag == report.is_complementable == report.criterion_ab
            assert np.linalg.norm(report.domain.projector() - domain @ domain.conj().T) < 1e-9
            mul = subspace_intersect(s, null_space(s.basis.conj().T @ w))
            assert mul.dim == report.mul.dim
            assert projector_dist(report.mul, mul) < mul_bound

    def test_matches_the_relation_route(self):
        # the route complementability took through the calculus: the parts
        # of make_pws, and for every kind of weight the block form must
        # regenerate make_pws
        rng = np.random.default_rng(3600)
        for _ in range(400):
            w, s = weight_and_subspace(rng)
            report = complementability(Weight(w), s)
            pws = make_pws(Weight(w), s)
            assert projector_dist(report.domain, parts(pws).dom) < 1e-9
            assert projector_dist(report.mul, parts(pws).mul) < 1e-9
            if report.is_complementable:
                assert graph_dist(report.pws_blocks.generate(), pws) < 1e-9

    def test_off_diagonal_block_is_the_corner_of_make_pws(self):
        # coefficient_x of S and (W S)-perp against the corner P_S P|_(S-perp)
        # of the projection built by the relation calculus; it replaced a
        # span of the pairs (x, U M^+ R* x) and {0} x U ker a
        rng = np.random.default_rng(3700)
        complementable = 0
        for _ in range(300):
            w, s = weight_and_subspace(rng)
            report = complementability(Weight(w), s)
            if report.is_complementable:
                complementable += 1
                corner = canonical_blocks(make_pws(Weight(w), s), s).b
                assert report.pws_blocks.b.graph.dim == corner.graph.dim
                assert graph_dist(report.pws_blocks.b, corner) < 1e-9
        assert complementable >= 100


class TestShorted:
    def test_matches_the_schur_oracle(self):
        # the Schur complement of W's block on S-perp, the oracle behind
        # shorted --verify, on psd weights that are singular half the time
        rng = np.random.default_rng(3700)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            w = Weight(random_psd(rng, n), "psd")
            s = random_subspace(rng, n)
            gap = np.linalg.norm(shorted(w, s) - oracles.shorted_by_schur(w.matrix, s.basis, 1e-10))
            assert gap <= 1e-9 * max(1.0, np.linalg.norm(w.matrix))

    def test_identity_weight_gives_projector(self):
        got = shorted(Weight(np.eye(3), "psd"), orthonormalize(np.eye(3)[:, :2]))
        expected = np.diag([1.0, 1.0, 0.0])
        assert np.linalg.norm(got - expected) < 1e-10

    def test_two_by_two_schur(self):
        w = Weight(np.array([[2.0, 1.0], [1.0, 1.0]]), "psd")
        assert np.linalg.norm(shorted(w, E1) - np.diag([1.0, 0.0])) < 1e-10
        assert np.linalg.norm(shorted(w, E2) - np.diag([0.0, 0.5])) < 1e-10

    def test_relation_route_equality(self):
        w = Weight(np.array([[2.0, 1.0], [1.0, 1.0]]), "psd")
        rel = compose(graph_of_matrix(w.matrix), identity_minus(make_pws(w, E1)))
        assert np.linalg.norm(shorted(w, E2) - as_matrix(rel)) < 1e-10

    def test_rank_one_weight_with_rounding_level_block(self):
        # W = v v* on C^3 and S of dimension 1 or 2: R (I - UU*) has rank one and
        # singular values at rounding level, which the cut for Q must drop
        rng = np.random.default_rng(1307)
        v = cmat(rng, 3, 1)
        k = int(rng.integers(1, 3))
        s = orthonormalize(cmat(rng, 3, k))
        w = Weight(v @ v.conj().T, "psd")
        sigma = shorted(w, s)
        rel = compose(graph_of_matrix(w.matrix), identity_minus(make_pws(w, subspace_complement(s))))
        assert np.linalg.norm(sigma - as_matrix(rel)) < 1e-9
        assert np.linalg.eigvalsh(w.matrix - sigma)[0] > -1e-9

    @pytest.mark.parametrize("seed", range(20))
    def test_defining_properties(self, seed):
        rng = np.random.default_rng(3600 + seed)
        n = int(rng.integers(2, 8))
        w = Weight(random_psd(rng, n), "psd")
        s = random_subspace(rng, n)
        sigma = shorted(w, s)
        eigs = np.linalg.eigvalsh(sigma)
        assert eigs.size == 0 or eigs[0] > -1e-9
        assert np.linalg.eigvalsh(w.matrix - sigma)[0] > -1e-9
        col = orthonormalize(sigma, ambient_dim=n)
        assert subspace_equals(subspace_sum(col, s), s) or col.dim == 0

    @pytest.mark.parametrize("seed", range(15))
    def test_oblique_compression_dominates(self, seed):
        # E*WE over idempotents with kernel S-perp stays above the shorted part
        rng = np.random.default_rng(3700 + seed)
        n = int(rng.integers(2, 7))
        w = Weight(random_psd(rng, n), "psd")
        k = int(rng.integers(1, n))
        s = random_subspace(rng, n, k)
        sigma = shorted(w, s)
        q = _oblique_onto_complement_of(rng, s)
        compressed = q.conj().T @ w.matrix @ q
        assert np.linalg.eigvalsh(compressed - sigma)[0] > -1e-8

    @pytest.mark.parametrize("seed", range(15))
    def test_krein_maximality(self, seed):
        # any psd X below W with range inside S stays below the shorted part
        rng = np.random.default_rng(3800 + seed)
        n = int(rng.integers(2, 7))
        w = Weight(random_psd(rng, n), "psd")
        s = random_subspace(rng, n, int(rng.integers(1, n)))
        sigma = shorted(w, s)
        x = _maximal_scaled_candidate(rng, w.matrix, s)
        if x is None:
            return
        assert np.linalg.eigvalsh(w.matrix - x)[0] > -1e-8
        assert np.linalg.eigvalsh(sigma - x)[0] > -1e-8


def _oblique_onto_complement_of(rng, s):
    """Idempotent matrix with kernel equal to the orthogonal complement of s."""
    n, k = s.ambient_dim, s.dim
    perp = subspace_complement(s)
    slant = s.basis + perp.basis @ cmat(rng, n - k, k)
    basis = np.hstack([slant, perp.basis])
    target = np.hstack([slant, np.zeros((n, n - k), dtype=complex)])
    return target @ np.linalg.inv(basis)


def _maximal_scaled_candidate(rng, w, s):
    """Random psd X with ran X inside S, scaled until X <= W becomes tight."""
    from relcalc import null_space, subspace_intersect

    ran_w = orthonormalize(w, ambient_dim=w.shape[0])
    inside = subspace_intersect(s, ran_w)
    if inside.dim == 0:
        return None
    g = cmat(rng, inside.dim, inside.dim)
    y = inside.basis @ (g @ g.conj().T) @ inside.basis.conj().T
    w_half_pinv = np.linalg.pinv(psd_sqrt(w))
    z = w_half_pinv @ y @ w_half_pinv.conj().T
    top = float(np.linalg.eigvalsh((z + z.conj().T) / 2)[-1])
    if top <= 0:
        return None
    return y / top


class TestKrein:
    def test_axis_in_minkowski_plane(self):
        w = Weight(np.diag([1.0, -1.0]), "symmetry")
        report = krein_classify(E1, w)
        assert report.nondegenerate and report.regular and report.pseudo_regular

    def test_neutral_line_is_degenerate(self):
        w = Weight(np.diag([1.0, -1.0]), "symmetry")
        report = krein_classify(DIAG, w)
        assert not report.nondegenerate and not report.regular
        assert subspace_equals(report.isotropic, DIAG)

    def test_definite_metric_everything_regular(self):
        w = Weight(np.eye(3), "symmetry")
        for seed in range(5):
            s = random_subspace(np.random.default_rng(seed), 3)
            assert krein_classify(s, w).regular

    def test_requires_symmetry_kind(self):
        with pytest.raises(ValueError):
            krein_classify(E1, Weight(np.eye(2), "psd"))

    @pytest.mark.parametrize("seed", range(15))
    def test_flags_are_consistent(self, seed):
        rng = np.random.default_rng(3900 + seed)
        n = int(rng.integers(2, 7))
        w = Weight(random_symmetry(rng, n), "symmetry")
        s = random_subspace(rng, n)
        report = krein_classify(s, w)
        if report.regular:
            assert report.nondegenerate
        assert report.pseudo_regular

    def test_regularity_matches_the_companion_oracle(self):
        # regular iff S meets its J-companion only in 0 and the two span
        # everything; the CLI's --verify reads the same oracle.  The flags
        # also match the relation route krein_classify took: the companion
        # by w_companion, its intersection with S and its sum with S
        rng = np.random.default_rng(3950)
        irregular = 0
        for _ in range(600):
            n = int(rng.integers(2, 9))
            j = random_symmetry(rng, n)
            w = Weight(j, "symmetry")
            indefinite = 0 < np.count_nonzero(np.linalg.eigvalsh(j) > 0) < n
            if indefinite and rng.random() < 0.5:
                s = degenerate_subspace(rng, j)
            else:
                s = random_subspace(rng, n)
            report = krein_classify(s, w)
            regular = report.regular
            assert oracles.krein_regular(w.matrix, s.basis, 1e-10) == regular
            companion = w_companion(s, w)
            assert projector_dist(report.isotropic, subspace_intersect(s, companion)) < 1e-9
            spans = subspace_equals(subspace_sum(s, companion), full_space(n))
            assert regular == (report.isotropic.dim == 0 and spans)
            irregular += not regular
        assert 200 <= irregular <= 400


class TestPsdOperatorFacts:
    @pytest.mark.parametrize("seed", range(15))
    def test_half_weight_projection_is_operator_and_product_psd(self, seed):
        rng = np.random.default_rng(4000 + seed)
        n = int(rng.integers(2, 7))
        w = Weight(random_psd(rng, n), "psd")
        s = random_subspace(rng, n)
        p = make_pws(w, s)
        half = compose(graph_of_matrix(psd_sqrt(w.matrix)), p)
        assert parts(half).mul.dim == 0
        wp = compose(graph_of_matrix(w.matrix), p)
        assert parts(wp).mul.dim == 0
        mat = as_matrix(wp)
        assert np.linalg.norm(mat - mat.conj().T) < 1e-8
        assert np.linalg.eigvalsh((mat + mat.conj().T) / 2)[0] > -1e-8


CUT_TOLERANCES = [Tolerance(), Tolerance(1e-6), Tolerance(0.0, 1e-9), Tolerance(0.0, 0.0)]


def eigenvalue_keep_mask(eigs, tol):
    """The eigenvalue cut as a mask: |lambda| at or above the rank cutoff of
    the largest |lambda|, and never zero."""
    mags = np.abs(eigs)
    return (mags >= tol.rank_cutoff(float(mags.max(initial=0.0)), eigs.shape * 2)) & (mags > 0)


def psd_weights(rng, count):
    makers = (random_psd, psd_with_tiny_eigenvalues)
    for i in range(count):
        n = int(rng.integers(2, 9))
        yield makers[i % 2](rng, n) * (1.0, 1e12, 1e-12)[i % 3], random_subspace(rng, n)


class TestEigenvalueCuts:
    """Every eigenvalue cut is a ``Tolerance.rank`` count on eigh's ascending
    order; each must pick exactly the columns the mask picks."""

    @pytest.mark.parametrize("tol", CUT_TOLERANCES)
    def test_unit_psd_drops_the_masked_eigenpairs(self, tol):
        rng = np.random.default_rng(15300)
        for w, _ in psd_weights(rng, 60):
            weight = Weight(w, "psd")
            top, _, root, kernel = weighted._unit_psd(weight, tol)
            eigs, vecs = weight._eigh
            eigs = eigs / top
            keep = eigenvalue_keep_mask(eigs, tol) & (eigs > 0)
            assert np.array_equal(kernel.basis, vecs[:, ~keep])
            # laid out as the mask's copy, so BLAS multiplies it bit for bit alike
            assert kernel.basis.flags.f_contiguous
            assert np.array_equal(root, (vecs * np.sqrt(np.where(keep, eigs, 0.0))) @ vecs.conj().T)

    def test_weight_fixes_the_scale_unit_psd_reads(self):
        # a psd Weight fixes lambda when it is certified, and check_normal
        # reads W / lambda from it with no cut: the same bits as _unit_psd's
        rng = np.random.default_rng(15303)
        for w, _ in psd_weights(rng, 60):
            weight = Weight(w, "psd")
            top, w_unit, _, _ = weighted._unit_psd(weight, None)
            assert weight._top == top and np.array_equal(weight.matrix / weight._top, w_unit)

    @pytest.mark.parametrize("tol", CUT_TOLERANCES)
    def test_factor_corner_drops_the_masked_eigenvectors(self, tol):
        rng = np.random.default_rng(15301)
        for w, s in psd_weights(rng, 60):
            corner = weighted._factor_corner(w, s.basis, tol)
            keep = eigenvalue_keep_mask(corner.eigs, tol) & (corner.eigs > 0)
            assert corner.rank == np.count_nonzero(keep) and corner.vecs.flags.f_contiguous
            # the zero target lies in every domain, and its coset's
            # direction is U times the dropped eigenvectors
            direction = weighted._project_by_blocks(corner, psd_sqrt(w), np.zeros(s.ambient_dim)).direction
            assert np.array_equal(direction.basis, s.basis @ corner.vecs[:, ~keep])

    @pytest.mark.parametrize("tol", CUT_TOLERANCES)
    def test_krein_isotropic_part_is_the_masked_band(self, tol):
        rng = np.random.default_rng(15302)
        checked = 0
        for i in range(60):
            n = int(rng.integers(2, 9))
            j = Weight(random_symmetry(rng, n), "symmetry")
            # every other S holds a J-neutral vector of its J-companion
            s = degenerate_subspace(rng, j.matrix) if i % 2 else random_subspace(rng, n)
            try:
                isotropic = krein_classify(s, j, tol).isotropic
            except ConsistencyError:
                continue
            gram = s.basis.conj().T @ j.matrix @ s.basis
            eigs, vecs = np.linalg.eigh((gram + gram.conj().T) / 2)
            assert np.array_equal(isotropic.basis, s.basis @ vecs[:, ~eigenvalue_keep_mask(eigs, tol)])
            checked += 1
        assert checked >= 40


def _complementability_verdict(w, s):
    report = complementability(Weight(w, "selfadjoint"), s)
    return report.is_complementable, report.criterion_ab, report.domain.dim, report.mul.dim


@functools.cache
def _complementability_family():
    """300 weight-subspace pairs from default_rng(105), then one unitary
    each, with the verdict on each pair."""
    rng = np.random.default_rng(105)
    pairs = [weight_and_subspace(rng) for _ in range(300)]
    return [(w, s, random_unitary(rng, s.ambient_dim), _complementability_verdict(w, s)) for w, s in pairs]


class TestMetamorphic:
    """Verdicts that must not move when the data change without changing the
    question: the units of W, and a unitary change of coordinates."""

    @pytest.mark.parametrize(
        "factor",
        [2.0**20, 2.0**-20, 1e6, 1e-6, 1e12]
        + [
            pytest.param(
                factor,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="complementability cuts U*W at abs_eps on W's own units, so at W x 1e-10 "
                    "the cut drops singular values that are small only in those units (55 of 300 "
                    "verdicts and 164 mul dimensions move; at W x 1e-12, 55 and 236)",
                ),
            )
            for factor in (1e-10, 1e-12)
        ],
    )
    def test_complementability_ignores_the_units_of_w(self, factor):
        moved = [
            (w, s)
            for w, s, _, verdict in _complementability_family()
            if _complementability_verdict(w * factor, s) != verdict
        ]
        assert moved == []

    def test_complementability_ignores_a_unitary_change_of_coordinates(self):
        moved = [
            (w, s)
            for w, s, q, verdict in _complementability_family()
            if _complementability_verdict(q @ w @ q.conj().T, Subspace(q @ s.basis)) != verdict
        ]
        assert moved == []

    def test_krein_classify_ignores_a_unitary_change_of_coordinates(self):
        rng = np.random.default_rng(15302)
        degenerate = 0
        for i in range(300):
            n = int(rng.integers(2, 9))
            j = random_symmetry(rng, n)
            s = degenerate_subspace(rng, j) if i % 2 else random_subspace(rng, n)
            q = random_unitary(rng, n)
            report = krein_classify(s, Weight(j, "symmetry"))
            turned = krein_classify(Subspace(q @ s.basis), Weight(q @ j @ q.conj().T, "symmetry"))
            assert (turned.isotropic.dim, turned.regular) == (report.isotropic.dim, report.regular)
            degenerate += not report.regular
        assert degenerate >= 100


class TestRankDecisionCount:
    def test_a_psd_weight_is_factored_once(self, svd_calls):
        # the psd certificate is the one eigh of W, kept read-only for every
        # root of W (it was an eigvalsh, and each root made its own eigh);
        # the other kinds factor nothing
        rng = np.random.default_rng(15200)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            svd_calls.clear()
            w = Weight(random_psd(rng, n), "psd")
            assert svd_calls == ["eigh"]
            assert not any(a.flags.writeable for a in w._eigh)
            svd_calls.clear()
            Weight(random_selfadjoint(rng, n))
            Weight(random_symmetry(rng, n), "symmetry")
            assert svd_calls == []

    def test_svd_calls_per_complementability(self, svd_calls):
        # U*W, its angle matrix M, the domain sum and, when S is
        # complementable, the complement of S: the off-diagonal block is
        # coefficient_x of S and (W S)-perp, with no rank decision (its own
        # span of the pairs (x, U M^+ R* x) made a mean of 4.0 and a max of
        # 5, default_rng(15100), 300 calls)
        rng = np.random.default_rng(15100)
        counts = []
        for _ in range(300):
            w, s = weight_and_subspace(rng)
            weight = Weight(w)
            svd_calls.clear()
            complementability(weight, s)
            counts.append(svd_calls.count("svd"))
        assert np.mean(counts) <= 3.4
        assert max(counts) <= 4


class TestSecondRoutes:
    """Each function's own second route raises when its first route answers
    wrong; the wrong route is patched in."""

    def test_shorted_range_check_catches_a_dropped_direction(self, monkeypatch):
        # a Q that drops a kept direction of R S-perp: Anderson's form
        # R (I - QQ*) R still lies in 0 <= Sigma <= W, so only the check that
        # Sigma vanishes on S-perp sees it, and every such answer must raise
        right = weighted._cut_svd

        def dropping_one(matrix, tol):
            cut = right(matrix, tol)
            assert cut.rank >= 1
            return cut._replace(rank=cut.rank - 1)

        monkeypatch.setattr(weighted, "_cut_svd", dropping_one)
        rng = np.random.default_rng(1300)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            v = cmat(rng, n, 1)
            s = orthonormalize(cmat(rng, n, int(rng.integers(1, n))))
            with pytest.raises(ConsistencyError, match="leaks off S"):
                shorted(Weight(v @ v.conj().T, "psd"), s)

    @pytest.mark.parametrize(
        "w,s,wrong",
        [
            # claims all of the plane for a neutral line, which is not complementable
            (Weight(np.diag([1.0, -1.0]), "symmetry"), DIAG, lambda s1, s2, tol=None: full_space(2)),
            # loses the companion of a complementable line
            (Weight(np.eye(2), "psd"), E1, lambda s1, s2, tol=None: s1),
        ],
    )
    def test_complementability_catches_a_wrong_domain(self, monkeypatch, w, s, wrong):
        # the domain S + (W S)-perp flips against rank a = rank U*W
        monkeypatch.setattr(weighted, "subspace_sum", wrong)
        with pytest.raises(ConsistencyError, match="disagrees with block criterion"):
            complementability(w, s)

    @pytest.mark.parametrize(
        "s,wrong",
        [
            (DIAG, lambda s1, s2, tol=None: zero_space(s1.ambient_dim)),  # loses the neutral line
            (E1, lambda s1, s2, tol=None: s1),  # claims all of a definite line
        ],
    )
    def test_krein_classify_catches_a_wrong_intersection(self, monkeypatch, s, wrong):
        monkeypatch.setattr(weighted, "subspace_intersect", wrong)
        with pytest.raises(ConsistencyError, match="isotropic part"):
            krein_classify(s, Weight(np.diag([1.0, -1.0]), "symmetry"))
