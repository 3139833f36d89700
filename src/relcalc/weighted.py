"""Weighted geometry: companions, weighted projections, complementability,
shorted operators, and the indefinite-metric subspace classification.

A selfadjoint weight W replaces the inner product by <Wx, y>.  The weighted
projection onto a subspace S is the multivalued projection with range S and
kernel the W-orthogonal companion of S; its domain need not be everything,
and that defect is exactly what complementability measures.  The solvers'
``_project_by_blocks``, ``complementability``, ``shorted`` and
``krein_classify`` read the block split of W along S = span(U), U orthonormal,
through U*WU or U*W, and ``complementability`` takes its off-diagonal block
from ``coefficient_x``.  ``make_pws`` builds the same projection by the
relation calculus.  No library function calls it or the calculus routes the
block form replaced (``canonical_blocks``, ``identity_minus``, ``apply``):
they are the tests' cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, DimensionMismatchError
from .subspaces import (
    DEFAULT_TOL,
    Coset,
    Subspace,
    Tolerance,
    _cut_svd,
    _solve_rounding,
    _tol,
    matrix_image,
    matrix_preimage,
    null_space,
    subspace_complement,
    subspace_equals,
    subspace_intersect,
    subspace_sum,
)
from .relations import LinearRelation, identity_on, zero_on
from .mvproj import BlockRep, coefficient_x, make_pmn

WEIGHT_KINDS = ("selfadjoint", "psd", "symmetry")


@dataclass(frozen=True)
class Weight:
    """A selfadjoint matrix weight, optionally certified psd or a symmetry.

    psd certification uses the eigenvalue threshold -tol; weights with
    slightly negative eigenvalues are accepted and flagged ``borderline``.
    """

    matrix: np.ndarray
    kind: str = "selfadjoint"
    borderline: bool = field(init=False, default=False)

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("weight must be a square matrix")
        if self.kind not in WEIGHT_KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("weight matrix must be finite")
        n = mat.shape[0]
        scale = max(1.0, float(np.linalg.norm(mat)))
        thresh = DEFAULT_TOL._certificate(scale, n)
        if np.linalg.norm(mat - mat.conj().T) > thresh:
            raise ValueError("weight matrix is not selfadjoint")
        mat = (mat + mat.conj().T) / 2
        if self.kind == "psd":
            eigs = np.linalg.eigvalsh(mat)
            if eigs.size and eigs[0] < -thresh:
                raise ValueError(f"weight is not positive semidefinite (min eig {eigs[0]:.3e})")
            if eigs.size and eigs[0] < 0:
                object.__setattr__(self, "borderline", True)
        elif self.kind == "symmetry":
            if np.linalg.norm(mat @ mat - np.eye(n)) > thresh:
                raise ValueError("weight is not a symmetry (its square is not the identity)")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class ComplementabilityReport:
    is_complementable: bool
    domain: Subspace
    mul: Subspace
    criterion_ab: bool
    pws_blocks: BlockRep | None
    borderline_weight: bool = False


@dataclass(frozen=True)
class KreinClassification:
    isotropic: Subspace
    nondegenerate: bool
    pseudo_regular: bool
    regular: bool
    note: str = "pseudo-regularity is automatic: every subspace sum is closed in finite dimensions"


def _signed_eigh(matrix: np.ndarray, tol: Tolerance | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs of the Hermitian part, ascending, and the mask of the
    eigenvalues at or above the rank cutoff in absolute value, zeros never:
    the one eigenvalue cut of this module."""
    matrix = np.asarray(matrix, dtype=complex)
    eigs, vecs = np.linalg.eigh((matrix + matrix.conj().T) / 2)
    mags = np.abs(eigs)
    return eigs, vecs, _tol(tol)._keep(mags, float(mags.max(initial=0.0)), matrix.shape)


def _psd_eigh(matrix: np.ndarray, tol: Tolerance | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_signed_eigh`` keeping the positive eigenvalues only."""
    eigs, vecs, keep = _signed_eigh(matrix, tol)
    return eigs, vecs, keep & (eigs > 0)


def _psd_root(matrix: np.ndarray, tol: Tolerance | None) -> tuple[np.ndarray, Subspace]:
    """Hermitian square root of a psd matrix and its kernel, from one eigh.

    Eigenvalues below the rank cutoff are flushed to exact zero first;
    otherwise rounding noise of size eps would surface as sqrt(eps) and the
    root would no longer share the kernel of its square.  The dropped
    eigenvectors are an orthonormal basis of that kernel.
    """
    eigs, vecs, keep = _psd_eigh(matrix, tol)
    root = (vecs * np.sqrt(np.where(keep, eigs, 0.0))) @ vecs.conj().T
    return root, Subspace(vecs[:, ~keep], validate=False)


def psd_sqrt(matrix: np.ndarray, tol: Tolerance | None = None) -> np.ndarray:
    """Hermitian square root of a psd matrix, rank-cut as ``_psd_root`` cuts.

    The one eigenvalue cut that takes a matrix from outside the library: an
    inf entry halves into NaNs in the Hermitian part, and the keep-mask
    refuses the NaN eigenvalues with ``ValueError``, so the invalid value
    needs no warning on the way.
    """
    with np.errstate(invalid="ignore"):
        return _psd_root(matrix, tol)[0]


def _check_ambient(w: Weight, s: Subspace):
    if s.ambient_dim != w.ambient_dim:
        raise DimensionMismatchError(
            f"subspace ambient {s.ambient_dim} != weight size {w.ambient_dim}"
        )


def w_companion(s: Subspace, w: Weight, tol: Tolerance | None = None) -> Subspace:
    """Vectors W-orthogonal to S: the complement of W S, equal to the
    W-preimage of the complement of S.  Both routes are computed and must agree."""
    _check_ambient(w, s)
    via_image = subspace_complement(matrix_image(w.matrix, s, tol), tol)
    via_preimage = matrix_preimage(w.matrix, subspace_complement(s, tol), tol)
    if not subspace_equals(via_image, via_preimage, tol):
        raise ConsistencyError("companion computed by image and preimage routes disagrees")
    return via_image


def make_pws(w: Weight, s: Subspace, tol: Tolerance | None = None) -> LinearRelation:
    """The weighted projection: range S, kernel the W-orthogonal companion of S."""
    return make_pmn(s, w_companion(s, w, tol), tol)


def _project_by_blocks(
    w: np.ndarray,
    root: np.ndarray,
    u: np.ndarray,
    b: np.ndarray,
    tol: Tolerance | None = None,
) -> Coset:
    """P b for the W-weighted projection P onto S = span(u), from its block form.

    ``u`` has orthonormal columns and ``root`` is any R with R*R = W.  Along
    S the projection is (I, a^-1 b; 0, 0) for the blocks a = P_S W|_S and
    b = P_S W|_(S-perp) of W, so a vector x lies in dom P exactly when
    U*W x lies in ran a.  One eigh of the Hermitian k x k corner a = U*WU,
    cut as ``_psd_eigh`` cuts, decides everything for the target ``b``:

    - existence: g = U*W b must lie in the span Q of the kept eigenvectors.
      A psd W puts at most sqrt(mu) ||R b|| of g on an eigenvector of a with
      eigenvalue mu (Cauchy-Schwarz), so the part of g off Q may reach
      sqrt(mu) ||R b|| for mu the largest dropped eigenvalue, plus the
      residual tolerance;
    - the point U Q L^-1 Q* g, for L the kept eigenvalues;
    - the direction U times the dropped eigenvectors, S cap ker W = mul P,
      already orthonormal.

    The point is checked against the normal equation U*W(point - b) = 0,
    evaluated on the ambient vectors: it may miss by the existence allowance
    plus the rounding of the solve, ``_solve_rounding`` of a c = g in
    dimension n.
    """
    tol = _tol(tol)
    n = u.shape[0]
    eigs, vecs, keep = _psd_eigh(u.conj().T @ w @ u, tol)
    g = u.conj().T @ (w @ b)
    q = vecs[:, keep]
    dropped = eigs[~keep]
    mu = max(float(dropped[-1]), 0.0) if dropped.size else 0.0
    norm_g = float(np.linalg.norm(g))
    allowance = np.sqrt(mu) * float(np.linalg.norm(root @ b)) + tol.residual(max(1.0, norm_g), n)
    coeffs = q.conj().T @ g
    if np.linalg.norm(g - q @ coeffs) > allowance:
        return Coset.empty(n)
    c = q @ (coeffs / eigs[keep])
    point = u @ c
    rounding = _solve_rounding(n, float(np.abs(eigs).max(initial=0.0)), float(np.linalg.norm(c)), norm_g)
    gap = float(np.linalg.norm(u.conj().T @ (w @ (point - b))))
    if gap > allowance + rounding:
        raise ConsistencyError(
            "block-form point fails the normal equation U*W(x - b) = 0 on the ambient "
            f"vectors (gap {gap:.3e} > threshold {allowance + rounding:.3e})"
        )
    return Coset.of(point, Subspace(u @ vecs[:, ~keep], validate=False))


def complementability(w: Weight, s: Subspace, tol: Tolerance | None = None) -> ComplementabilityReport:
    """Whether S plus its W-companion fills the space, decided two ways.

    P is (I, a^-1 b; 0, 0) along S = span(U), with a = U*WU and b = U*W on
    S-perp.  Both share the factor U*W = V D R*, cut at the rank of W U, so
    a = V D M for M = R*U, whose singular values are the sines of the
    angles between S and its companion (W S)-perp: rank a is decided on the
    scale of the angles, not on that of a, which is quadratic in W.  mul P
    = U ker M, and the paper's criterion ran b <= ran a reads rank a =
    rank U*W; the second route, S complementable when S + (W S)-perp is
    everything, must agree.  Then (W S)-perp, the dropped left singular
    vectors of W U, is the kernel of P, and the off-diagonal block a^-1 b is
    ``coefficient_x`` of S and that kernel, with no further rank decision.
    """
    _check_ambient(w, s)
    n, u = w.ambient_dim, s.basis
    left, _, _, r = _cut_svd(w.matrix @ u, tol, full_matrices=True)
    w_s, companion = left[:, :r], Subspace(left[:, r:], validate=False)
    _, _, m_right_h, rank_a = _cut_svd(w_s.conj().T @ u, tol, full_matrices=True)
    ker_a = u @ m_right_h[rank_a:].conj().T
    domain = subspace_sum(s, companion, tol)
    by_domain, by_blocks = domain.dim == n, rank_a == r
    if by_domain != by_blocks:
        raise ConsistencyError(
            f"domain criterion ({by_domain}) disagrees with block criterion ({by_blocks})"
        )
    blocks = None
    if by_domain:
        s_perp = subspace_complement(s, tol)
        x = coefficient_x(s, companion, tol)
        blocks = BlockRep(s, s_perp, identity_on(s), x, zero_on(s), zero_on(s_perp))
    return ComplementabilityReport(
        is_complementable=by_domain,
        domain=domain,
        mul=Subspace(ker_a, validate=False),
        criterion_ab=by_blocks,
        pws_blocks=blocks,
        borderline_weight=w.borderline,
    )


def shorted(w: Weight, s: Subspace, tol: Tolerance | None = None) -> np.ndarray:
    """Largest psd matrix below W with range inside S.

    The Schur complement of the block of W on the complement of S, placed
    back in ambient coordinates, so that its range lies inside S; checked
    against the sandwich 0 <= Sigma <= W on the smallest eigenvalues, which
    bounds Sigma but does not test that it is the largest.
    """
    if w.kind != "psd":
        raise ValueError("shorted operator needs a psd weight")
    _check_ambient(w, s)
    s_perp = subspace_complement(s, tol)
    u, u_perp = s.basis, s_perp.basis
    a = u.conj().T @ w.matrix @ u
    b = u.conj().T @ w.matrix @ u_perp
    c = u_perp.conj().T @ w.matrix @ u_perp
    # pseudo-inverse of c under psd_sqrt's rank cutoff: an eigenvalue at
    # rounding level is dropped, not inverted into a huge spurious term
    eigs, vecs, keep = _psd_eigh(c, tol)
    c_pinv = (vecs * np.divide(1.0, eigs, out=np.zeros_like(eigs), where=keep)) @ vecs.conj().T
    inner = a - b @ c_pinv @ b.conj().T
    schur = u @ inner @ u.conj().T
    schur = (schur + schur.conj().T) / 2

    scale = max(1.0, float(np.linalg.norm(w.matrix)))
    floor = _tol(tol)._sandwich_floor(scale, w.ambient_dim)
    lowest = min(np.linalg.eigvalsh(m).min(initial=0.0) for m in (schur, w.matrix - schur))
    if lowest < floor:
        raise ConsistencyError(
            f"Schur complement leaves 0 <= Sigma <= W (eigenvalue {lowest:.3e} < {floor:.3e})"
        )
    return schur


def krein_classify(s: Subspace, w: Weight, tol: Tolerance | None = None) -> KreinClassification:
    """Isotropic part and the regularity ladder for an indefinite metric.

    The isotropic part S cap S^[perp] is U ker(U*JU) for S = span(U), from
    one eigh cut on |lambda|, the sine of the angle between U v and
    S^[perp] = (J S)-perp for a unit eigenvector v as J is unitary; it must
    equal S cap ker(U*J), ranked by principal angles.  As J is invertible,
    dim S^[perp] = n - dim S and S + S^[perp] is everything exactly when
    S cap S^[perp] = 0: regular and nondegenerate are one flag.
    """
    if w.kind != "symmetry":
        raise ValueError("classification needs a symmetry weight (W^2 = I)")
    _check_ambient(w, s)
    u = s.basis
    h = u.conj().T @ w.matrix
    _, vecs, keep = _signed_eigh(h @ u, tol)
    isotropic = Subspace(u @ vecs[:, ~keep], validate=False)
    by_intersection = subspace_intersect(s, null_space(h, tol), tol)
    if not subspace_equals(by_intersection, isotropic, tol):
        raise ConsistencyError(
            f"isotropic part from the Gram matrix (dim {isotropic.dim}) disagrees with "
            f"the intersection of S and ker U*J (dim {by_intersection.dim})"
        )
    nondegenerate = isotropic.dim == 0
    return KreinClassification(isotropic, nondegenerate, pseudo_regular=True, regular=nondegenerate)
