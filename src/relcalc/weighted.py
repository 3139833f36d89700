"""Weighted geometry: companions, weighted projections, complementability,
shorted operators, and the indefinite-metric subspace classification.

A selfadjoint weight W replaces the inner product by <Wx, y>.  The weighted
projection onto a subspace S is the multivalued projection with range S and
kernel the W-orthogonal companion of S; its domain need not be everything,
and that defect is exactly what complementability measures.  The solvers'
``_factor_corner`` and ``_project_by_blocks``, ``complementability`` and
``krein_classify`` read the block split of W along S = span(U), U
orthonormal, through U*WU or U*W, and ``complementability`` takes its
block form (I, x; 0, 0) from ``mvproj._projection_blocks``; ``shorted``
reads the root of W from W's own eigenpairs.  ``make_pws`` builds the same
projection by the relation calculus.  No library function calls it or the calculus routes
the block form replaced (``canonical_blocks``, ``identity_minus``,
``apply``): they are the tests' cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, DimensionMismatchError
from .subspaces import (
    DEFAULT_TOL,
    Coset,
    Subspace,
    Tolerance,
    _cut_svd,
    _null_of_rows,
    _solve_rounding,
    _tol,
    matrix_image,
    matrix_preimage,
    subspace_complement,
    subspace_equals,
    subspace_intersect,
    subspace_sum,
)
from .relations import LinearRelation
from .mvproj import BlockRep, _projection_blocks, make_pmn

WEIGHT_KINDS = ("selfadjoint", "psd", "symmetry")


@dataclass(frozen=True, eq=False)
class Weight:
    """A selfadjoint matrix weight, optionally certified psd or a symmetry.

    psd certification uses the eigenvalue threshold -tol; weights with
    slightly negative eigenvalues are accepted and flagged ``borderline``.
    A psd weight keeps the eigenpairs that certify it, for every root of W,
    and its scale lambda, fixed there: the largest eigenvalue when W / lambda
    passes the certificate that W passed, and 1 otherwise (W is then zero up
    to rounding, and on its own scale that rounding would read as
    eigenvalues of order one, of either sign).
    """

    matrix: np.ndarray
    kind: str = "selfadjoint"
    borderline: bool = field(init=False, default=False)
    _eigh: tuple[np.ndarray, np.ndarray] | None = field(init=False, default=None, repr=False)
    _top: float | None = field(init=False, default=None, repr=False)

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
            eigs, vecs = np.linalg.eigh(mat)
            if eigs.size and eigs[0] < -thresh:
                raise ValueError(f"weight is not positive semidefinite (min eig {eigs[0]:.3e})")
            if eigs.size and eigs[0] < 0:
                object.__setattr__(self, "borderline", True)
            top = float(eigs.max(initial=0.0))
            if not top or eigs[0] < -top * DEFAULT_TOL._certificate(float(np.linalg.norm(mat)) / top, n):
                top = 1.0
            eigs.setflags(write=False)
            vecs.setflags(write=False)
            object.__setattr__(self, "_eigh", (eigs, vecs))
            object.__setattr__(self, "_top", top)
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


def _signed_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the Hermitian part, ascending.  Fortran-ordered vectors
    lay out a block of columns as a boolean mask's copy did, so BLAS rounds
    every product with it alike, bit for bit."""
    matrix = np.asarray(matrix, dtype=complex)
    eigs, vecs = np.linalg.eigh((matrix + matrix.conj().T) / 2)
    return eigs, np.asfortranarray(vecs)


def _unit_psd(w: Weight, tol: Tolerance | None) -> tuple[float, np.ndarray, np.ndarray, Subspace]:
    """W on its own scale, so that its units decide no cut: lambda, W / lambda,
    and the Hermitian root and kernel of W / lambda from W's own eigenpairs,
    keeping the positive eigenvalues that pass the rank cut.  lambda is the
    one the psd ``Weight`` fixed when it was certified.  The eigenvalues
    below the cutoff are flushed to exact zero; otherwise rounding noise of
    size eps would surface as sqrt(eps) and the root would no longer share
    the kernel of its square.  The dropped eigenvectors are an orthonormal
    basis of it.
    """
    top, (eigs, vecs) = w._top, w._eigh
    eigs = eigs / top
    cut = eigs.size - _tol(tol).rank(eigs[::-1], eigs.shape * 2)
    eigs[:cut] = 0.0
    root = (vecs * np.sqrt(eigs)) @ vecs.conj().T
    kernel = np.asfortranarray(vecs[:, :cut])  # laid out as in _signed_eigh
    return top, w.matrix / top, root, Subspace._trusted(kernel)


def psd_sqrt(matrix: np.ndarray, tol: Tolerance | None = None) -> np.ndarray:
    """Hermitian square root of a psd matrix: sqrt(lambda) times the root of
    M / lambda that ``_unit_psd`` cuts, so the units of M decide no cut;
    ``ValueError`` unless ``Weight(matrix, "psd")`` certifies the matrix."""
    top, _, root, _ = _unit_psd(Weight(matrix, "psd"), tol)
    return np.sqrt(top) * root


def _check_ambient(w: Weight, s: Subspace):
    if s.ambient_dim != w.ambient_dim:
        raise DimensionMismatchError(
            f"subspace ambient {s.ambient_dim} != weight size {w.ambient_dim}"
        )


def w_companion(s: Subspace, w: Weight, tol: Tolerance | None = None) -> Subspace:
    """Vectors W-orthogonal to S: the complement of W S, equal to the
    W-preimage of the complement of S.  Both routes are computed and must agree."""
    _check_ambient(w, s)
    via_image = subspace_complement(matrix_image(w.matrix, s, tol))
    via_preimage = matrix_preimage(w.matrix, subspace_complement(s), tol)
    if not subspace_equals(via_image, via_preimage, tol):
        raise ConsistencyError("companion computed by image and preimage routes disagrees")
    return via_image


def make_pws(w: Weight, s: Subspace, tol: Tolerance | None = None) -> LinearRelation:
    """The weighted projection: range S, kernel the W-orthogonal companion of S."""
    return make_pmn(s, w_companion(s, w, tol))


class _Corner(NamedTuple):
    """The corner a = U*WU of a psd weight W along S = span(U), factored by
    one eigh, keeping the positive eigenvalues that pass the rank cut: its
    eigenpairs, ascending, and the number of kept ones, which are the last.
    ``_project_by_blocks`` projects any number of targets through it."""

    w: np.ndarray
    u: np.ndarray
    eigs: np.ndarray
    vecs: np.ndarray
    rank: int
    tol: Tolerance


def _factor_corner(w: np.ndarray, u: np.ndarray, tol: Tolerance | None) -> _Corner:
    """The one eigh of the Hermitian k x k corner U*WU, for ``u`` with
    orthonormal columns."""
    tol = _tol(tol)
    eigs, vecs = _signed_eigh(u.conj().T @ w @ u)
    return _Corner(w, u, eigs, vecs, tol.rank(eigs[::-1], eigs.shape * 2), tol)


def _project_by_blocks(corner: _Corner, root: np.ndarray, b: np.ndarray) -> Coset:
    """P b for the W-weighted projection P onto S = span(u), from its block form.

    ``corner`` is ``_factor_corner(w, u, tol)`` and ``root`` is any R with
    R*R = W.  Along S the projection is (I, a^-1 b; 0, 0) for the blocks
    a = P_S W|_S and b = P_S W|_(S-perp) of W, so a vector x lies in dom P
    exactly when U*W x lies in ran a.  The factored corner a = U*WU decides
    everything for the target ``b``, with no decomposition of its own:

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
    w, u, eigs, vecs, rank, tol = corner
    n, cut = u.shape[0], eigs.size - rank
    g = u.conj().T @ (w @ b)
    q = vecs[:, cut:]
    mu = max(float(eigs[cut - 1]), 0.0) if cut else 0.0
    norm_g = float(np.linalg.norm(g))
    allowance = np.sqrt(mu) * float(np.linalg.norm(root @ b)) + tol.residual(max(1.0, norm_g), n)
    coeffs = q.conj().T @ g
    if np.linalg.norm(g - q @ coeffs) > allowance:
        return Coset.empty(n)
    c = q @ (coeffs / eigs[cut:])
    point = u @ c
    rounding = _solve_rounding(n, float(np.abs(eigs).max(initial=0.0)), float(np.linalg.norm(c)), norm_g)
    gap = float(np.linalg.norm(u.conj().T @ (w @ (point - b))))
    if gap > allowance + rounding:
        raise ConsistencyError(
            "block-form point fails the normal equation U*W(x - b) = 0 on the ambient "
            f"vectors (gap {gap:.3e} > threshold {allowance + rounding:.3e})"
        )
    return Coset.of(point, Subspace._trusted(u @ vecs[:, :cut]))


def complementability(w: Weight, s: Subspace, tol: Tolerance | None = None) -> ComplementabilityReport:
    """Whether S plus its W-companion fills the space, decided two ways.

    P is (I, a^-1 b; 0, 0) along S = span(U), with a = U*WU and b = U*W on
    S-perp.  Both share the wide factor G = U*W = V D R*, cut at its rank
    r: the kept right singular vectors R_r span W S and the dropped ones
    its companion (W S)-perp.  So a = V D M for M = R_r*U, whose singular
    values are the sines of the angles between S and (W S)-perp: rank a is
    decided on the scale of the angles, not on that of a, which is
    quadratic in W.  mul P = U ker M, and the paper's criterion
    ran b <= ran a reads rank a = rank G; the second route, S
    complementable when S + (W S)-perp is everything, must agree.  Then
    (W S)-perp is the kernel of P, and the block form is
    ``mvproj._projection_blocks`` of S and that kernel: its off-diagonal
    block a^-1 b is ``coefficient_x``, with no further rank decision.
    """
    _check_ambient(w, s)
    n, u = w.ambient_dim, s.basis
    _, _, g_right_h, r = _cut_svd(u.conj().T @ w.matrix, tol)
    companion = Subspace._trusted(g_right_h[r:].conj().T)
    _, _, m_right_h, rank_a = _cut_svd(g_right_h[:r] @ u, tol)
    ker_a = u @ m_right_h[rank_a:].conj().T
    domain = subspace_sum(s, companion, tol)
    by_domain, by_blocks = domain.dim == n, rank_a == r
    if by_domain != by_blocks:
        raise ConsistencyError(
            f"domain criterion ({by_domain}) disagrees with block criterion ({by_blocks})"
        )
    blocks = _projection_blocks(s, companion) if by_domain else None
    return ComplementabilityReport(
        is_complementable=by_domain,
        domain=domain,
        mul=Subspace._trusted(ker_a),
        criterion_ab=by_blocks,
        pws_blocks=blocks,
        borderline_weight=w.borderline,
    )


def shorted(w: Weight, s: Subspace, tol: Tolerance | None = None) -> np.ndarray:
    """Largest psd matrix below W with range inside S.

    lambda times Anderson's R (I - Q Q*) R, for R the root of W / lambda
    that ``_unit_psd`` cuts and Q an orthonormal basis of R S-perp from one
    SVD of R (I - U U*), so the units of W decide no cut.  The form lies in
    0 <= Sigma <= W for every Q, so the sandwich cannot test the rank of Q:
    a dropped direction of R S-perp shows as a leak of Sigma off S, which
    must stay under the cutoff it fell below.
    """
    if w.kind != "psd":
        raise ValueError("shorted operator needs a psd weight")
    _check_ambient(w, s)
    tol = _tol(tol)
    n, u = w.ambient_dim, s.basis
    top, w_unit, root, _ = _unit_psd(w, tol)
    left, _, _, rank = _cut_svd(root - (root @ u) @ u.conj().T, tol)
    unit = root @ (root - left[:, :rank] @ (left[:, :rank].conj().T @ root))
    unit = (unit + unit.conj().T) / 2
    floor, bound = tol._sandwich_floor(1.0, n), tol.residual(1.0, n)
    lowest = min(np.linalg.eigvalsh(m).min(initial=0.0) for m in (unit, w_unit - unit))
    if lowest < floor:
        raise ConsistencyError(f"shorted form leaves 0 <= Sigma <= W (eigenvalue {lowest:.3e} < {floor:.3e})")
    leak = float(np.linalg.norm(unit - (unit @ u) @ u.conj().T, axis=0).max(initial=0.0))
    if leak > bound:
        raise ConsistencyError(f"shorted form leaks off S (column norm {leak:.3e} > {bound:.3e})")
    return top * unit


def krein_classify(s: Subspace, w: Weight, tol: Tolerance | None = None) -> KreinClassification:
    """Isotropic part and the regularity ladder for an indefinite metric.

    The isotropic part S cap S^[perp] is U ker(U*JU) for S = span(U), from
    one eigh cut on |lambda|, the sine of the angle between U v and
    S^[perp] = (J S)-perp for a unit eigenvector v as J is unitary: the
    eigenvectors between the negative and the positive eigenvalues that the
    rank cut keeps.  It must equal S cap ker(U*J), ranked by principal
    angles.  As J is unitary, ker(U*J) = S^[perp] (sigma = 1) needs no rank
    decision: it has dimension n - dim S, and S + S^[perp] is everything
    exactly when S cap S^[perp] = 0: regular and nondegenerate are one flag.
    """
    if w.kind != "symmetry":
        raise ValueError("classification needs a symmetry weight (W^2 = I)")
    _check_ambient(w, s)
    tol, u = _tol(tol), s.basis
    h = u.conj().T @ w.matrix
    eigs, vecs = _signed_eigh(h @ u)
    negative, positive = tol.rank(-eigs, eigs.shape * 2), tol.rank(eigs[::-1], eigs.shape * 2)
    isotropic = Subspace._trusted(u @ vecs[:, negative : eigs.size - positive])
    by_intersection = subspace_intersect(s, _null_of_rows(h), tol)
    if not subspace_equals(by_intersection, isotropic, tol):
        raise ConsistencyError(
            f"isotropic part from the Gram matrix (dim {isotropic.dim}) disagrees with "
            f"the intersection of S and ker U*J (dim {by_intersection.dim})"
        )
    nondegenerate = isotropic.dim == 0
    return KreinClassification(isotropic, nondegenerate, pseudo_regular=True, regular=nondegenerate)
