"""Weighted geometry: companions, weighted projections, complementability,
shorted operators, and the indefinite-metric subspace classification.

A selfadjoint weight W replaces the inner product by <Wx, y>.  The weighted
projection onto a subspace S is the multivalued projection with range S and
kernel the W-orthogonal companion of S; its domain need not be everything,
and that defect is exactly what complementability measures.
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
    _tol,
    full_space,
    matrix_image,
    matrix_preimage,
    subspace_complement,
    subspace_contains,
    subspace_equals,
    subspace_intersect,
    subspace_sum,
)
from .relations import (
    LinearRelation,
    as_matrix,
    compose,
    graph_of_matrix,
    identity_minus,
    identity_on,
    invert,
    parts,
    relation_equals,
    zero_on,
)
from .mvproj import BlockRep, canonical_blocks, make_pmn

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
        thresh = DEFAULT_TOL.residual(scale, n) * 10
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


def _psd_eigh(matrix: np.ndarray, tol: Tolerance | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs of the Hermitian part, ascending, and the mask of the
    eigenvalues that are positive and at or above the rank cutoff."""
    tol = _tol(tol)
    matrix = np.asarray(matrix, dtype=complex)
    sym = (matrix + matrix.conj().T) / 2
    eigs, vecs = np.linalg.eigh(sym)
    top = float(eigs[-1]) if eigs.size else 0.0
    keep = (eigs >= tol.rank_cutoff(max(top, 0.0), sym.shape)) & (eigs > 0)
    return eigs, vecs, keep


def psd_sqrt(matrix: np.ndarray, tol: Tolerance | None = None) -> np.ndarray:
    """Hermitian square root of a psd matrix.

    Eigenvalues below the rank cutoff are flushed to exact zero first;
    otherwise rounding noise of size eps would surface as sqrt(eps) and the
    root would no longer share the kernel of its square.
    """
    eigs, vecs, keep = _psd_eigh(matrix, tol)
    return (vecs * np.sqrt(np.where(keep, eigs, 0.0))) @ vecs.conj().T


def w_companion(s: Subspace, w: Weight, tol: Tolerance | None = None) -> Subspace:
    """Vectors W-orthogonal to S: the complement of W S, equal to the
    W-preimage of the complement of S.  Both routes are computed and must agree."""
    if s.ambient_dim != w.ambient_dim:
        raise DimensionMismatchError(
            f"subspace ambient {s.ambient_dim} != weight size {w.ambient_dim}"
        )
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
    plus the rounding of the solve, 100 n eps (||a|| ||c|| + ||g||).
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
    norm_a = float(np.abs(eigs).max(initial=0.0))
    rounding = 100 * n * np.finfo(float).eps * (norm_a * float(np.linalg.norm(c)) + norm_g)
    gap = float(np.linalg.norm(u.conj().T @ (w @ (point - b))))
    if gap > allowance + rounding:
        raise ConsistencyError(
            "block-form point fails the normal equation U*W(x - b) = 0 on the ambient "
            f"vectors (gap {gap:.3e} > threshold {allowance + rounding:.3e})"
        )
    return Coset.of(point, Subspace(u @ vecs[:, ~keep], validate=False))


def complementability(w: Weight, s: Subspace, tol: Tolerance | None = None) -> ComplementabilityReport:
    """Whether S plus its W-companion fills the space, decided two ways.

    The direct route checks dom of the weighted projection against the whole
    space; the block route splits W along S and checks ran b <= ran a.  The
    two answers must agree.  When complementable, the (I, a^-1 b; 0, 0)
    block form is assembled -- a^-1 is the relation inverse of a possibly
    singular corner -- and must regenerate the weighted projection.
    """
    pws = make_pws(w, s, tol)
    p = parts(pws, tol)
    n = w.ambient_dim
    by_domain = subspace_equals(p.dom, full_space(n), tol)
    w_blocks = canonical_blocks(graph_of_matrix(w.matrix, tol), s, tol)
    a, b = w_blocks.a, w_blocks.b
    by_blocks = subspace_contains(parts(a, tol).ran, parts(b, tol).ran, tol)
    if by_domain != by_blocks:
        raise ConsistencyError(
            f"domain criterion ({by_domain}) disagrees with block criterion ({by_blocks})"
        )
    blocks = None
    if by_domain:
        s_perp = subspace_complement(s, tol)
        blocks = BlockRep(
            splitter=s,
            co_splitter=s_perp,
            a=identity_on(s),
            b=compose(invert(a), b, tol),
            c=zero_on(s),
            d=zero_on(s_perp),
        )
        if not relation_equals(blocks.generate(tol), pws, tol):
            raise ConsistencyError("block form failed to regenerate the weighted projection")
    return ComplementabilityReport(
        is_complementable=by_domain,
        domain=p.dom,
        mul=p.mul,
        criterion_ab=by_blocks,
        pws_blocks=blocks,
        borderline_weight=w.borderline,
    )


def shorted(w: Weight, s: Subspace, tol: Tolerance | None = None) -> np.ndarray:
    """Largest psd matrix below W with range inside S.

    Primary route: Schur complement of the block of W on the complement of S,
    placed back in ambient coordinates.  Cross-checked against the relation
    product W (I - P) with P the weighted projection onto the complement,
    realized as an everywhere-defined operator.
    """
    if w.kind != "psd":
        raise ValueError("shorted operator needs a psd weight")
    if s.ambient_dim != w.ambient_dim:
        raise DimensionMismatchError(
            f"subspace ambient {s.ambient_dim} != weight size {w.ambient_dim}"
        )
    tol_ = _tol(tol)
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

    rel = compose(
        graph_of_matrix(w.matrix, tol), identity_minus(make_pws(w, s_perp, tol), tol), tol
    )
    via_relation = as_matrix(rel, tol)
    scale = max(1.0, float(np.linalg.norm(w.matrix)))
    if np.linalg.norm(schur - via_relation) > max(1e-8 * scale, tol_.residual(scale, w.ambient_dim)):
        raise ConsistencyError("Schur-complement route disagrees with the relation route")
    return schur


def krein_classify(s: Subspace, w: Weight, tol: Tolerance | None = None) -> KreinClassification:
    """Isotropic part and the regularity ladder for an indefinite metric.

    The flags are computed from subspace geometry and cross-checked against
    the projection dictionary: regular subspaces are exactly those whose
    weighted projection is an everywhere-defined operator.
    """
    if w.kind != "symmetry":
        raise ValueError("classification needs a symmetry weight (W^2 = I)")
    companion = w_companion(s, w, tol)
    isotropic = subspace_intersect(s, companion, tol)
    nondegenerate = isotropic.dim == 0
    regular = nondegenerate and subspace_equals(
        subspace_sum(s, companion, tol), full_space(w.ambient_dim), tol
    )
    pws = make_pmn(s, companion, tol)
    p = parts(pws, tol)
    via_projection = p.mul.dim == 0 and subspace_equals(
        p.dom, full_space(w.ambient_dim), tol
    )
    if via_projection != regular:
        raise ConsistencyError("regularity flags from geometry and projection disagree")
    return KreinClassification(
        isotropic=isotropic,
        nondegenerate=nondegenerate,
        pseudo_regular=True,
        regular=regular,
    )
