"""Complex subspace arithmetic on orthonormal bases, with one shared tolerance policy.

Everything downstream (relations, multivalued projections, the solvers) reduces
to rank decisions and residual comparisons made in this module, so the cutoff
rules live here and nowhere else: every SVD is one ``_svd``, every
singular-value and eigenvalue cut one ``Tolerance.rank`` count, every
containment one ``_negligible`` residual, and every acceptance threshold of
a library check is a method of ``Tolerance`` or ``Coset`` or sits at the end
of this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, DimensionMismatchError

DEFAULT_ABS_EPS = 1e-10
REL_EPS_PER_DIM = 1e-12


@dataclass(frozen=True)
class Tolerance:
    """Mixed absolute/relative thresholds for rank cuts and subspace comparisons.

    A singular value survives the rank cut when
    ``sigma >= rel_eps * sigma_max + abs_eps`` and ``sigma > 0``.  When
    ``rel_eps`` is None it defaults to ``REL_EPS_PER_DIM`` times the larger
    matrix dimension, so the relative part scales with the problem size.
    """

    abs_eps: float = DEFAULT_ABS_EPS
    rel_eps: float | None = None

    def __post_init__(self):
        if not (0 <= self.abs_eps < math.inf):
            raise ValueError(f"abs_eps must be finite and nonnegative, got {self.abs_eps}")
        if self.rel_eps is not None and not (0 <= self.rel_eps < math.inf):
            raise ValueError(f"rel_eps must be finite and nonnegative, got {self.rel_eps}")

    def _rel(self, dim: int) -> float:
        if self.rel_eps is not None:
            return self.rel_eps
        return REL_EPS_PER_DIM * max(dim, 1)

    def rank_cutoff(self, sigma_max: float, shape) -> float:
        return self._rel(max(shape)) * sigma_max + self.abs_eps

    def rank(self, values: np.ndarray, shape) -> int:
        """How many of the descending ``values`` of a matrix of the given
        shape survive the rank cut: the positive ones at or above
        ``rank_cutoff`` of the largest magnitude ``max(values[0],
        -values[-1])``, so a zero never does.  ``values`` are singular values
        (the top is ``values[0]``), or ``eigs[::-1]`` for the positive and
        ``-eigs`` for the negative eigenvalues of a Hermitian matrix.  An inf
        entry factors into NaNs, which would fail every comparison and read
        as rank 0, so a top that is not finite is refused.  Python floats: at
        desk size a loop over a short list costs less than two array
        comparisons."""
        values = values.tolist()
        if not values:
            return 0
        top = max(values[0], -values[-1])
        if not top < math.inf:
            raise ValueError("matrix must be finite")
        cutoff = self.rank_cutoff(top, shape)
        kept = 0
        for v in values:
            if v >= cutoff and v > 0:
                kept += 1
        return kept

    def _data_rank(self, sigma: np.ndarray, shape) -> int:
        """``rank`` of sigma / sigma_max: the rank of raw data (a constraint
        map V, a smoothing stack) read on its own scale, so that the units
        of the data decide no cut."""
        top = float(sigma[0]) if sigma.size else 0.0
        return self.rank(sigma / top if top > 0 else sigma, shape)

    def residual(self, scale: float, dim: int) -> float:
        """Acceptance threshold for a residual norm at the given data scale."""
        return self._rel(dim) * scale + self.abs_eps

    def _certificate(self, scale: float, dim: int) -> float:
        """How far ``Weight`` lets a matrix miss being selfadjoint, psd or a
        symmetry: ten residual thresholds."""
        return self.residual(scale, dim) * 10

    def _interpolation(self, scale: float, dim: int) -> float:
        """How far a spline may miss its constraint V x = b: ten residual
        thresholds, and never less than 1e-9 of the scale."""
        return max(1e-9 * scale, self.residual(scale, dim) * 10)

    def _sandwich_floor(self, scale: float, dim: int) -> float:
        """The lowest eigenvalue of Sigma and of W - Sigma that ``shorted``
        accepts: minus the residual threshold, and never above -1e-8 of the
        scale."""
        return -max(1e-8 * scale, self.residual(scale, dim))


DEFAULT_TOL = Tolerance()


def _tol(tol: Tolerance | None) -> Tolerance:
    return DEFAULT_TOL if tol is None else tol


class Cut(NamedTuple):
    """One SVD of a matrix, matrix = u @ diag(s) @ vh, and the number of
    singular values that survive the tolerance's rank cut: the kept triplets
    come first, the dropped right singular vectors ``vh[rank:]`` span the
    null space.

    A report of how close the decision was needs no further field: its
    margins are ``s[rank - 1]`` (smallest kept) and ``s[rank]`` (largest
    dropped) against ``rank_cutoff(s[0], shape)``.
    """

    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray
    rank: int

    def solve(self, b: np.ndarray) -> np.ndarray:
        """V_r S_r^-1 U_r* b over the kept triplets: the min-norm
        least-squares solution of matrix @ x = b at the cut."""
        r = self.rank
        return self.vh[:r].conj().T @ ((self.u[:, :r].conj().T @ b) / self.s[:r])


def _svd(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The package's one SVD call, with no rank decision.  It asks numpy for
    the full factors exactly when the matrix is wide: a wide matrix's thin U
    and a tall matrix's thin V are already square, so every SVD returns all
    of V, ``vh[rank:]`` spans the null space at any cut, and no tall matrix
    builds a full U to throw away.  An empty matrix gets the factors numpy
    would return, without an SVD call.  numpy is reached through
    ``np.linalg.svd`` at call time, where counting wrappers patch it."""
    q, p = matrix.shape
    if q == 0 or p == 0:
        return np.eye(q, 0, dtype=complex), np.zeros(0), np.eye(p, dtype=complex)
    return np.linalg.svd(matrix, full_matrices=q < p)


def _cut_svd(matrix: np.ndarray, tol: Tolerance | None) -> Cut:
    """One SVD and its rank decision: the kept left singular vectors
    ``u[:, :rank]`` span the range, the dropped right ones ``vh[rank:]`` the
    null space."""
    u, s, vh = _svd(matrix)
    return Cut(u, s, vh, _tol(tol).rank(s, matrix.shape))


def _data_cut(matrix: np.ndarray, tol: Tolerance | None) -> Cut:
    """``_cut_svd`` of raw data, its rank read on the data's own scale by
    ``Tolerance._data_rank``."""
    u, s, vh = _svd(matrix)
    return Cut(u, s, vh, _tol(tol)._data_rank(s, matrix.shape))


class Subspace:
    """A linear subspace of C^n held as an n x k matrix with orthonormal columns.

    The zero subspace is the k = 0 case, not a special sentinel.  Instances are
    immutable; all operations return new objects.

    A validated basis may miss orthonormal by up to 1e-8 in its Gram matrix
    B*B; past ``_ORTHONORMAL_GRAM_GAP`` it is stored as its polar factor
    B (B*B)^(-1/2), the orthonormal basis of the same span nearest to it,
    since every consumer reads B B* as the projector.
    """

    __slots__ = ("basis",)

    def __init__(self, basis: np.ndarray, validate: bool = True):
        basis = np.array(basis, dtype=complex)
        if basis.ndim != 2:
            raise ValueError("basis must be a 2-d array of column vectors")
        if basis.shape[1] > basis.shape[0]:
            raise ValueError(
                f"basis has {basis.shape[1]} columns in ambient dimension {basis.shape[0]}"
            )
        if validate and basis.shape[1]:
            gram = basis.conj().T @ basis
            gap = np.abs(gram - np.eye(basis.shape[1])).max()
            if not gap <= 1e-8:  # NaN fails too
                raise ValueError("basis columns are not orthonormal")
            if gap > _ORTHONORMAL_GRAM_GAP:
                eigs, vecs = np.linalg.eigh(gram)
                basis = basis @ ((vecs / np.sqrt(eigs)) @ vecs.conj().T)
        basis.setflags(write=False)
        self.basis = basis

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    def project(self, v: np.ndarray) -> np.ndarray:
        v = _as_vector(v, self.ambient_dim, "vector")
        return self.basis @ (self.basis.conj().T @ v)

    def contains_vector(self, v: np.ndarray, tol: Tolerance | None = None) -> bool:
        """Whether v lies in the subspace, up to the residual threshold.  A
        non-finite v is refused: its residual would be NaN, and NaN fails
        every comparison, so it would read as "not contained"."""
        return self._contains_at(v, tol, 1.0)

    def _contains_at(self, v: np.ndarray, tol: Tolerance | None, scale: float) -> bool:
        """``contains_vector`` with the threshold taken at the larger of
        ``scale`` and ||v||, never below 1: a v computed as the difference of
        two large vectors rounds on their size."""
        tol = _tol(tol)
        v = _as_vector(v, self.ambient_dim, "vector")
        if not np.isfinite(v).all():
            raise ValueError("vector must be finite")
        resid = np.linalg.norm(v - self.project(v))
        scale = max(1.0, scale, float(np.linalg.norm(v)))
        return resid <= tol.residual(scale, self.ambient_dim)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def _as_vector(v, n: int, label: str) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"{label} must be 1-dimensional")
    if v.shape[0] != n:
        raise DimensionMismatchError(f"{label} has length {v.shape[0]}, expected {n}")
    return v


def _check_same_ambient(s1: Subspace, s2: Subspace):
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {s1.ambient_dim} vs {s2.ambient_dim}"
        )


def full_space(n: int) -> Subspace:
    return Subspace(np.eye(n, dtype=complex), validate=False)


def zero_space(n: int) -> Subspace:
    return Subspace(np.zeros((n, 0), dtype=complex), validate=False)


def orthonormalize(vectors, tol: Tolerance | None = None, *, ambient_dim: int | None = None) -> Subspace:
    """Span of the given vectors as a Subspace.

    Accepts a sequence of equal-length 1-d vectors or an (n, k) array whose
    columns span the subspace.  ``ambient_dim`` is required only for an empty
    input.  Rank is decided by the tolerance's singular-value cutoff.
    """
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        mat = np.asarray(vectors, dtype=complex)
    else:
        vecs = [np.asarray(v, dtype=complex) for v in vectors]
        if any(v.ndim != 1 for v in vecs):
            raise ValueError("spanning vectors must be 1-dimensional")
        if vecs:
            n = vecs[0].shape[0]
            for i, v in enumerate(vecs):
                if v.shape[0] != n:
                    raise DimensionMismatchError(
                        f"vector {i} has length {v.shape[0]}, expected {n}"
                    )
            mat = np.column_stack(vecs)
        else:
            if ambient_dim is None:
                raise ValueError("ambient_dim is required for an empty span")
            mat = np.zeros((ambient_dim, 0), dtype=complex)
    cut = _cut_svd(mat, tol)
    return Subspace(cut.u[:, : cut.rank], validate=False)


def null_space(matrix: np.ndarray, tol: Tolerance | None = None) -> Subspace:
    """Right null space {x : matrix @ x = 0} as a Subspace of the column domain."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    cut = _cut_svd(matrix, tol)
    return Subspace(cut.vh[cut.rank :].conj().T, validate=False)


def subspace_sum(s1: Subspace, s2: Subspace, tol: Tolerance | None = None) -> Subspace:
    _check_same_ambient(s1, s2)
    if s1.dim == 0:
        return s2
    if s2.dim == 0:
        return s1
    return orthonormalize(np.hstack([s1.basis, s2.basis]), tol)


def subspace_complement(s: Subspace, tol: Tolerance | None = None) -> Subspace:
    """Orthogonal complement, the null space of the adjoint basis."""
    return null_space(s.basis.conj().T, tol)


def subspace_intersect(s1: Subspace, s2: Subspace, tol: Tolerance | None = None) -> Subspace:
    """S1 ∩ S2 from one SVD, ranked by the sines of the principal angles.

    With B the basis of the lower-dimensional operand and C that of the
    other, the residual map B - C (C* B) has the principal-angle sines as its
    singular values, so its null space holds the coordinates (in B) of the
    common directions: a direction is shared when its sine falls under the
    rank cutoff.  B times an orthonormal null-space basis is already
    orthonormal.
    """
    _check_same_ambient(s1, s2)
    if s1.dim < s2.dim:
        s1, s2 = s2, s1
    if s2.dim == 0:
        return s2
    coords = matrix_preimage(s2.basis, s1, tol)
    return Subspace(s2.basis @ coords.basis, validate=False)


def subspace_contains(outer: Subspace, inner: Subspace, tol: Tolerance | None = None) -> bool:
    """Whether inner is contained in outer, tested columnwise on the inner basis."""
    _check_same_ambient(outer, inner)
    if inner.dim == 0:
        return True
    if inner.dim > outer.dim:
        return False
    resid = inner.basis - outer.basis @ (outer.basis.conj().T @ inner.basis)
    return _negligible(resid, outer.ambient_dim, tol)


def _negligible(resid: np.ndarray, dim: int, tol: Tolerance | None) -> bool:
    """Whether every column of a residual in C^dim is within the residual
    threshold at scale 1: the containment test for columns of norm at most
    1 (an orthonormal basis, a graph block, a block times orthonormal
    coordinates).  The columns of X lie in S when (I - P_S) X is
    negligible, and in the complement of S when S* X is."""
    return bool(np.all(np.linalg.norm(resid, axis=0) <= _tol(tol).residual(1.0, dim)))


def subspace_equals(s1: Subspace, s2: Subspace, tol: Tolerance | None = None) -> bool:
    _check_same_ambient(s1, s2)
    return s1.dim == s2.dim and subspace_contains(s1, s2, tol)


def matrix_image(matrix: np.ndarray, s: Subspace, tol: Tolerance | None = None) -> Subspace:
    """Image of the subspace under a matrix, matrix @ S."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape[1] != s.ambient_dim:
        raise DimensionMismatchError(
            f"matrix has {matrix.shape[1]} columns, subspace ambient is {s.ambient_dim}"
        )
    if s.dim == 0:
        return zero_space(matrix.shape[0])
    return orthonormalize(matrix @ s.basis, tol)


def matrix_preimage(matrix: np.ndarray, s: Subspace, tol: Tolerance | None = None) -> Subspace:
    """Preimage {x : matrix @ x in S}."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape[0] != s.ambient_dim:
        raise DimensionMismatchError(
            f"matrix has {matrix.shape[0]} rows, subspace ambient is {s.ambient_dim}"
        )
    residual_map = matrix - s.basis @ (s.basis.conj().T @ matrix)
    return null_space(residual_map, tol)


@dataclass(frozen=True, eq=False)
class Coset:
    """An affine set point + direction; the empty set is a value, not an error."""

    ambient_dim: int
    point: np.ndarray | None
    direction: Subspace | None

    @classmethod
    def of(cls, point: np.ndarray, direction: Subspace) -> "Coset":
        point = _as_vector(point, direction.ambient_dim, "coset point")
        return cls(direction.ambient_dim, point, direction)

    @classmethod
    def empty(cls, ambient_dim: int) -> "Coset":
        return cls(ambient_dim, None, None)

    @property
    def is_empty(self) -> bool:
        return self.point is None

    def contains(self, v: np.ndarray, tol: Tolerance | None = None) -> bool:
        if self.is_empty:
            return False
        v = _as_vector(v, self.ambient_dim, "vector")
        return self.direction.contains_vector(v - self.point, tol)

    def translate(self, delta: np.ndarray) -> "Coset":
        if self.is_empty:
            return self
        delta = _as_vector(delta, self.ambient_dim, "translation")
        return Coset(self.ambient_dim, self.point + delta, self.direction)

    def _constant_value(self, value, message: str, scale: float = 1.0) -> float:
        """``value`` at the point, checked to stay within 1e-8 of
        ``scale + value`` one unit direction further along: an objective that
        is constant on the coset must not vary across its representatives
        (else ``ConsistencyError(message)``).  ``scale`` is the size on which
        the two evaluations round, never below 1 as the step has unit length."""
        at_point = value(self.point)
        if self.direction.dim:
            other = value(self.point + self.direction.basis[:, 0])
            if abs(other - at_point) > 1e-8 * (scale + at_point):
                raise ConsistencyError(message)
        return at_point

    def min_norm_point(self) -> np.ndarray:
        if self.is_empty:
            raise ValueError("empty coset has no points")
        return self.point - self.direction.project(self.point)

    def equals(self, other: "Coset", tol: Tolerance | None = None) -> bool:
        """Same directions, and the gap between the points in them, compared
        at the larger of the two points' norms: a gap computed from two large
        points rounds on their size."""
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatchError("cosets live in different ambient spaces")
        if self.is_empty or other.is_empty:
            return self.is_empty and other.is_empty
        if not subspace_equals(self.direction, other.direction, tol):
            return False
        scale = float(max(np.linalg.norm(self.point), np.linalg.norm(other.point)))
        return self.direction._contains_at(other.point - self.point, tol, scale)

    def __repr__(self):
        if self.is_empty:
            return f"Coset(empty, ambient={self.ambient_dim})"
        return f"Coset(dim={self.direction.dim}, ambient={self.ambient_dim})"


# ---------------------------------------------------------------------------
# acceptance thresholds of the library's checks

# the Gram gap past which a validated basis is stored as its polar factor
# and a graph-block image is re-orthonormalized: far below the 1e-8 a
# validated basis may be off, and above the rounding of a product of
# orthonormal factors (under 1e-14 at n = 200)
_ORTHONORMAL_GRAM_GAP = 1e-13

# Multiple of eps * dim * (||a|| ||x|| + ||b||), the rounding error of a
# least-squares solve of a x = b, that the checks of a solve accept (the
# worst seen on Gaussian and ill-conditioned families was 15)
BACKWARD_ERROR_FACTOR = 100


def _solve_rounding(dim: int, norm_a: float, norm_x: float, norm_b: float) -> float:
    """The rounding error a checked solve x of a x = b may carry in dimension ``dim``."""
    return BACKWARD_ERROR_FACTOR * dim * np.finfo(float).eps * (norm_a * norm_x + norm_b)
