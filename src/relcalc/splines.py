"""Abstract splines (minimal ||Tx|| under V x = b) and the associated
quadratic smoothing trade-off min ||Tx||^2 + rho ||Vx - b||^2.

The interpolation problem reduces to the weighted projection with weight
T*T onto ker V, taken from its block form with T as the root of the weight;
the smoothing problem is an orthogonal projection onto the range pairs
{(Tx, Vx)} after rescaling the second slot by sqrt(rho).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError
from .subspaces import (
    Coset,
    Cut,
    Subspace,
    Tolerance,
    _data_cut,
    _solve_rounding,
    _tol,
)
from .weighted import _Corner, _factor_corner, _project_by_blocks


@dataclass(frozen=True, eq=False)
class SplineProblem:
    """Data for min ||T x|| subject to V x = b; V must be surjective.

    The problem keeps read-only copies of T, V and b, so a caller's later
    edit of their arrays changes neither the problem nor its answer.  It
    also keeps the one full SVD of V, which decides surjectivity at the
    default tolerance here and gives ``spline_solve`` its feasible point and
    ker V at any tolerance.  Every rank of V is read on V's own scale
    (``Tolerance._data_rank``), so the units of V and b decide none.
    """

    T: np.ndarray
    V: np.ndarray
    b: np.ndarray
    _v_cut: Cut = field(init=False, repr=False)

    def __post_init__(self):
        T = np.array(self.T, dtype=complex)
        V = np.array(self.V, dtype=complex)
        b = np.array(self.b, dtype=complex)
        if T.ndim != 2 or V.ndim != 2 or b.ndim != 1:
            raise ValueError("T and V must be matrices, b a vector")
        if T.shape[1] != V.shape[1]:
            raise ValueError(
                f"T acts on C^{T.shape[1]} but V acts on C^{V.shape[1]}"
            )
        if b.shape[0] != V.shape[0]:
            raise ValueError(f"b has length {b.shape[0]}, expected {V.shape[0]}")
        if not all(np.all(np.isfinite(a)) for a in (T, V, b)):
            raise ValueError("T, V and b must be finite")
        v_cut = _data_cut(V, None)
        if v_cut.rank < V.shape[0]:
            raise ValueError("V must be surjective (full row rank)")
        for name, a in (("T", T), ("V", V), ("b", b)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "_v_cut", v_cut)


@dataclass(frozen=True, eq=False)
class SmoothingProblem:
    base: SplineProblem
    rho: float

    def __post_init__(self):
        if not 0 < self.rho < np.inf:
            raise ValueError("rho must be positive and finite")


@dataclass(frozen=True)
class SplineSolution:
    exists: bool
    spline_set: Coset
    min_value: float


@dataclass(frozen=True)
class SmoothingSolution:
    argmin_set: Coset
    min_value: float


@dataclass(frozen=True, eq=False)
class ProjectionBlocks:
    """The four operator blocks of the orthogonal projector onto {(Tx, Vx)}."""

    tt: np.ndarray
    tv: np.ndarray
    vt: np.ndarray
    vv: np.ndarray

    def matrix(self) -> np.ndarray:
        return np.block([[self.tt, self.tv], [self.vt, self.vv]])


def spline_solve(p: SplineProblem, tol: Tolerance | None = None) -> SplineSolution:
    """Interpolating splines as the reduction of a feasible point.

    Take any x~ with V x~ = b; the spline set is (I - P) x~ for the weighted
    projection P with weight T*T onto ker V, from its block form on an
    orthonormal basis K of ker V: the point x~ - K a^-1 K* T*T x~ with
    a = K* T*T K, and the direction ker V cap ker T.  The problem's full SVD
    of V, cut on V's own scale at the rank cutoff of ``tol``, gives both
    x~ = V_r S_r^-1 U_r* b from its kept triplets and K from its dropped
    right singular vectors.  The corner is read on T's own scale: with
    t = ||T||_F (1 when T = 0), one eigh of the corner of T / t serves every
    feasible point, the reduction takes T / t as the root of the weight,
    and the minimum is t times the (T / t)-norm of the spline, so the units
    of T decide no cut; the call factors nothing else.  The result must not
    depend on the feasible point chosen, the objective must be constant on
    the set (on the scale of the spline, where its two evaluations round),
    and every member must still interpolate -- all three are checked.
    """
    cut = p._v_cut._replace(rank=_tol(tol)._data_rank(p._v_cut.s, p.V.shape))
    x_feasible = cut.solve(p.b)
    ker_v = Subspace(cut.vh[cut.rank :].conj().T, validate=False)
    t = float(np.linalg.norm(p.T)) or 1.0
    root = p.T / t
    corner = _factor_corner(root.conj().T @ root, ker_v.basis, tol)
    spline_set = _reduce(corner, root, x_feasible)
    min_value = t * spline_set._constant_value(
        lambda x: float(np.linalg.norm(root @ x)),
        "objective varies across the spline set",
        max(1.0, float(np.linalg.norm(spline_set.point))),
    )
    _check_interpolation(p, spline_set, tol)
    if ker_v.dim:
        alternative = _reduce(corner, root, x_feasible + ker_v.basis[:, 0])
        if not spline_set.equals(alternative, tol):
            raise ConsistencyError("spline set depends on the feasible point chosen")
    return SplineSolution(exists=True, spline_set=spline_set, min_value=min_value)


def _reduce(corner: _Corner, root: np.ndarray, x: np.ndarray) -> Coset:
    """(I - P) x for the weighted projection P with weight R*R onto ker V,
    whose corner K* R*R K is factored, for R = ``root``; R*R is psd by
    construction, so it needs no certificate."""
    projected = _project_by_blocks(corner, root, x)
    if projected.is_empty:
        # dom (I - P) = dom P is everything for a psd weight, so this is
        # rounding of the existence test against a zero threshold: it
        # raises at Tolerance(0, 0) (ROADMAP item 13)
        raise ConsistencyError("feasible point escaped the projection domain")
    return Coset.of(x - projected.point, projected.direction)


def _check_interpolation(p: SplineProblem, spline_set: Coset, tol: Tolerance | None):
    """V x = b up to ``_interpolation`` plus the rounding of x: an
    ill-conditioned V has a large x, and V x rounds at eps ||V|| ||x||."""
    k, norm_b, norm_v = p.V.shape[0], float(np.linalg.norm(p.b)), float(p._v_cut.s.max(initial=0.0))
    rounding = _solve_rounding(k, norm_v, float(np.linalg.norm(spline_set.point)), norm_b)
    thresh = _tol(tol)._interpolation(max(1.0, norm_b), k) + rounding
    if np.linalg.norm(p.V @ spline_set.point - p.b) > thresh:
        raise ConsistencyError("spline representative misses the interpolation constraint")
    if spline_set.direction.dim:
        drift = np.linalg.norm(p.V @ spline_set.direction.basis, axis=0)
        if np.any(drift > thresh):
            raise ConsistencyError("spline set directions leave the constraint set")


def smooth_solve(p: SmoothingProblem, tol: Tolerance | None = None) -> SmoothingSolution:
    """Minimize ||Tx||^2 + rho ||Vx - b||^2 by a rescaled orthogonal projection.

    Stacking T over sqrt(rho) V into S turns the objective into the distance
    from S x to the target (0, sqrt(rho) b).  One SVD of S, cut on S's own
    scale at the rank cutoff, gives the minimizer x* = S^+ target, the
    argmin directions ker T cap ker V and an orthonormal basis of the range
    pairs {(Tx, sqrt(rho) Vx)}; ``_smoothing_minimum`` checks x* against
    them.
    """
    T, V, b, rho = p.base.T, p.base.V, p.base.b, p.rho
    stacked = np.vstack([T, np.sqrt(rho) * V])
    target = np.concatenate([np.zeros(T.shape[0], dtype=complex), np.sqrt(rho) * b])
    cut = _data_cut(stacked, tol)
    x_star = cut.solve(target)
    min_value = _smoothing_minimum(stacked, target, x_star, cut.u[:, : cut.rank], cut.s)
    argmin = Coset.of(x_star, Subspace(cut.vh[cut.rank :].conj().T, validate=False))
    return SmoothingSolution(argmin_set=argmin, min_value=min_value)


def _smoothing_minimum(
    stacked: np.ndarray,
    target: np.ndarray,
    x_star: np.ndarray,
    pairs: np.ndarray,
    sigma: np.ndarray,
) -> float:
    """The objective ||S x* - target|| at the candidate minimizer, checked.

    ``pairs`` is an orthonormal basis of the range pairs ran S, of which the
    singular values ``sigma`` of S kept the first ``pairs.shape[1]``.  x* must
    be stationary, S*(S x* - target) = 0, and the paper's projection of the
    target onto the range pairs must leave the same distance.  Both hold up
    to the rounding of a least-squares solve, eps ||S|| (||S|| ||x*|| +
    ||target||) times a dimension factor; stationarity also allows what the
    rank cut declared zero, the largest dropped singular value times
    ||target||.  The bound has no condition-number factor.
    """
    rank = pairs.shape[1]
    top = float(sigma[0]) if sigma.size else 0.0
    dropped = float(sigma[rank]) if rank < sigma.size else 0.0
    norm_target = float(np.linalg.norm(target))
    slack = _solve_rounding(max(stacked.shape), top, float(np.linalg.norm(x_star)), norm_target)
    residual = stacked @ x_star - target
    if np.linalg.norm(stacked.conj().T @ residual) > top * slack + dropped * norm_target:
        raise ConsistencyError("smoothing minimizer is not stationary")
    min_value = float(np.linalg.norm(residual))
    via_projection = float(np.linalg.norm(target - pairs @ (pairs.conj().T @ target)))
    if abs(via_projection - min_value) > slack:
        raise ConsistencyError(
            "projection of the target onto the range pairs reaches a different minimum"
        )
    return min_value


def projection_m(T: np.ndarray, V: np.ndarray, tol: Tolerance | None = None) -> ProjectionBlocks:
    """Blocks of the orthogonal projector onto the range pairs {(Tx, Vx)}.

    The projector is Q Q* for an orthonormal basis Q of the stacked column
    space of (T; V), the kept left singular vectors of one SVD of the stack
    cut on its own scale, as ``smooth_solve`` cuts it; its blocks are the
    row-block products of Q with itself, so the assembled matrix is
    idempotent and selfadjoint with that column space as its range.
    """
    T = np.asarray(T, dtype=complex)
    V = np.asarray(V, dtype=complex)
    if T.ndim != 2 or V.ndim != 2 or T.shape[1] != V.shape[1]:
        raise ValueError("T and V must be matrices with a common domain")
    cut = _data_cut(np.vstack([T, V]), tol)
    q = cut.u[:, : cut.rank]
    q_t, q_v = q[: T.shape[0]], q[T.shape[0] :]
    return ProjectionBlocks(
        tt=q_t @ q_t.conj().T,
        tv=q_t @ q_v.conj().T,
        vt=q_v @ q_t.conj().T,
        vv=q_v @ q_v.conj().T,
    )
