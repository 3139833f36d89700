"""Independent brute-force oracles used for cross-checking results.

Everything here is deliberately written against raw numpy least squares and
pseudoinverses, away from the subspace/relation machinery, so that an oracle
never shares a code path with the computation it checks.  Where the library
adopts an oracle's formula, the oracle keeps the one the library dropped: the
de Morgan intersection and the graph-and-axis route to the kernel and the
multivalued part live on here.
"""

from __future__ import annotations

import numpy as np


def _sqrt_psd(matrix: np.ndarray) -> np.ndarray:
    sym = (matrix + matrix.conj().T) / 2
    eigs, vecs = np.linalg.eigh(sym)
    top = float(eigs[-1]) if eigs.size else 0.0
    # flush rounding-level eigenvalues so the root keeps the kernel exact
    eigs = np.where(eigs >= 1e-12 * max(top, 0.0) + 1e-14, eigs, 0.0)
    return (vecs * np.sqrt(eigs)) @ vecs.conj().T


def _null_basis(matrix: np.ndarray, rtol: float = 1e-10, atol: float = 1e-12) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape[1] == 0:
        return np.zeros((0, 0), dtype=complex)
    if matrix.shape[0] == 0:
        return np.eye(matrix.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(matrix)
    cutoff = rtol * (s[0] if s.size else 0.0) + atol
    rank = int(np.count_nonzero(s > cutoff))
    return vh[rank:].conj().T


def _span_basis(matrix: np.ndarray, atol: float = 1e-12) -> np.ndarray:
    """Orthonormal basis of the column span, cut like _null_basis."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape[1] == 0:
        return np.zeros((matrix.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(matrix, full_matrices=False)
    rank = int(np.count_nonzero(s > 1e-10 * s[0] + atol))
    return u[:, :rank]


def intersect_de_morgan(b1: np.ndarray, b2: np.ndarray, atol: float = 1e-12) -> np.ndarray:
    """Orthonormal basis of span(b1) ∩ span(b2) by de Morgan in the subspace
    lattice, (S1^perp + S2^perp)^perp, each complement a null space of the
    adjoint basis."""
    perp = np.hstack([_null_basis(b.conj().T, atol=atol) for b in (b1, b2)])
    if perp.shape[1] == 0:
        return np.eye(b1.shape[0], dtype=complex)
    return _null_basis(perp.conj().T, atol=atol)


def kernel_and_mul_via_axes(
    graph: np.ndarray, dim_in: int, atol: float = 1e-12
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel and multivalued part of the relation with graph basis ``graph``
    (inputs stacked on outputs), read off the intersections of the graph with
    the input axis C^n x {0} and the output axis {0} x C^m."""
    axes = np.eye(graph.shape[0], dtype=complex)
    ker_pairs = intersect_de_morgan(graph, axes[:, :dim_in], atol)
    mul_pairs = intersect_de_morgan(graph, axes[:, dim_in:], atol)
    return _span_basis(ker_pairs[:dim_in], atol), _span_basis(mul_pairs[dim_in:], atol)


def weighted_min_over_span(weight: np.ndarray, span: np.ndarray, b: np.ndarray) -> float:
    """min over y in the column span of ||y - b|| in the weight seminorm,
    solved as an ordinary least-squares problem in the span coordinates."""
    w_half = _sqrt_psd(weight)
    if span.shape[1] == 0:
        return float(np.linalg.norm(w_half @ b))
    coeff, *_ = np.linalg.lstsq(w_half @ span, w_half @ b, rcond=None)
    return float(np.linalg.norm(w_half @ (span @ coeff - b)))


def minimize_seminorm_over_coset(
    weight: np.ndarray, point: np.ndarray, directions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """argmin of the weight seminorm over point + span(directions).

    Returns a minimizer and a basis of the directions along which the
    seminorm stays minimal (the affine argmin set is minimizer + span of those).
    """
    w_half = _sqrt_psd(weight)
    if directions.shape[1] == 0:
        return point.copy(), directions
    coeff, *_ = np.linalg.lstsq(w_half @ directions, -(w_half @ point), rcond=None)
    minimizer = point + directions @ coeff
    flat = directions @ _null_basis(w_half @ directions)
    return minimizer, flat


def spline_kkt(T: np.ndarray, V: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Equality-constrained least squares by null-space reduction of the
    stationarity system: parametrize V x = b, minimize ||T x|| over the
    parameters.  Returns (min value, a minimizer, argmin directions)."""
    x_feasible, *_ = np.linalg.lstsq(V, b, rcond=None)
    Z = _null_basis(V)
    if Z.shape[1]:
        coeff, *_ = np.linalg.lstsq(T @ Z, -(T @ x_feasible), rcond=None)
        minimizer = x_feasible + Z @ coeff
        flat = Z @ _null_basis(T @ Z)
    else:
        minimizer = x_feasible
        flat = Z
    return float(np.linalg.norm(T @ minimizer)), minimizer, flat


def smoothing_normal_equations(T: np.ndarray, V: np.ndarray, b: np.ndarray, rho: float) -> np.ndarray:
    """Stationarity solve (T*T + rho V*V) x = rho V* b via pseudoinverse."""
    lhs = T.conj().T @ T + rho * (V.conj().T @ V)
    rhs = rho * (V.conj().T @ b)
    return np.linalg.pinv(lhs) @ rhs
