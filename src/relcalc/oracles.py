"""Independent brute-force oracles used for cross-checking results.

Everything here is deliberately written against raw numpy least squares and
pseudoinverses, away from the subspace/relation machinery, so that an oracle
never shares a code path with the computation it checks.  The library never
calls an oracle; the test suite does, and the CLI's ``--verify`` runs every
one, some through another (``intersect_de_morgan`` through
``krein_regular``, ``op_sum_by_cylinders`` through
``block_graph_by_cylinders``, ``minimize_seminorm_over_coset`` through
``w1w2_by_graph``).  Where the library adopts an oracle's formula, the
oracle keeps the one the library dropped: the de Morgan intersection, the
graph-and-axis route to the kernel and the multivalued part, the cylinder
intersections behind composition and the operator sum, the companion route
to Krein regularity (S meets its J-companion in 0 and with it spans
everything) and the Schur complement behind the shorted operator live on
here.  The cylinder route to restriction, which ``--verify`` never runs,
lives with the tests of ``restrict``.

An oracle factors only what it does not already know.  The complement of
a coordinate axis is exactly the other axis, so the graph-and-axis route
factors the graph's complement and no axis, and meets on the free
coordinates.  A cylinder's complement is its graph's complement padded by
zeros (T^perp x {0} for T x C^e), so the cylinder routes factor the two
graphs' complements and build no cylinder.  Each least-squares stage
takes its point and its flat directions from one SVD under one cut, so
the point never inverts a singular value that the flat directions count
as zero.  Every SVD asks for the full factors only of a wide matrix.
"""

from __future__ import annotations

import numpy as np


def _sqrt_psd(matrix: np.ndarray) -> np.ndarray:
    sym = (matrix + matrix.conj().T) / 2
    eigs, vecs = np.linalg.eigh(sym)
    top = float(eigs[-1]) if eigs.size else 0.0
    # flush rounding-level eigenvalues, relative to the largest, so the root
    # keeps the kernel exact whatever the units of the matrix
    eigs = np.where(eigs > 1e-12 * max(top, 0.0), eigs, 0.0)
    return (vecs * np.sqrt(eigs)) @ vecs.conj().T


def _rank(s: np.ndarray, atol: float, floor: float = 0.0) -> int:
    """The oracles' one cut: the singular values above 1e-10 of the largest
    (or of ``floor``, when that is larger) plus atol."""
    return int(np.count_nonzero(s > 1e-10 * max(s.max(initial=0.0), floor) + atol))


def _svd(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One SVD, with the full factors exactly when the matrix is wide: vh is
    then square either way, so ``vh[rank:]`` spans the null space, and no
    tall matrix builds a full U to throw away."""
    return np.linalg.svd(matrix, full_matrices=matrix.shape[0] < matrix.shape[1])


def _null_basis(matrix: np.ndarray, atol: float = 1e-12, floor: float = 0.0) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape[1] == 0:
        return np.zeros((0, 0), dtype=complex)
    if matrix.shape[0] == 0:
        return np.eye(matrix.shape[1], dtype=complex)
    _, s, vh = _svd(matrix)
    return vh[_rank(s, atol, floor):].conj().T


def _min_norm_and_null(matrix: np.ndarray, rhs: np.ndarray, atol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """The min-norm least-squares solution c of ``matrix c = rhs`` and an
    orthonormal basis of null(matrix), both from one SVD cut once by
    ``_rank``: the values the solution inverts are exactly those the null
    space leaves out, so no rounding-level value is inverted."""
    u, s, vh = _svd(matrix)
    r = _rank(s, atol)
    return vh[:r].conj().T @ ((u[:, :r].conj().T @ rhs) / s[:r]), vh[r:].conj().T


def _span_basis(matrix: np.ndarray, atol: float = 1e-12) -> np.ndarray:
    """Orthonormal basis of the column span, cut by ``_rank`` as ``_null_basis`` is."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape[1] == 0:
        return np.zeros((matrix.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(matrix, full_matrices=False)
    return u[:, :_rank(s, atol)]


def intersect_de_morgan(b1: np.ndarray, b2: np.ndarray, atol: float = 1e-12) -> np.ndarray:
    """Orthonormal basis of span(b1) ∩ span(b2) by de Morgan in the subspace
    lattice, (S1^perp + S2^perp)^perp, each complement a null space of the
    adjoint basis."""
    perp = np.hstack([_complement(b1, atol), _complement(b2, atol)])
    return _null_basis(perp.conj().T, atol=atol)


def _complement(basis: np.ndarray, atol: float) -> np.ndarray:
    return _null_basis(basis.conj().T, atol=atol)


def kernel_and_mul_via_axes(
    graph: np.ndarray, dim_in: int, atol: float = 1e-12
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel and multivalued part of the relation with graph basis ``graph``
    (inputs stacked on outputs), read off the de Morgan intersections of the
    graph with the input axis C^n x {0} and the output axis {0} x C^m.

    The graph's complement G-perp, common to both, is computed once.  An
    axis's complement is the other axis, exactly, so no axis is factored:
    the pairs (x, 0) orthogonal to G-perp are the x in null(G-perp[:n]*),
    and the pairs (0, y) the y in null(G-perp[n:]*), each one SVD on the
    free coordinates with an orthonormal null basis.  Each is cut on the
    scale of the full meet, whose matrix holds the axis's unit rows:
    1e-10 max(sigma_max, 1) + atol."""
    graph_perp = _complement(graph, atol)
    return (
        _null_basis(graph_perp[:dim_in].conj().T, atol, floor=1.0),
        _null_basis(graph_perp[dim_in:].conj().T, atol, floor=1.0),
    )


def compose_by_cylinders(r_graph: np.ndarray, t_graph: np.ndarray, n: int, atol: float = 1e-12) -> np.ndarray:
    """Graph basis of R T for T from C^n with graph basis ``t_graph`` and R
    with graph basis ``r_graph``: the triples (x, z, y) orthogonal to
    T^perp x {0} and {0} x R^perp, with z dropped."""
    k = t_graph.shape[0] - n
    t_perp, r_perp = _complement(t_graph, atol), _complement(r_graph, atol)
    perp = np.zeros((n + r_graph.shape[0], t_perp.shape[1] + r_perp.shape[1]), dtype=complex)
    perp[: n + k, : t_perp.shape[1]] = t_perp
    perp[n:, t_perp.shape[1] :] = r_perp
    triples = _null_basis(perp.conj().T, atol=atol)
    return _span_basis(np.vstack([triples[:n], triples[n + k :]]), atol)


def op_sum_by_cylinders(t_graph: np.ndarray, s_graph: np.ndarray, n: int, atol: float = 1e-12) -> np.ndarray:
    """Graph basis of T + S for T and S from C^n: the triples (x, y, z) with
    (x, y) in T and (x, z) in S, met from their complements T^perp x {0} and
    {(u, 0, w) : (u, w) in S^perp}, read as (x, y + z)."""
    m = t_graph.shape[0] - n
    t_perp, s_perp = _complement(t_graph, atol), _complement(s_graph, atol)
    perp = np.zeros((n + 2 * m, t_perp.shape[1] + s_perp.shape[1]), dtype=complex)
    perp[: n + m, : t_perp.shape[1]] = t_perp
    perp[:n, t_perp.shape[1] :] = s_perp[:n]
    perp[n + m :, t_perp.shape[1] :] = s_perp[n:]
    triples = _null_basis(perp.conj().T, atol=atol)
    return _span_basis(np.vstack([triples[:n], triples[n : n + m] + triples[n + m :]]), atol)


def block_graph_by_cylinders(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray, n: int, atol: float = 1e-12
) -> np.ndarray:
    """Graph basis of the relation generated by the 2x2 block relations with
    graph bases a, b, c, d on C^n: the componentwise sum of the operator sums
    a + c and b + d."""
    columns = np.hstack([op_sum_by_cylinders(a, c, n, atol), op_sum_by_cylinders(b, d, n, atol)])
    return _span_basis(columns, atol)


def pmn_graph(m: np.ndarray, k: np.ndarray, atol: float = 1e-12) -> np.ndarray:
    """Graph basis of the projection P(M, N) with range span(m) and kernel
    span(k): the pairs (u, u) for u in M and (v, 0) for v in N."""
    top = np.hstack([m, k])
    bottom = np.hstack([m, np.zeros_like(k)])
    return _span_basis(np.vstack([top, bottom]), atol)


def krein_regular(J: np.ndarray, B: np.ndarray, atol: float = 1e-12) -> bool:
    """Whether span(B) is regular for the indefinite metric of the symmetry
    J: exactly when S = span(B) meets its J-companion {x : B* J x = 0} only
    in 0 and the two together span the whole space."""
    companion = _null_basis(B.conj().T @ J, atol=atol)
    if intersect_de_morgan(B, companion, atol).shape[1]:
        return False
    return _span_basis(np.hstack([B, companion]), atol).shape[1] == J.shape[0]


def shorted_by_schur(W: np.ndarray, S: np.ndarray, atol: float = 1e-12) -> np.ndarray:
    """Shorted operator of the psd W to span(S): the Schur complement
    U (a - b c^+ b*) U* of c = V*WV, for a = U*WU, b = U*WV, U and V bases of
    S and S-perp from one SVD of the wide S*, and c^+ dropping eigenvalues up
    to atol."""
    _, s, vh = _svd(np.asarray(S, dtype=complex).conj().T)
    r = _rank(s, atol)
    u, v = vh[:r].conj().T, vh[r:].conj().T
    eigs, vecs = np.linalg.eigh(v.conj().T @ W @ v)
    c_pinv = (vecs * np.divide(1.0, eigs, out=np.zeros_like(eigs), where=eigs > atol)) @ vecs.conj().T
    b = u.conj().T @ W @ v
    short = u @ (u.conj().T @ W @ u - b @ c_pinv @ b.conj().T) @ u.conj().T
    return (short + short.conj().T) / 2


def complementable_by_span(
    W: np.ndarray, S: np.ndarray, atol: float = 1e-12
) -> tuple[bool, np.ndarray]:
    """Whether span(S) is W-complementable, and an orthonormal basis of the
    sum S + {x : S* W x = 0} of S and its W-companion, the domain of the
    weighted projection onto S.  Complementable exactly when that sum is the
    whole space."""
    domain = _span_basis(np.hstack([S, _null_basis(S.conj().T @ W, atol=atol)]), atol)
    return domain.shape[1] == W.shape[0], domain


def w1w2_by_graph(
    graph: np.ndarray, n: int, W1: np.ndarray, W2: np.ndarray, b: np.ndarray, atol: float = 1e-12
) -> tuple[np.ndarray, np.ndarray]:
    """Minimal-W2-seminorm points among the W1-least-squares solutions of
    b in A x, for A from C^n with graph basis ``graph``.

    In graph coordinates c, (x, y) = (F c, H c); the W1 solutions are F times
    the least-squares coset of W1^(1/2) H c = W1^(1/2) b, and the minimal W2
    seminorm over that coset is a second least-squares problem.  Each stage
    reads its point and its flat directions from one SVD, cut once.  Returns
    a minimizer and an orthonormal basis of the argmin directions."""
    F, H = graph[:n], graph[n:]
    r1 = _sqrt_psd(W1)
    coeff, flat_coords = _min_norm_and_null(r1 @ H, r1 @ b, atol)
    point, flat = minimize_seminorm_over_coset(W2, F @ coeff, F @ flat_coords)
    return point, _span_basis(flat, atol)


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
    seminorm stays minimal (the affine argmin set is minimizer + span of
    those), both from one SVD of W^(1/2) times the directions, cut once.
    """
    w_half = _sqrt_psd(weight)
    if directions.shape[1] == 0:
        return point.copy(), directions
    coeff, null = _min_norm_and_null(w_half @ directions, -(w_half @ point))
    return point + directions @ coeff, directions @ null


def spline_kkt(T: np.ndarray, V: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Equality-constrained least squares by null-space reduction of the
    stationarity system: parametrize V x = b, minimize ||T x|| over the
    parameters.  The feasible point is numpy's least squares and Z its own
    null basis of V; the stage T Z takes its point and its flat directions
    from one SVD, cut once.  Returns (min value, a minimizer, argmin
    directions)."""
    x_feasible, *_ = np.linalg.lstsq(V, b, rcond=None)
    Z = _null_basis(V)
    if Z.shape[1]:
        coeff, null = _min_norm_and_null(T @ Z, -(T @ x_feasible))
        minimizer = x_feasible + Z @ coeff
        flat = Z @ null
    else:
        minimizer = x_feasible
        flat = Z
    return float(np.linalg.norm(T @ minimizer)), minimizer, flat


def smoothing_stacked_lstsq(T: np.ndarray, V: np.ndarray, b: np.ndarray, rho: float) -> np.ndarray:
    """A minimizer of ||T x||^2 + rho ||V x - b||^2: numpy's least-squares
    solve of [T; sqrt(rho) V] x = (0, sqrt(rho) b), which works on the
    stacked map itself and does not square its condition number."""
    stacked = np.vstack([T, np.sqrt(rho) * V])
    target = np.concatenate([np.zeros(T.shape[0], dtype=complex), np.sqrt(rho) * b])
    x, *_ = np.linalg.lstsq(stacked, target, rcond=None)
    return x
