"""Plain-numpy references and property checks for relcalc results.

Nothing here imports relcalc.  Inputs are the raw arrays the benchmark drew
(spanning sets, matrices, vectors), not relcalc objects, and results are read
only as arrays (bases, points, flags).  Each check raises ``CheckError`` with
a message when a result is wrong and returns None when it is right.

Rank decisions here use a relative cut far from both ends of the gap that
random instances have (their "zero" singular values are at rounding level and
their nonzero ones far above 1e-8), so a disagreement with relcalc's own cut
means a wrong answer, not a different tolerance.
"""

from __future__ import annotations

import numpy as np

RANK_RTOL = 1e-8
SPACE_TOL = 1e-7  # projector distance between two bases of one subspace
VALUE_RTOL = 1e-8  # relative gap between two minimum values
MEMBER_TOL = 1e-7  # residual of a point that should lie in a coset


class CheckError(AssertionError):
    """A relcalc result disagrees with the benchmark's own reference."""


def _require(ok: bool, message: str):
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# subspace arithmetic on raw arrays


def orth(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span."""
    mat = np.asarray(mat, dtype=complex)
    if mat.size == 0:
        return np.zeros((mat.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.count_nonzero(s > RANK_RTOL * max(s[0], 1.0)))
    return u[:, :rank]


def null(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the right null space."""
    mat = np.asarray(mat, dtype=complex)
    cols = mat.shape[1]
    if cols == 0:
        return np.zeros((0, 0), dtype=complex)
    if mat.shape[0] == 0:
        return np.eye(cols, dtype=complex)
    _, s, vh = np.linalg.svd(mat, full_matrices=True)
    rank = int(np.count_nonzero(s > RANK_RTOL * max(s[0], 1.0))) if s.size else 0
    return vh[rank:].conj().T


def intersect(b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Basis of span(b1) ∩ span(b2) from the null space of [b1, -b2]."""
    q1, q2 = orth(b1), orth(b2)
    if q1.shape[1] == 0 or q2.shape[1] == 0:
        return np.zeros((q1.shape[0], 0), dtype=complex)
    coeff = null(np.hstack([q1, -q2]))
    return orth(q1 @ coeff[: q1.shape[1]])


def projector(basis: np.ndarray) -> np.ndarray:
    q = orth(basis)
    return q @ q.conj().T


def space_gap(b1: np.ndarray, b2: np.ndarray) -> float:
    """Projector distance; inf when the dimensions differ."""
    q1, q2 = orth(b1), orth(b2)
    if q1.shape[1] != q2.shape[1]:
        return float("inf")
    return float(np.linalg.norm(q1 @ q1.conj().T - q2 @ q2.conj().T))


def require_same_space(got: np.ndarray, want: np.ndarray, what: str):
    gap = space_gap(got, want)
    _require(gap <= SPACE_TOL, f"{what}: subspace differs from reference (gap {gap:.3e})")


def outside(outer: np.ndarray, vecs: np.ndarray) -> float:
    """Largest relative residual of the columns of vecs off span(outer)."""
    vecs = np.asarray(vecs, dtype=complex).reshape(outer.shape[0], -1)
    if vecs.shape[1] == 0:
        return 0.0
    q = orth(outer)
    resid = vecs - q @ (q.conj().T @ vecs)
    scale = np.maximum(np.linalg.norm(vecs, axis=0), 1.0)
    return float(np.max(np.linalg.norm(resid, axis=0) / scale))


def psd_sqrt(w: np.ndarray) -> np.ndarray:
    sym = (w + w.conj().T) / 2
    eigs, vecs = np.linalg.eigh(sym)
    eigs = np.where(eigs > RANK_RTOL * max(float(eigs[-1]), 1.0), eigs, 0.0)
    return (vecs * np.sqrt(eigs)) @ vecs.conj().T


def min_eig(h: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((h + h.conj().T) / 2)[0])


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= VALUE_RTOL * (1.0 + abs(want))


# ---------------------------------------------------------------------------
# relation calculus on raw spanning sets; a relation C^n -> C^m is given by
# a (n + m) x k matrix whose columns span its graph


def compose_graph(r: np.ndarray, t: np.ndarray, n: int, k: int) -> np.ndarray:
    """Spanning set of R T for T: C^n -> C^k and R: C^k -> C^m."""
    t_in, t_out = t[:n], t[n:]
    r_in, r_out = r[:k], r[k:]
    coeff = null(np.hstack([t_out, -r_in]))
    a, c = coeff[: t.shape[1]], coeff[t.shape[1] :]
    return np.vstack([t_in @ a, r_out @ c])


def adjoint_graph(t: np.ndarray, n: int) -> np.ndarray:
    """Spanning set of T* = {(u, v) : <y, u> = <x, v> for (x, y) in T}."""
    return null(np.hstack([t[n:].conj().T, -t[:n].conj().T]))


def parts_of(g: np.ndarray, n: int) -> dict:
    g_in, g_out = g[:n], g[n:]
    return {
        "dom": orth(g_in),
        "ran": orth(g_out),
        "ker": orth(g_in @ null(g_out)),
        "mul": orth(g_out @ null(g_in)),
    }


def check_idempotent_projection(graph: np.ndarray, n: int, what: str):
    """E^2 = E and ran E inside dom E."""
    squared = compose_graph(graph, graph, n, n)
    require_same_space(squared, graph, f"{what}: E^2 = E")
    resid = outside(graph[:n], graph[n:])
    _require(resid <= MEMBER_TOL, f"{what}: ran E leaves dom E ({resid:.3e})")


def squares(graph: np.ndarray, n: int) -> tuple[bool, bool]:
    """(E^2 contains E, E contains E^2) for a square relation."""
    squared = compose_graph(graph, graph, n, n)
    return outside(squared, graph) <= MEMBER_TOL, outside(graph, squared) <= MEMBER_TOL


# ---------------------------------------------------------------------------
# weighted least squares


def lss_reference(g: np.ndarray, n: int, w: np.ndarray, b: np.ndarray) -> float:
    """min over y in ran A of the W-seminorm of y - b, by SVD and lstsq."""
    w_half = psd_sqrt(w)
    ran = orth(g[n:])
    if ran.shape[1] == 0:
        return float(np.linalg.norm(w_half @ b))
    coeff, *_ = np.linalg.lstsq(w_half @ ran, w_half @ b, rcond=None)
    return float(np.linalg.norm(w_half @ (ran @ coeff - b)))


def best_value_at(g: np.ndarray, n: int, w: np.ndarray, b: np.ndarray, x: np.ndarray) -> float:
    """min over the values y of A x of the W-seminorm of y - b (inf off dom A)."""
    g_in, g_out = g[:n], g[n:]
    c0, *_ = np.linalg.lstsq(g_in, x, rcond=None)
    if np.linalg.norm(g_in @ c0 - x) > MEMBER_TOL * max(1.0, float(np.linalg.norm(x))):
        return float("inf")
    w_half = psd_sqrt(w)
    z = null(g_in)
    r0 = w_half @ (g_out @ c0 - b)
    if z.shape[1]:
        t, *_ = np.linalg.lstsq(w_half @ g_out @ z, -r0, rcond=None)
        r0 = r0 + w_half @ g_out @ z @ t
    return float(np.linalg.norm(r0))


def check_lss(g, n, w, b, exists, min_value, witness):
    ref = lss_reference(g, n, w, b)
    _require(bool(exists), "solve: reported no solution for a psd weight")
    _require(_close(min_value, ref), f"solve: minimum {min_value!r} != reference {ref!r}")
    attained = best_value_at(g, n, w, b, np.asarray(witness, dtype=complex))
    _require(_close(attained, ref), f"solve: witness attains {attained!r}, not {ref!r}")


def w1w2_reference(g, n, w1, w2, b) -> tuple[np.ndarray, np.ndarray]:
    """Two-stage lstsq: W1-least-squares set in graph coordinates, then the
    W2-minimal part of it.  Returns (a minimizer, argmin directions)."""
    g_in, g_out = g[:n], g[n:]
    h1 = psd_sqrt(w1) @ g_out
    c1, *_ = np.linalg.lstsq(h1, psd_sqrt(w1) @ b, rcond=None)
    free = null(h1)
    x1 = g_in @ c1
    dirs = g_in @ free
    w2_half = psd_sqrt(w2)
    if dirs.shape[1] == 0:
        return x1, np.zeros((n, 0), dtype=complex)
    t, *_ = np.linalg.lstsq(w2_half @ dirs, -(w2_half @ x1), rcond=None)
    return x1 + dirs @ t, dirs @ null(w2_half @ dirs)


def check_coset(point, direction, want_point, want_dirs, what):
    point = np.asarray(point, dtype=complex)
    direction = np.asarray(direction, dtype=complex).reshape(point.shape[0], -1)
    require_same_space(direction, want_dirs, f"{what}: directions")
    resid = outside(direction, (want_point - point)[:, None]) if direction.shape[1] else (
        float(np.linalg.norm(want_point - point)) / max(1.0, float(np.linalg.norm(want_point)))
    )
    _require(resid <= MEMBER_TOL, f"{what}: reference point lies off the coset ({resid:.3e})")


def check_w1w2(g, n, w1, w2, b, point, direction):
    want_point, want_dirs = w1w2_reference(g, n, w1, w2, b)
    check_coset(point, direction, want_point, want_dirs, "w1w2_solve")


# ---------------------------------------------------------------------------
# splines and smoothing


def spline_reference(t, v, b) -> tuple[np.ndarray, float]:
    """KKT system [T*T V*; V 0] [x; lam] = [0; b], solved by lstsq."""
    n, k = t.shape[1], v.shape[0]
    kkt = np.block([[t.conj().T @ t, v.conj().T], [v, np.zeros((k, k), dtype=complex)]])
    rhs = np.concatenate([np.zeros(n, dtype=complex), b])
    sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    x = sol[:n]
    return x, float(np.linalg.norm(t @ x))


def check_spline(t, v, b, min_value, point, direction):
    point = np.asarray(point, dtype=complex)
    miss = float(np.linalg.norm(v @ point - b)) / max(1.0, float(np.linalg.norm(b)))
    _require(miss <= MEMBER_TOL, f"spline: V x != b ({miss:.3e})")
    x_ref, ref = spline_reference(t, v, b)
    _require(_close(min_value, ref), f"spline: minimum {min_value!r} != KKT {ref!r}")
    got = float(np.linalg.norm(t @ point))
    _require(_close(got, ref), f"spline: point attains {got!r}, not {ref!r}")
    want_dirs = null(np.vstack([t, v]))
    check_coset(point, direction, x_ref, want_dirs, "spline")


def smooth_reference(t, v, b, rho) -> tuple[np.ndarray, float]:
    """Normal equations (T*T + rho V*V) x = rho V* b, solved by lstsq."""
    lhs = t.conj().T @ t + rho * (v.conj().T @ v)
    x, *_ = np.linalg.lstsq(lhs, rho * (v.conj().T @ b), rcond=None)
    value = float(np.sqrt(np.linalg.norm(t @ x) ** 2 + rho * np.linalg.norm(v @ x - b) ** 2))
    return x, value


def check_smooth(t, v, b, rho, min_value, point, direction):
    x_ref, ref = smooth_reference(t, v, b, rho)
    _require(_close(min_value, ref), f"smooth: minimum {min_value!r} != normal equations {ref!r}")
    check_coset(point, direction, x_ref, null(np.vstack([t, v])), "smooth")


# ---------------------------------------------------------------------------
# weighted geometry


def companion(s: np.ndarray, w: np.ndarray) -> np.ndarray:
    """{x : <W x, s> = 0 for s in S}."""
    q = orth(s)
    return null(q.conj().T @ w)


def check_shorted(w: np.ndarray, s: np.ndarray, sigma: np.ndarray):
    scale = max(1.0, float(np.linalg.norm(w)))
    sigma = np.asarray(sigma, dtype=complex)
    _require(min_eig(sigma) >= -1e-8 * scale, "shorted: result is not psd")
    _require(min_eig(w - sigma) >= -1e-8 * scale, "shorted: W - result is not psd")
    resid = outside(s, sigma) if s.shape[1] else float(np.linalg.norm(sigma))
    _require(resid <= 1e-8 * scale, f"shorted: range leaves S ({resid:.3e})")


def complementable_reference(w: np.ndarray, s: np.ndarray) -> tuple[bool, np.ndarray]:
    """(S + companion fills C^n, a basis of S + companion)."""
    total = orth(np.hstack([orth(s), companion(s, w)]))
    return total.shape[1] == w.shape[0], total


def check_complementability(w, s, is_complementable, domain):
    want, total = complementable_reference(w, s)
    _require(bool(is_complementable) == want, f"complementability: flag {is_complementable}, reference {want}")
    require_same_space(domain, total, "complementability: domain")


def krein_reference(j: np.ndarray, s: np.ndarray) -> tuple[bool, int, np.ndarray | None]:
    """(regular, isotropic dim, projector onto S along its companion or None)."""
    q = orth(s)
    comp = companion(q, j)
    iso = intersect(q, comp)
    n = j.shape[0]
    if iso.shape[1] or q.shape[1] + comp.shape[1] != n:
        return False, iso.shape[1], None
    basis = np.hstack([q, comp])
    target = np.hstack([q, np.zeros_like(comp)])
    return True, 0, target @ np.linalg.inv(basis)


def check_krein(j, s, regular, isotropic_dim):
    want, iso_dim, op = krein_reference(j, s)
    _require(bool(regular) == want, f"krein: regular {regular}, reference {want}")
    _require(int(isotropic_dim) == iso_dim, f"krein: isotropic dim {isotropic_dim} != {iso_dim}")
    if want:
        # a regular subspace has an everywhere-defined projection operator
        _require(bool(np.all(np.isfinite(op))), "krein: projection operator is not finite")
        err = float(np.linalg.norm(op @ op - op)) / max(1.0, float(np.linalg.norm(op)))
        _require(err <= 1e-6, f"krein: projection operator is not idempotent ({err:.3e})")
