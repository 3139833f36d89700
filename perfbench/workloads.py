"""The three workloads: how each round's inputs are drawn and which
operations it runs.

A round is a fixed list of operations.  Round ``r`` of seed ``s`` draws its
inputs from ``numpy.random.default_rng([s, r])``, so a round is the same
whatever ran before it and however long the run is.  Inputs are drawn fresh
for every round: relations cache their default-tolerance parts, so a reused
input would make later passes cheaper than the first.

An ``Op`` has a ``run`` callable (the only timed part) and a ``check`` that
compares the result with ``reference``.  Chained operations read an earlier
operation's result from the round's shared ``state``.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from reference import (
    CheckError,
    adjoint_graph,
    check_complementability,
    check_idempotent_projection,
    check_krein,
    check_lss,
    check_shorted,
    check_smooth,
    check_spline,
    check_w1w2,
    best_value_at,
    compose_graph,
    intersect,
    lss_reference,
    null,
    orth,
    parts_of,
    projector,
    require_same_space,
    squares,
)

DESK_DIMS = tuple(range(2, 9))
SCALE_DIMS = (16, 32, 64, 128)
CLI_LARGE_N = 64
CLI_WRITE_N = 48
BATCH_FILES = 3
# small files per round for the commands behind the solve/spline size classes
SMALL_REPEATS = {"lss-solve": 3, "spline": 3}
# The weight [[0, eps], [eps, 1]] is psd only up to -eps^2, inside relcalc's
# psd tolerance.  At the fixture's eps = 1e-6 the companion's two routes
# disagree on rounding in some rotated copies; at 1e-5 the decision stands
# eleven digits clear of rounding and every copy has no solution.
NO_SOLUTION_EPS = 1e-5
WARMUP_STREAM = 1 << 30  # rng stream of the warm-up round, apart from rounds 0, 1, ...

# size classes behind the solve_*/spline_* metrics, per workload
SMALL, LARGE = "small", "large"


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    size: str | None = None  # SMALL / LARGE for solve and spline operations
    family: str | None = None  # "solve" or "spline" for the size metrics
    fault: bool = False  # kept-failing slice: counted failed while the fault stands
    reference: Callable[[], Any] | None = None  # plain-numpy twin, timed for lss.solve.ref_ratio


@dataclass
class Round:
    ops: list[Op]
    state: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# random inputs (raw numpy; relcalc objects are built from these)


def cvec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def cmat(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def unitary(rng, n):
    q, r = np.linalg.qr(cmat(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def psd(rng, n, n_zero=None):
    """psd with a well-separated spectrum, singular half the time."""
    if n_zero is None:
        n_zero = int(rng.integers(1, n)) if rng.random() < 0.5 else 0
    eigs = np.concatenate([np.zeros(n_zero), rng.uniform(0.2, 2.5, n - n_zero)])
    rng.shuffle(eigs)
    q = unitary(rng, n)
    w = (q * eigs) @ q.conj().T
    return (w + w.conj().T) / 2


def wellcond(rng, m, n):
    """m x n with singular values in [0.5, 2] between random unitary factors."""
    r = min(m, n)
    return (unitary(rng, m)[:, :r] * rng.uniform(0.5, 2.0, r)) @ unitary(rng, n)[:, :r].conj().T


def spline_data(rng, n, k):
    """(T, V, b) for splines and smoothing: T n x n and V k x n, both well
    conditioned.  With Gaussian T and V, smooth_solve's stationarity check
    fails on rounding when [T; V] is ill conditioned (README)."""
    return wellcond(rng, n, n), wellcond(rng, k, n), cvec(rng, k)


def selfadjoint(rng, n):
    h = cmat(rng, n, n)
    return (h + h.conj().T) / 2


def symmetry(rng, n):
    q = unitary(rng, n)
    signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    if np.all(signs == signs[0]):
        signs[0] = -signs[0]
    j = (q * signs) @ q.conj().T
    return (j + j.conj().T) / 2


def span_in(rng, basis, dim=None):
    """Random spanning set of a subspace of span(basis)."""
    q = orth(basis)
    if dim is None:
        dim = int(rng.integers(0, q.shape[1] + 1))
    if q.shape[1] == 0:
        dim = 0
    return q @ cmat(rng, q.shape[1], dim)


def relation_span(rng, n, m, shape=None):
    """Graph spanning set that often has a kernel and a multivalued part.

    ``shape`` = (generic columns, with a mul column, with a ker column) fixes
    the structure and leaves only the entries random."""
    if shape is None:
        shape = (int(rng.integers(0, min(n, m) + 1)), rng.random() < 0.5, rng.random() < 0.5)
    cols = [cmat(rng, n + m, shape[0])]
    if shape[1]:
        col = np.zeros((n + m, 1), dtype=complex)
        col[n:, 0] = cvec(rng, m)
        cols.append(col)
    if shape[2]:
        col = np.zeros((n + m, 1), dtype=complex)
        col[:n, 0] = cvec(rng, n)
        cols.append(col)
    return np.hstack(cols)


def representable_span(rng, n):
    """(graph span of a relation split by S, spanning set of S)."""
    s = cmat(rng, n, int(rng.integers(1, n)))
    s_perp = null(orth(s).conj().T)
    dom = np.hstack([span_in(rng, s), span_in(rng, s_perp)])
    mul = np.hstack([span_in(rng, s), span_in(rng, s_perp)])
    a = cmat(rng, n, n)
    graph = np.hstack([
        np.vstack([dom, a @ dom]),
        np.vstack([np.zeros_like(mul), mul]),
    ])
    return graph, s


def super_data(rng, n):
    """(M, S1 in M, S2 in M-perp, graph span of x: M-perp -> M or S1)."""
    m = orth(cmat(rng, n, int(rng.integers(1, n))))
    m_perp = null(m.conj().T)
    s1 = span_in(rng, m)
    s2 = span_in(rng, m_perp)
    target = s1 if (rng.random() < 0.4 and orth(s1).shape[1]) else m
    pairs = []
    for _ in range(int(rng.integers(0, max(m_perp.shape[1], 1) + 1))):
        pairs.append(np.concatenate([m_perp @ cvec(rng, m_perp.shape[1]), span_in(rng, target, 1)[:, 0]]))
    if rng.random() < 0.3:
        pairs.append(np.concatenate([np.zeros(n, dtype=complex), span_in(rng, target, 1)[:, 0]]))
    x = np.column_stack(pairs) if pairs else np.zeros((2 * n, 0), dtype=complex)
    return m, s1, s2, x


def neutral_selfadjoint(rng, s):
    """Selfadjoint weight that is degenerate on S by construction."""
    q = orth(s)
    q_perp = null(q.conj().T)
    u = q @ cvec(rng, q.shape[1])
    v = q_perp @ cvec(rng, q_perp.shape[1])
    w = np.outer(u, v.conj()) + np.outer(v, u.conj())
    return (w + w.conj().T) / 2


# ---------------------------------------------------------------------------
# building relcalc inputs


def subspace(rc, span, n):
    return rc.orthonormalize(np.asarray(span, dtype=complex).reshape(n, -1), ambient_dim=n)


def relation(rc, span, n, m):
    return rc.LinearRelation(n, m, subspace(rc, span, n + m))


def basis(sub) -> np.ndarray:
    return np.asarray(sub.basis)


# ---------------------------------------------------------------------------
# desk-mix


def desk_round(rc, rng, r: int) -> Round:
    """Thirteen operations at ambient dimension n = 2..8 (cycled by round),
    default tolerance, with T reused along compose, adjoint, solve,
    check_normal and w1w2_solve."""
    n = DESK_DIMS[r % len(DESK_DIMS)]
    size = SMALL if n <= 3 else LARGE if n >= 7 else None
    rnd = Round([])
    st = rnd.state

    t_span, r_span = relation_span(rng, n, n), relation_span(rng, n, n)
    T, R = relation(rc, t_span, n, n), relation(rc, r_span, n, n)
    w, w2, b = psd(rng, n), psd(rng, n), cvec(rng, n)
    W, W2 = rc.Weight(w, "psd"), rc.Weight(w2, "psd")
    problem = rc.LssProblem(T, W, b)
    candidate = None if r % 2 == 0 else t_span[:n] @ cvec(rng, t_span.shape[1])

    tm, v, bs = spline_data(rng, n, int(rng.integers(1, n + 1)))
    rho = (0.1, 1.0, 10.0)[r % 3]

    m_span = cmat(rng, n, int(rng.integers(0, n + 1)))
    k_span = cmat(rng, n, int(rng.integers(0, n + 1)))
    M, N = subspace(rc, m_span, n), subspace(rc, k_span, n)
    pmn_span = np.hstack([np.vstack([m_span, m_span]), np.vstack([k_span, np.zeros_like(k_span)])])

    rep_span, rep_s = representable_span(rng, n)
    REP, REP_S = relation(rc, rep_span, n, n), subspace(rc, rep_s, n)

    sm, s1, s2, x_span = super_data(rng, n)
    SM, S1, S2 = subspace(rc, sm, n), subspace(rc, s1, n), subspace(rc, s2, n)
    X = relation(rc, x_span, n, n)

    c_s = cmat(rng, n, int(rng.integers(1, n)))
    if r % 2:
        c_w = psd(rng, n)
    else:
        c_w = neutral_selfadjoint(rng, c_s) if rng.random() < 0.3 else selfadjoint(rng, n)
    C_W, C_S = rc.Weight(c_w, "psd" if r % 2 else "selfadjoint"), subspace(rc, c_s, n)

    # positive definite: with a singular W, shorted's Schur route may keep a
    # rounding-level eigenvalue in pinv and raise on rounding (README)
    sh_w, sh_s = psd(rng, n, n_zero=0), cmat(rng, n, int(rng.integers(1, n)))
    SH_W, SH_S = rc.Weight(sh_w, "psd"), subspace(rc, sh_s, n)

    j, j_s = symmetry(rng, n), cmat(rng, n, int(rng.integers(1, n)))
    J, J_S = rc.Weight(j, "symmetry"), subspace(rc, j_s, n)

    def check_solve(sol):
        check_lss(t_span, n, w, b, sol.exists, sol.min_value, sol.witness)

    def run_solve():
        st["solution"] = rc.solve(problem)
        return st["solution"]

    def run_normal():
        x0 = st["solution"].witness if candidate is None else candidate
        return x0, rc.check_normal(problem, x0)

    def check_normal(result):
        x0, verdict = result
        ref = lss_reference(t_span, n, w, b)
        attained = best_value_at(t_span, n, w, b, x0)
        want = abs(attained - ref) <= 1e-8 * (1.0 + ref)
        if verdict != want:
            raise CheckError(f"check_normal: verdict {verdict}, reference {want}")

    def run_pmn():
        E = rc.make_pmn(M, N)
        return E, rc.classify(E)

    def check_pmn(result):
        E, flags = result
        require_same_space(basis(E.graph), pmn_span, "make_pmn")
        check_idempotent_projection(basis(E.graph), n, "make_pmn")
        if not (flags.is_idempotent and flags.is_mvproj):
            raise CheckError("classify: a P(M, N) was not flagged as a multivalued projection")

    def check_super(res):
        contains, contained = squares(basis(res.relation.graph), n)
        if not contains:
            raise CheckError("build_super: E is not contained in E^2")
        if bool(res.is_idempotent) != contained:
            raise CheckError(f"build_super: idempotent {res.is_idempotent}, reference {contained}")

    rnd.ops = [
        Op("compose", lambda: rc.compose(R, T),
           lambda res: require_same_space(basis(res.graph), compose_graph(r_span, t_span, n, n), "compose")),
        Op("adjoint", lambda: rc.adjoint(T),
           lambda res: require_same_space(basis(res.graph), adjoint_graph(t_span, n), "adjoint")),
        Op("solve", run_solve, check_solve, size, "solve",
           reference=lambda: lss_reference(t_span, n, w, b)),
        Op("check_normal", run_normal, check_normal),
        Op("w1w2_solve", lambda: rc.w1w2_solve(T, W, W2, b),
           lambda c: check_w1w2(t_span, n, w, w2, b, c.point, basis(c.direction))),
        Op("spline_solve", lambda: rc.spline_solve(rc.SplineProblem(tm, v, bs)),
           lambda s: check_spline(tm, v, bs, s.min_value, s.spline_set.point, basis(s.spline_set.direction)),
           size, "spline"),
        Op("smooth_solve", lambda: rc.smooth_solve(rc.SmoothingProblem(rc.SplineProblem(tm, v, bs), rho)),
           lambda s: check_smooth(tm, v, bs, rho, s.min_value, s.argmin_set.point, basis(s.argmin_set.direction))),
        Op("make_pmn+classify", run_pmn, check_pmn),
        Op("canonical_blocks.generate", lambda: rc.canonical_blocks(REP, REP_S).generate(),
           lambda res: require_same_space(basis(res.graph), rep_span, "canonical_blocks.generate")),
        Op("build_super", lambda: rc.build_super(SM, S1, S2, X), check_super),
        Op("complementability", lambda: rc.complementability(C_W, C_S),
           lambda rep: check_complementability(c_w, c_s, rep.is_complementable, basis(rep.domain))),
        Op("shorted", lambda: rc.shorted(SH_W, SH_S), lambda sig: check_shorted(sh_w, sh_s, sig)),
        Op("krein_classify", lambda: rc.krein_classify(J_S, J),
           lambda rep: check_krein(j, j_s, rep.regular, rep.isotropic.dim)),
    ]
    return rnd


def desk_warmup(rc, rng) -> Round:
    return desk_round(rc, rng, 2)  # one round at n = 4


# ---------------------------------------------------------------------------
# scale-solve


def scale_round(rc, rng, r: int, dims=SCALE_DIMS) -> Round:
    """solve and spline_solve at each n, fresh inputs, explicit Tolerance().

    The structure is fixed (a graph of dimension n with a one-dimensional
    kernel and multivalued part, a weight of rank 7n/8) so that the time of
    an operation at one n depends on the code, not on the ranks drawn."""
    rnd = Round([])
    for n in dims:
        size = SMALL if n == 32 else LARGE if n == 128 else None
        a_span = relation_span(rng, n, n, shape=(n - 2, True, True))
        A = relation(rc, a_span, n, n)
        w, b = psd(rng, n, n_zero=n // 8), cvec(rng, n)
        problem = rc.LssProblem(A, rc.Weight(w, "psd"), b)
        tm, v, bs = spline_data(rng, n, n // 2)

        rnd.ops.append(Op(
            f"solve_n{n}", lambda p=problem: rc.solve(p, rc.Tolerance()),
            lambda sol, a_span=a_span, n=n, w=w, b=b: check_lss(
                a_span, n, w, b, sol.exists, sol.min_value, sol.witness),
            size, "solve", reference=lambda a_span=a_span, n=n, w=w, b=b: lss_reference(a_span, n, w, b)))
        rnd.ops.append(Op(
            f"spline_n{n}",
            lambda tm=tm, v=v, bs=bs: rc.spline_solve(rc.SplineProblem(tm, v, bs), rc.Tolerance()),
            lambda s, tm=tm, v=v, bs=bs: check_spline(
                tm, v, bs, s.min_value, s.spline_set.point, basis(s.spline_set.direction)),
            size, "spline"))
    return rnd


def scale_warmup(rc, rng) -> Round:
    return scale_round(rc, rng, 0, dims=(16,))


# ---------------------------------------------------------------------------
# cli-batch


def _enc_vec(v):
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]


def _enc_mat(m):
    return [_enc_vec(row) for row in np.asarray(m, dtype=complex)]


def _enc_span(span, n):
    span = np.asarray(span, dtype=complex).reshape(n, -1)
    return {"ambient": n, "span": [_enc_vec(span[:, j]) for j in range(span.shape[1])]}


def _dec_vec(raw):
    arr = np.asarray(raw, dtype=float).reshape(-1, 2)
    return arr[:, 0] + 1j * arr[:, 1]


def _dec_mat(raw):
    return np.vstack([_dec_vec(row) for row in raw])


def _dec_sub(raw):
    n = raw["ambient"]
    if raw["dim"] == 0:
        return np.zeros((n, 0), dtype=complex)
    return np.column_stack([_dec_vec(v) for v in raw["basis"]])


def _dec_coset(raw):
    if raw["empty"]:
        raise CheckError("report: unexpected empty coset")
    return _dec_vec(raw["point"]), _dec_sub(raw["direction"])


def _problem(**sections):
    doc = {"version": 1, "field": "complex"}
    doc.update(sections)
    return doc


def _graph_relation(span, n):
    span = np.asarray(span, dtype=complex)
    return {"dim_in": n, "dim_out": n, "graph_span": [_enc_vec(span[:, j]) for j in range(span.shape[1])]}


def cli_problem(command: str, rng, n: int):
    """(problem document, check of the decoded report) for one command."""
    if command == "relation-analyze":
        g = relation_span(rng, n, n)
        doc = _problem(relations={"R": _graph_relation(g, n)}, problem={"relation": "R"})
        return doc, lambda rep: _check_parts(rep["result"], g, n)
    if command in ("proj-build", "proj-represent"):
        m, k = cmat(rng, n, int(rng.integers(0, n + 1))), cmat(rng, n, int(rng.integers(0, n + 1)))
        doc = _problem(subspaces={"M": _enc_span(m, n), "N": _enc_span(k, n)},
                       problem={"range": "M", "kernel": "N"})
        check = _check_proj_build if command == "proj-build" else _check_proj_represent
        return doc, lambda rep: check(rep["result"], m, k, n)
    if command == "lss-solve":
        g, w, b = relation_span(rng, n, n), psd(rng, n), cvec(rng, n)
        doc = _problem(matrices={"W": _enc_mat(w)}, vectors={"b": _enc_vec(b)},
                       relations={"A": _graph_relation(g, n)},
                       weights={"W": {"matrix": "W", "kind": "psd"}},
                       problem={"relation": "A", "weight": "W", "b": "b"})
        return doc, lambda rep: _check_lss_report(rep["result"], g, n, w, b)
    if command == "w1w2-solve":
        g, w1, w2, b = relation_span(rng, n, n), psd(rng, n), psd(rng, n), cvec(rng, n)
        doc = _problem(matrices={"W1": _enc_mat(w1), "W2": _enc_mat(w2)}, vectors={"b": _enc_vec(b)},
                       relations={"A": _graph_relation(g, n)},
                       weights={"W1": {"matrix": "W1", "kind": "psd"}, "W2": {"matrix": "W2", "kind": "psd"}},
                       problem={"relation": "A", "weight1": "W1", "weight2": "W2", "b": "b"})
        return doc, lambda rep: check_w1w2(g, n, w1, w2, b, *_dec_coset(rep["result"]["solution_set"]))
    if command in ("spline", "smooth"):
        tm, v, bs = spline_data(rng, n, int(rng.integers(1, n + 1)))
        doc = _problem(matrices={"T": _enc_mat(tm), "V": _enc_mat(v)}, vectors={"b": _enc_vec(bs)},
                       problem={"T": "T", "V": "V", "b": "b"})
        if command == "spline":
            return doc, lambda rep: check_spline(
                tm, v, bs, rep["result"]["min_value"], *_dec_coset(rep["result"]["spline_set"]))
        rho = float(rng.choice([0.1, 1.0, 10.0]))
        doc["rho"] = rho
        return doc, lambda rep: check_smooth(
            tm, v, bs, rho, rep["result"]["min_value"], *_dec_coset(rep["result"]["argmin_set"]))
    s = cmat(rng, n, int(rng.integers(1, n)))
    if command == "shorted":
        w = psd(rng, n, n_zero=0)  # as in desk_round
        kind = "psd"
        check = lambda rep: check_shorted(w, s, _dec_mat(rep["result"]["shorted"]))
    elif command == "complementable":
        w = selfadjoint(rng, n) if rng.random() < 0.5 else psd(rng, n)
        kind = "selfadjoint"
        check = lambda rep: check_complementability(
            w, s, rep["result"]["is_complementable"], _dec_sub(rep["result"]["domain"]))
    elif command == "krein-classify":
        w = symmetry(rng, n)
        kind = "symmetry"
        check = lambda rep: check_krein(w, s, rep["result"]["regular"], rep["result"]["isotropic"]["dim"])
    else:
        raise ValueError(f"unknown command {command!r}")
    doc = _problem(matrices={"W": _enc_mat(w)}, subspaces={"S": _enc_span(s, n)},
                   weights={"W": {"matrix": "W", "kind": kind}},
                   problem={"weight": "W", "subspace": "S"})
    return doc, check


def _check_parts(result, g, n):
    want = parts_of(g, n)
    for name in ("dom", "ran", "ker", "mul"):
        require_same_space(_dec_sub(result[name]), want[name], f"relation-analyze: {name}")
    if result["graph_dim"] != orth(g).shape[1]:
        raise CheckError("relation-analyze: graph dimension differs from reference")


def _check_proj_build(result, m, k, n):
    if not (result["is_idempotent"] and result["is_mvproj"]):
        raise CheckError("proj-build: P(M, N) not flagged as a multivalued projection")
    require_same_space(_dec_sub(result["ran"]), m, "proj-build: ran")
    require_same_space(_dec_sub(result["ker"]), k, "proj-build: ker")
    require_same_space(_dec_sub(result["dom"]), np.hstack([m, k]), "proj-build: dom")
    require_same_space(_dec_sub(result["mul"]), intersect(m, k), "proj-build: mul")


def _check_proj_represent(result, m, k, n):
    if result["regenerates"] is not True:
        raise CheckError("proj-represent: blocks do not regenerate P(M, N)")
    p_m = projector(m) if orth(m).shape[1] else np.zeros((n, n), dtype=complex)
    x = result["x_block"]
    require_same_space(_dec_sub(x["dom"]), k - p_m @ k, "proj-represent: dom x")
    require_same_space(_dec_sub(x["ran"]), p_m @ k, "proj-represent: ran x")
    require_same_space(_dec_sub(x["mul"]), intersect(m, k), "proj-represent: mul x")
    require_same_space(_dec_sub(x["ker"]), intersect(k, null(orth(m).conj().T)), "proj-represent: ker x")


def _lss_twin(command, doc):
    """Timed plain-numpy reference for a small lss-solve file."""
    if command != "lss-solve":
        return None
    rel = doc["relations"]["A"]
    n = rel["dim_in"]
    g = np.column_stack([_dec_vec(v) for v in rel["graph_span"]]) if rel["graph_span"] else np.zeros((2 * n, 0))
    w, b = _dec_mat(doc["matrices"]["W"]), _dec_vec(doc["vectors"]["b"])
    return lambda: lss_reference(g, n, w, b)


def _check_lss_report(result, g, n, w, b):
    check_lss(g, n, w, b, result["exists"], result["min_value"], _dec_vec(result["witness"]))


COMMANDS = (
    "relation-analyze", "proj-build", "proj-represent", "lss-solve", "w1w2-solve",
    "spline", "smooth", "shorted", "complementable", "krein-classify",
)

# Non-finite input is an operational error (exit 1).  These files do not
# depend on the seed: every run carries the same three, and today every one
# of them fails (exit 2 "no-solution" for a NaN or Infinity in b, exit 0 for
# an Infinity in a matrix), because the CLI parser accepts non-finite floats.
_FIXTURE = {
    "matrices": {"A": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]], "W": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
    "vectors": {"b": [[1, 0], [1, 0]]},
    "relations": {"A": {"matrix": "A"}},
    "weights": {"W": {"matrix": "W", "kind": "psd"}},
    "problem": {"relation": "A", "weight": "W", "b": "b"},
}


def nonfinite_documents():
    docs = []
    for where, value in (("b", float("nan")), ("b", float("inf")), ("A", float("inf"))):
        doc = json.loads(json.dumps(_problem(**_FIXTURE)))
        if where == "b":
            doc["vectors"]["b"][0][0] = value
        else:
            doc["matrices"]["A"][0][0][0] = value
        docs.append(doc)
    return docs


def no_solution_problem(rng, n):
    """b outside the domain of the weighted projection, as in
    tests/data/lss-no-solution.json, in random unitary coordinates."""
    u = unitary(rng, n)
    a = np.zeros((n, n), dtype=complex)
    a[0, 0] = 1.0
    w = np.eye(n, dtype=complex)
    w[:2, :2] = [[0.0, NO_SOLUTION_EPS], [NO_SOLUTION_EPS, 1.0]]
    b = np.zeros(n, dtype=complex)
    b[1] = 1.0
    w = u @ w @ u.conj().T
    doc = _problem(matrices={"A": _enc_mat(u @ a @ u.conj().T), "W": _enc_mat((w + w.conj().T) / 2)},
                   vectors={"b": _enc_vec(u @ b)},
                   relations={"A": {"matrix": "A"}},
                   weights={"W": {"matrix": "W", "kind": "psd"}},
                   problem={"relation": "A", "weight": "W", "b": "b"})
    return doc


def _write(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _cli_run(rc, argv):
    def run():
        buf = io.BytesIO()
        code = rc.cli.main(argv, out=buf)
        return code, buf.getvalue()

    return run


def _cli_op(rc, kind, argv, expect, check, size=None, family=None, fault=False, reference=None):
    def verify(result):
        code, payload = result
        if code != expect:
            raise CheckError(f"{kind}: exit code {code}, expected {expect}")
        if check is not None:
            check(json.loads(payload))

    return Op(kind, _cli_run(rc, argv), verify, size, family, fault, reference)


def _check_batch(directory: Path, checks: dict, command: str):
    def verify(result):
        code, payload = result
        if code != 0:
            raise CheckError(f"batch {command}: exit code {code}")
        lines = payload.decode().splitlines()
        if lines != [f"{name}: ok" for name in sorted(checks)]:
            raise CheckError(f"batch {command}: unexpected listing {lines}")
        for name, check in checks.items():
            report = directory / (Path(name).stem + ".report.json")
            check(json.loads(report.read_text(encoding="utf-8")))

    return verify


def cli_round(rc, rng, r: int, workdir: Path) -> Round:
    """One small file per command, a read-heavy slice (large lss-solve and
    spline inputs), a write-heavy slice (large relation-analyze reports),
    one --batch directory, the no-solution slice and the non-finite slice."""
    n = DESK_DIMS[r % len(DESK_DIMS)]
    rdir = workdir / f"round{r}"
    rdir.mkdir(parents=True, exist_ok=True)
    rnd = Round([])
    for command in COMMANDS:
        family = {"lss-solve": "solve", "spline": "spline"}.get(command)
        for i in range(SMALL_REPEATS.get(command, 1)):
            doc, check = cli_problem(command, rng, n)
            path = _write(rdir / f"{command}-{i}.json", doc)
            rnd.ops.append(_cli_op(rc, f"cli:{command}", [command, str(path), "--verify"], 0, check,
                                   SMALL if family else None, family, reference=_lss_twin(command, doc)))

    # read-heavy: large inputs, small reports
    nn = CLI_LARGE_N
    a, w, b = cmat(rng, nn, nn), psd(rng, nn, n_zero=nn // 8), cvec(rng, nn)
    g = np.vstack([np.eye(nn), a])
    path = _write(rdir / "large-lss-solve.json", _problem(
        matrices={"A": _enc_mat(a), "W": _enc_mat(w)}, vectors={"b": _enc_vec(b)},
        relations={"A": {"matrix": "A"}}, weights={"W": {"matrix": "W", "kind": "psd"}},
        problem={"relation": "A", "weight": "W", "b": "b"}))
    rnd.ops.append(_cli_op(rc, "cli:lss-solve:large", ["lss-solve", str(path), "--verify"], 0,
                           lambda rep: _check_lss_report(rep["result"], g, nn, w, b), LARGE, "solve",
                           reference=lambda: lss_reference(g, nn, w, b)))
    tm, v, bs = spline_data(rng, nn, nn // 2)
    path = _write(rdir / "large-spline.json", _problem(
        matrices={"T": _enc_mat(tm), "V": _enc_mat(v)}, vectors={"b": _enc_vec(bs)},
        problem={"T": "T", "V": "V", "b": "b"}))
    rnd.ops.append(_cli_op(rc, "cli:spline:large", ["spline", str(path), "--verify"], 0,
                           lambda rep: check_spline(tm, v, bs, rep["result"]["min_value"],
                                                    *_dec_coset(rep["result"]["spline_set"])),
                           LARGE, "spline"))

    # write-heavy: a rank-deficient matrix relation, whose report carries
    # full bases of dom, ran and ker
    a_w = cmat(rng, CLI_WRITE_N, CLI_WRITE_N // 2) @ cmat(rng, CLI_WRITE_N // 2, CLI_WRITE_N)
    g_w = np.vstack([np.eye(CLI_WRITE_N), a_w])
    path = _write(rdir / "large-relation-analyze.json",
                  _problem(matrices={"A": _enc_mat(a_w)}, relations={"R": {"matrix": "A"}},
                           problem={"relation": "R"}))
    rnd.ops.append(_cli_op(rc, "cli:relation-analyze:large", ["relation-analyze", str(path), "--verify"], 0,
                           lambda rep: _check_parts(rep["result"], g_w, CLI_WRITE_N)))

    # --batch: a directory of small files of one command, a report written next to each
    command = COMMANDS[r % len(COMMANDS)]
    bdir = rnd.state["batch_dir"] = rdir / "batch"
    bdir.mkdir(exist_ok=True)
    checks = {}
    for i in range(BATCH_FILES):
        doc, check = cli_problem(command, rng, n)
        _write(bdir / f"p{i}.json", doc)
        checks[f"p{i}.json"] = check
    rnd.ops.append(Op("cli:batch", _cli_run(rc, [command, "--batch", str(bdir), "--verify"]),
                      _check_batch(bdir, checks, command)))

    # no-solution slice: exit code 2 is known by construction
    path = _write(rdir / "no-solution.json", no_solution_problem(rng, 2 + r % 3))

    def check_no_solution(rep):
        if rep["status"] != "no-solution" or rep["result"]["exists"] is not False:
            raise CheckError("no-solution: report does not say no-solution")

    rnd.ops.append(_cli_op(rc, "cli:no-solution", ["lss-solve", str(path)], 2, check_no_solution))

    # non-finite slice: expected exit 1; fails while the parser accepts NaN/Infinity
    for i, doc in enumerate(nonfinite_documents()):
        path = _write(rdir / f"nonfinite{i}.json", doc)
        rnd.ops.append(_cli_op(rc, "cli:nonfinite", ["lss-solve", str(path), "--verify"], 1, None, fault=True))
    return rnd


def cli_warmup(rc, rng, workdir: Path) -> Round:
    rnd = Round([])
    for command in COMMANDS:
        doc, check = cli_problem(command, rng, 3)
        path = _write(workdir / f"warmup-{command}.json", doc)
        rnd.ops.append(_cli_op(rc, f"cli:{command}", [command, str(path), "--verify"], 0, check))
    return rnd


def cold_start_file(rng, workdir: Path) -> Path:
    """The small lss-solve file a fresh interpreter runs for cold_start_ms."""
    doc, _ = cli_problem("lss-solve", rng, 4)
    return _write(workdir / "cold-start.json", doc)


WORKLOADS = ("desk-mix", "scale-solve", "cli-batch")


def build_round(name: str, rc, rng, r: int, workdir: Path) -> Round:
    if name == "desk-mix":
        return desk_round(rc, rng, r)
    if name == "scale-solve":
        return scale_round(rc, rng, r)
    return cli_round(rc, rng, r, workdir)


def build_warmup(name: str, rc, rng, workdir: Path) -> Round:
    if name == "desk-mix":
        return desk_warmup(rc, rng)
    if name == "scale-solve":
        return scale_warmup(rc, rng)
    return cli_warmup(rc, rng, workdir)
