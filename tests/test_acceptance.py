"""Acceptance gate: randomized desk-scale sweeps over ambient dimensions 2-8.

Each criterion runs as one test that prints a PASS/FAIL line.  Graph
equalities are checked at 1e-9, oracle agreements at 1e-8, and the
counted-instance criteria run 1000 randomized instances per suite.
"""

import io
import json
import time
from pathlib import Path

import numpy as np
import pytest

from relcalc import (
    LssProblem,
    Tolerance,
    Weight,
    adjoint,
    apply,
    as_matrix,
    assemble_representation,
    build_super,
    canonical_blocks,
    check_normal,
    coefficient_x,
    complementability,
    compose,
    cw_sum,
    decompose,
    from_graph_basis,
    graph_of_matrix,
    identity_minus,
    identity_on,
    image,
    invert,
    make_pmn,
    make_pws,
    null_space,
    orthonormalize,
    parts,
    product_of_subspaces,
    projection_m,
    psd_sqrt,
    relation_contains,
    relation_equals,
    shorted,
    smooth_solve,
    solve,
    spline_solve,
    subspace_complement,
    subspace_contains,
    subspace_equals,
    subspace_intersect,
    subspace_sum,
    w1w2_solve,
    zero_space,
    SplineProblem,
    SmoothingProblem,
)
from relcalc import oracles
from relcalc.cli import main as cli_main

from genutil import (
    cmat,
    cvec,
    random_mv_projection,
    random_psd,
    random_relation,
    random_representable,
    random_selfadjoint,
    random_subspace,
    subspace_of,
)

N_INSTANCES = 1000
GRAPH_TOL = Tolerance(abs_eps=1e-9)
DATA = Path(__file__).parent / "data"

_DURATIONS: dict[int, float] = {}


def _report(number, label, failures, total=None):
    ok = failures == 0
    count = f" ({total} instances)" if total else ""
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {label}{count}")
    assert ok, f"criterion {number}: {failures} failing instances - {label}"


class _timed:
    def __init__(self, number):
        self.number = number

    def __enter__(self):
        self.start = time.monotonic()

    def __exit__(self, *exc):
        _DURATIONS[self.number] = time.monotonic() - self.start


def test_criterion_1_relation_calculus():
    rng = np.random.default_rng(101)
    failures = 0
    with _timed(1):
        for _ in range(N_INSTANCES):
            n, k, m = (int(rng.integers(2, 9)) for _ in range(3))
            t = random_relation(rng, n, k)
            r = random_relation(rng, k, m)
            ok = True
            # equality holds iff graph containment plus dom and mul containments
            if t.graph.dim and rng.random() < 0.5:
                s = from_graph_basis(n, k, t.graph.basis[:, : t.graph.dim - 1])
            else:
                s = t
            tri = (
                relation_contains(t, s)
                and subspace_contains(parts(s).dom, parts(t).dom)
                and subspace_contains(parts(s).mul, parts(t).mul)
            )
            ok &= relation_equals(s, t) == tri
            # product part propagation
            rt = compose(r, t)
            ok &= subspace_equals(parts(rt).ran, image(r, parts(t).ran))
            ok &= subspace_equals(parts(rt).mul, image(r, parts(t).mul))
            # adjoint facts
            ts = adjoint(t)
            ok &= subspace_equals(parts(ts).mul, subspace_complement(parts(t).dom))
            ok &= relation_equals(adjoint(ts), t)
            ok &= relation_contains(adjoint(rt), compose(ts, adjoint(r)))
            r_mat = graph_of_matrix(cmat(rng, m, k))
            ok &= relation_equals(
                compose(ts, adjoint(r_mat)), adjoint(compose(r_mat, t))
            )
            failures += not ok
    _report(1, "relation-calculus identities", failures, N_INSTANCES)


def test_criterion_2_projection_reconstruction():
    rng = np.random.default_rng(102)
    failures = 0
    with _timed(2):
        for _ in range(N_INSTANCES):
            n = int(rng.integers(2, 9))
            p, m, k = random_mv_projection(rng, n)
            ok = relation_equals(compose(p, p), p, GRAPH_TOL)
            q = parts(p)
            rebuilt = cw_sum(identity_on(q.ran), product_of_subspaces(q.ker, zero_space(n)))
            ok &= relation_equals(rebuilt, p, GRAPH_TOL)
            ok &= relation_equals(
                adjoint(p),
                make_pmn(subspace_complement(k), subspace_complement(m)),
                GRAPH_TOL,
            )
            op_part, overlap = decompose(p)
            tail = product_of_subspaces(zero_space(n), overlap)
            ok &= relation_equals(cw_sum(op_part, tail), p, GRAPH_TOL)
            cross = op_part.graph.basis.conj().T @ tail.graph.basis
            ok &= cross.size == 0 or float(np.linalg.norm(cross)) < 1e-9
            first = make_pmn(m, subspace_intersect(m, k))
            ok &= relation_equals(compose(first, p), p, GRAPH_TOL)
            failures += not ok
    _report(2, "projection reconstruction identities", failures, N_INSTANCES)


def test_criterion_3_representation_round_trip():
    rng = np.random.default_rng(103)
    failures = 0
    with _timed(3):
        for _ in range(N_INSTANCES):
            n = int(rng.integers(2, 9))
            t, s = random_representable(rng, n)
            ok = relation_equals(canonical_blocks(t, s).generate(), t, GRAPH_TOL)
            # off-diagonal coefficient: set form against the composed form
            m_sub, k_sub = random_subspace(rng, n), random_subspace(rng, n)
            x = coefficient_x(m_sub, k_sub)  # internally cross-checked
            proj = m_sub.projector()
            onto = proj @ k_sub.basis
            direct = orthonormalize(
                np.vstack([k_sub.basis - onto, -onto]), ambient_dim=2 * n
            )
            ok &= subspace_equals(x.graph, direct, GRAPH_TOL)
            ok &= relation_equals(
                assemble_representation(m_sub, k_sub).generate(),
                make_pmn(m_sub, k_sub),
                GRAPH_TOL,
            )
            failures += not ok
    _report(3, "block representation round trips", failures, N_INSTANCES)


def _random_coefficient(rng, source, target):
    n = source.ambient_dim
    pairs = []
    for _ in range(int(rng.integers(0, max(source.dim, 1) + 1))):
        u = source.basis @ cvec(rng, source.dim) if source.dim else np.zeros(n, dtype=complex)
        v = target.basis @ cvec(rng, target.dim) if target.dim else np.zeros(n, dtype=complex)
        pairs.append(np.concatenate([u, v]))
    if rng.random() < 0.3 and target.dim:
        v = target.basis @ cvec(rng, target.dim)
        pairs.append(np.concatenate([np.zeros(n, dtype=complex), v]))
    return from_graph_basis(n, n, pairs)


def test_criterion_4_idempotency_criterion():
    rng = np.random.default_rng(104)
    failures = 0
    idempotent = 0
    with _timed(4):
        for _ in range(N_INSTANCES):
            n = int(rng.integers(2, 9))
            m = random_subspace(rng, n, int(rng.integers(1, n)))
            m_perp = subspace_complement(m)
            s1 = subspace_of(rng, m)
            s2 = subspace_of(rng, m_perp)
            target = s1 if (rng.random() < 0.4 and s1.dim) else m
            x = _random_coefficient(rng, m_perp, target)
            try:
                # containment criterion and literal squaring are cross-checked
                # inside; any disagreement raises instead of returning
                result = build_super(m, s1, s2, x)
                idempotent += result.is_idempotent
            except Exception:
                failures += 1
    assert 0 < idempotent < N_INSTANCES, "sweep must exercise both outcomes"
    _report(4, "idempotency criterion vs graph squaring", failures, N_INSTANCES)


def _neutral_selfadjoint(rng, n, s):
    s_perp = subspace_complement(s)
    u = s.basis @ cvec(rng, s.dim)
    v = s_perp.basis @ cvec(rng, s_perp.dim)
    w = np.outer(u, v.conj()) + np.outer(v, u.conj())
    return (w + w.conj().T) / 2


def test_criterion_5_complementability():
    rng = np.random.default_rng(105)
    failures = 0
    with _timed(5):
        for i in range(N_INSTANCES):
            n = int(rng.integers(2, 9))
            s = random_subspace(rng, n, int(rng.integers(1, n)))
            kind = i % 2
            try:
                if kind == 0:
                    # selfadjoint: generic or constructed-degenerate; the
                    # domain and block criteria are cross-checked internally
                    if rng.random() < 0.3:
                        w = Weight(_neutral_selfadjoint(rng, n, s))
                    else:
                        w = Weight(random_selfadjoint(rng, n))
                    report = complementability(w, s)
                    if report.is_complementable != report.criterion_ab:
                        failures += 1
                else:
                    w = Weight(random_psd(rng, n), "psd")
                    report = complementability(w, s)
                    if not report.is_complementable:
                        failures += 1
                        continue
                    regenerated = report.pws_blocks.generate()
                    if not relation_equals(regenerated, make_pws(w, s), GRAPH_TOL):
                        failures += 1
            except Exception:
                failures += 1
    _report(5, "complementability criteria and block regeneration", failures, N_INSTANCES)


def test_criterion_6_shorted_operator():
    rng = np.random.default_rng(106)
    failures = 0
    with _timed(6):
        for _ in range(N_INSTANCES):
            n = int(rng.integers(2, 9))
            w = Weight(random_psd(rng, n), "psd")
            k = int(rng.integers(1, n))
            s = random_subspace(rng, n, k)
            ok = True
            try:
                sigma = shorted(w, s)  # Schur route, cross-checked internally
                other = compose(
                    graph_of_matrix(w.matrix), identity_minus(make_pws(w, s))
                )
                ok &= float(np.linalg.norm(shorted(w, subspace_complement(s)) - as_matrix(other))) < 1e-8
                # oblique compression dominance
                q = _oblique_idempotent(rng, s)
                ok &= float(np.linalg.eigvalsh(q.conj().T @ w.matrix @ q - sigma)[0]) > -1e-8
                # maximality over scaled candidates below the weight
                x = _scaled_candidate(rng, w.matrix, s)
                if x is not None:
                    ok &= float(np.linalg.eigvalsh(w.matrix - x)[0]) > -1e-8
                    ok &= float(np.linalg.eigvalsh(sigma - x)[0]) > -1e-8
            except Exception:
                ok = False
            failures += not ok
    _report(6, "shorted operator routes and extremality", failures, N_INSTANCES)


def _oblique_idempotent(rng, s):
    n, k = s.ambient_dim, s.dim
    perp = subspace_complement(s)
    slant = s.basis + perp.basis @ cmat(rng, n - k, k)
    basis = np.hstack([slant, perp.basis])
    target = np.hstack([slant, np.zeros((n, n - k), dtype=complex)])
    return target @ np.linalg.inv(basis)


def _scaled_candidate(rng, w, s):
    ran_w = orthonormalize(w, ambient_dim=w.shape[0])
    inside = subspace_intersect(s, ran_w)
    if inside.dim == 0:
        return None
    g = cmat(rng, inside.dim, inside.dim)
    y = inside.basis @ (g @ g.conj().T) @ inside.basis.conj().T
    half_pinv = np.linalg.pinv(psd_sqrt(w))
    z = half_pinv @ y @ half_pinv.conj().T
    top = float(np.linalg.eigvalsh((z + z.conj().T) / 2)[-1])
    if top <= 0:
        return None
    return y / top


def test_criterion_7_lss_suite():
    rng = np.random.default_rng(107)
    failures = 0
    with _timed(7):
        for _ in range(N_INSTANCES):
            n = int(rng.integers(2, 9))
            a = random_relation(rng, n, n)
            w = Weight(random_psd(rng, n), "psd")
            b = cvec(rng, n)
            ok = True
            try:
                sol = solve(LssProblem(a, w, b))
                ok &= sol.exists  # psd weights are always complementable here
                oracle_min = oracles.weighted_min_over_span(
                    w.matrix, parts(a).ran.basis, b
                )
                ok &= abs(sol.min_value - oracle_min) < 1e-8
                # attainment coset and solution-set structure
                w_half = psd_sqrt(w.matrix)
                member = sol.minimizing_outputs.point
                if sol.minimizing_outputs.direction.dim:
                    member = member + sol.minimizing_outputs.direction.basis @ cvec(
                        rng, sol.minimizing_outputs.direction.dim
                    )
                ok &= abs(float(np.linalg.norm(w_half @ (member - b))) - sol.min_value) < 1e-8
                structural = image(invert(a), null_space(w.matrix))
                ok &= subspace_equals(sol.solution_set.direction, structural)
                ok &= sol.solution_set.contains(sol.witness)
                # normal equation agrees with membership for a fresh candidate
                dom = parts(a).dom
                candidate = (
                    dom.basis @ cvec(rng, dom.dim) if dom.dim else np.zeros(n, dtype=complex)
                )
                verdict = check_normal(LssProblem(a, w, b), candidate)
                ok &= verdict == sol.solution_set.contains(candidate)
                ok &= check_normal(LssProblem(a, w, b), sol.witness)
            except Exception:
                ok = False
            failures += not ok
    _report(7, "weighted least-squares suite", failures, N_INSTANCES)
    total = sum(_DURATIONS.get(i, 0.0) for i in range(1, 8))
    missing = [i for i in range(1, 8) if i not in _DURATIONS]
    print(f"criterion 7 runtime check: suites 1-7 took {total:.1f}s (missing: {missing})")
    assert not missing, "criteria 1-6 must run before the runtime check"
    assert total < 60.0, f"suites 1-7 exceeded the 60 s budget: {total:.1f}s"


def test_criterion_8_two_weights_splines_smoothing():
    rng = np.random.default_rng(108)
    failures = 0
    rounds = 250
    for _ in range(rounds):
        # two-weight refinement against the two-stage oracle
        n = int(rng.integers(2, 7))
        a = random_relation(rng, n, n)
        w1 = Weight(random_psd(rng, n), "psd")
        w2 = Weight(random_psd(rng, n), "psd")
        b = cvec(rng, n)
        ok = True
        try:
            refined = w1w2_solve(a, w1, w2, b)
            first = solve(LssProblem(a, w1, b))
            point, flat = oracles.minimize_seminorm_over_coset(
                w2.matrix, first.solution_set.point, first.solution_set.direction.basis
            )
            ok &= subspace_equals(
                refined.direction, orthonormalize(flat, ambient_dim=n)
            )
            ok &= refined.contains(point)
        except Exception:
            ok = False
        failures += not ok

        # splines against the constrained least-squares oracle
        e, k = int(rng.integers(1, 7)), int(rng.integers(1, n + 1))
        T, V, bs = cmat(rng, e, n), cmat(rng, k, n), cvec(rng, k)
        try:
            spline = spline_solve(SplineProblem(T, V, bs))
            oracle_min, oracle_point, _ = oracles.spline_kkt(T, V, bs)
            ok = abs(spline.min_value - oracle_min) < 1e-8
            ok &= spline.spline_set.contains(oracle_point)
        except Exception:
            ok = False
        failures += not ok

        # smoothing against the stacked least-squares oracle for each rho
        for rho in (0.1, 1.0, 10.0):
            try:
                smooth = smooth_solve(SmoothingProblem(SplineProblem(T, V, bs), rho))
                x = oracles.smoothing_stacked_lstsq(T, V, bs, rho)
                value = float(
                    np.sqrt(
                        np.linalg.norm(T @ x) ** 2
                        + rho * np.linalg.norm(V @ x - bs) ** 2
                    )
                )
                ok = abs(smooth.min_value - value) < 1e-8 and smooth.argmin_set.contains(x)
            except Exception:
                ok = False
            failures += not ok

        # pair-range projector axioms and the unit-penalty minimum
        try:
            full = projection_m(T, V).matrix()
            ok = float(np.linalg.norm(full @ full - full)) < 1e-9
            ok &= float(np.linalg.norm(full - full.conj().T)) < 1e-9
            ok &= subspace_equals(
                orthonormalize(full, ambient_dim=e + k),
                orthonormalize(np.vstack([T, V])),
            )
            paired = np.concatenate([np.zeros(e, dtype=complex), bs])
            residual = float(np.linalg.norm(paired - full @ paired))
            unit = smooth_solve(SmoothingProblem(SplineProblem(T, V, bs), 1.0))
            ok &= abs(residual - unit.min_value) < 1e-8
        except Exception:
            ok = False
        failures += not ok
    _report(
        8,
        "two-weight, spline, smoothing and projector suite",
        failures,
        rounds * 6,
    )


def test_criterion_9_cli_golden_and_exit_codes():
    failures = 0
    cases = [
        ("relation-analyze", "relation-analyze.json"),
        ("proj-build", "proj-build.json"),
        ("proj-represent", "proj-represent.json"),
        ("lss-solve", "lss-solve.json"),
        ("w1w2-solve", "w1w2-solve.json"),
        ("spline", "spline.json"),
        ("smooth", "smooth.json"),
        ("shorted", "shorted.json"),
        ("complementable", "complementable.json"),
        ("krein-classify", "krein-classify.json"),
    ]
    for command, fixture in cases:
        buf = io.BytesIO()
        code = cli_main([command, str(DATA / fixture), "--verify"], out=buf)
        golden = (DATA / fixture.replace(".json", ".golden.json")).read_bytes()
        failures += not (code == 0 and buf.getvalue() == golden)
    # exit-code dichotomy: 0 handled above, 2 for no solution, 1 for errors
    buf = io.BytesIO()
    failures += cli_main(["lss-solve", str(DATA / "lss-no-solution.json")], out=buf) != 2
    failures += json.loads(buf.getvalue())["status"] != "no-solution"
    buf = io.BytesIO()
    failures += cli_main(["lss-solve", str(DATA / "malformed-vector.json")], out=buf) != 1
    _report(9, "CLI golden files and exit-code dichotomy", failures, len(cases) + 3)
