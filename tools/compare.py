"""Behaviour compare of two relcalc trees: a parent revision against the
working tree that holds this script.

Usage::

    python3 tools/compare.py --parent REV --out COMPARE.json

The parent is unpacked with ``git archive`` into a temporary directory.  The
inputs are drawn once, here, from the working tree's ``tests/genutil.py``
families and handed to both trees as plain arrays, so both read the same
ones.  Each tree then runs every operation of the grid at six tolerances
in its own interpreter with ``OMP_NUM_THREADS=1``, and this process compares
what the two returned.  Per operation and tolerance the report counts:

- ``identical``: outputs equal bit for bit (a NaN equals a NaN, as in an
  unsolvable solve's ``min_value``);
- ``moved``: outputs that differ, with ``max_gap``, the largest projector,
  coset or relative number gap among them, and ``moved_structure``, those
  that moved a dimension, an emptiness or a flag (in a CLI report also a
  status or a key set);
- ``raises_matched``: both trees raised the same type with the same message;
- ``raises_unmatched``: one tree raised and the other did not, or the two
  raised differently.

The grid: square relations in C^n, n 2..8, cycling through a random relation,
a relation with a kernel, a multivalued part and a pair tilted 10^-4..-8 off
the input axis, ``graph_of_matrix`` of a rank-deficient matrix, a pair tilted
10^-4..-8 off the output axis, and a graph basis 1e-9 off orthonormal,
taken unchecked; weights cycling through a random psd matrix, one with
tiny eigenvalues and one with mul A inside ker W, every 7th scaled by
10^-24..15.  Besides the library's operations, the grid runs the oracles
behind ``relation-analyze``, ``spline``, ``w1w2-solve``, ``proj-build`` and
``proj-represent --verify`` (``oracles.*``; the cylinder routes take the
case's relation as the inner and as the outer factor of a product, and as
the first summand of a sum), and for each command the cases can feed, the
bytes of its ``--verify`` report, ``emit(dispatch(...))`` on a
``ProblemFile`` built from the case's arrays (``cli.report:<command>``).
A function that takes no ``tol`` in one tree is called without it there,
so a tree whose function still takes one decides at the grid tolerance.
Nothing is written but the report.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import io
import json
import math
import os
import pickle
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEED = 31  # case i draws from default_rng([SEED, i])
DRAWS = 500  # inputs per operation and tolerance
TOLERANCES = (
    ("Tolerance()", ()),
    ("Tolerance(1e-6)", (1e-6,)),
    ("Tolerance(1e-12)", (1e-12,)),
    ("Tolerance(0, 1e-9)", (0.0, 1e-9)),
    ("Tolerance(0, 0)", (0.0, 0.0)),
    ("Tolerance(0, 1e-15)", (0.0, 1e-15)),
)
# the named objects each command reads from a case's ProblemFile
CLI_PROBLEMS = {
    "lss-solve": {"relation": "R", "weight": "W", "b": "b"},
    "w1w2-solve": {"relation": "R", "weight1": "W", "weight2": "W2", "b": "b"},
    "relation-analyze": {"relation": "R"},
    "spline": {"T": "T", "V": "V", "b": "c"},
    "smooth": {"T": "T", "V": "V", "b": "c"},
    "shorted": {"weight": "W", "subspace": "S"},
    "complementable": {"weight": "W", "subspace": "S"},
    "krein-classify": {"weight": "J", "subspace": "K"},
    "proj-build": {"range": "M", "kernel": "N"},
    "proj-represent": {"range": "M", "kernel": "N"},
}


# ---------------------------------------------------------------------------
# the inputs, drawn once from the working tree's test families


def draw() -> list[dict]:
    """The grid's inputs as plain arrays, from the ``tests/genutil.py``
    families of the working tree; case i draws from default_rng([SEED, i])."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import genutil as g
    from relcalc import graph_of_matrix, parts

    def subspace(rng, n, empty_share=0.0):
        return g.random_subspace(rng, n, dim=0 if rng.random() < empty_share else None).basis

    cases = []
    for i in range(DRAWS):
        rng = np.random.default_rng([SEED, i])
        n = int(rng.integers(2, 9))
        tilt = 10.0 ** -(4 + (i // 5) % 5)
        case = {"n": n, "matrix": None, "graph": None}
        if i % 5 == 2:
            k = int(rng.integers(0, n + 1))
            case["matrix"] = g.cmat(rng, n, k) @ g.cmat(rng, k, n)
            rel = graph_of_matrix(case["matrix"])
        else:
            rel = {
                0: lambda: g.random_relation(rng, n, n),
                1: lambda: g.relation_with_ker_and_mul(rng, n, n, tilt),
                3: lambda: g.relation_near_output_axis(rng, n, n, tilt),
                4: lambda: g.loosely_orthonormal_relation(rng, n, n),
            }[i % 5]()
            case["graph"] = rel.graph.basis
        c = g.cvec(rng, rel.graph.dim)
        case["x"], case["y"] = rel.in_block @ c, rel.out_block @ c  # in dom A and in ran A
        w = g.psd_with_tiny_eigenvalues(rng, n) if i % 3 == 1 else g.random_psd(rng, n)
        if i % 3 == 2:
            mul = parts(rel).mul.basis
            proj = np.eye(n) - mul @ mul.conj().T
            w = proj @ w @ proj
            w = (w + w.conj().T) / 2
        if i % 7 == 0:
            w = w * 10.0 ** int(rng.integers(-24, 16))
        j = g.random_symmetry(rng, n)
        krein = g.degenerate_subspace(rng, j) if rng.random() < 0.5 else g.random_subspace(rng, n)
        representable, s = g.random_representable(rng, n)
        case.update(
            w=w,
            w2=g.random_psd(rng, n, force_singular=False),
            b=g.cvec(rng, n),
            point=g.cvec(rng, n),
            direction=subspace(rng, n),
            other=g.random_relation(rng, n, n).graph.basis,
            m_matrix=g.cmat(rng, n, n) * (rng.random(n) < 0.7),
            x_matrix=g.cvec(rng, n),
            s1=subspace(rng, n, empty_share=0.3),
            s2=subspace(rng, n, empty_share=0.3),
            range_m=subspace(rng, n),
            kernel_n=subspace(rng, n),
            representable=(representable.graph.basis, s.basis),
            symmetry=(j, krein.basis),
        )
        rows, e = int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))
        case["spline"] = (g.cmat(rng, e, n), g.cmat(rng, rows, n), g.cvec(rng, rows))
        case["rho"] = float(10.0 ** rng.uniform(-3, 3))
        cases.append(case)
    return cases


# ---------------------------------------------------------------------------
# one tree's outputs, encoded as plain arrays and numbers


def _operations():
    """The grid's operations, each (case, tol) -> output, read from the
    relcalc on the path.  The oracles run on raw arrays with
    ``atol = tol.abs_eps``, as ``--verify`` calls them, and their bases are
    read as a ``Subspace`` or a ``Coset``, so that a move shows as a
    projector gap."""
    import relcalc as rc
    from relcalc import cli, oracles

    # both trees take every basis unchecked: a tree before
    # ``Subspace._trusted`` did so with ``validate=False``
    sub = getattr(rc.Subspace, "_trusted", None) or (lambda basis: rc.Subspace(basis, validate=False))

    def relation(case, tol):
        if case["graph"] is None:
            return rc.graph_of_matrix(case["matrix"])
        n = case["n"]
        return rc.LinearRelation(n, n, sub(case["graph"]))

    def problem(case, tol):
        return rc.LssProblem(relation(case, tol), rc.Weight(case["w"], "psd"), case["b"])

    def spline(case):
        return rc.SplineProblem(*case["spline"])

    def parts(p):
        return (p.dom, p.ran, p.ker, p.mul)

    def representable(case, tol):
        graph, s = case["representable"]
        n = case["n"]
        return rc.canonical_blocks(rc.LinearRelation(n, n, sub(graph)), sub(s), tol).generate(tol)

    def by_matrix(case):
        return dict(case, graph=None, matrix=case["m_matrix"])

    def coset(point, flat):
        return rc.Coset.of(point, sub(flat))

    def spline_kkt(case):
        value, point, flat = oracles.spline_kkt(*case["spline"])
        return value, coset(point, flat)

    def second_read(case, tol):
        rel = relation(case, tol)
        parts(rc.parts(rel))  # both blocks read at Tolerance() first
        return parts(rc.parts(rel, tol))

    def problem_file(case, problem):
        n = case["n"]
        if case["graph"] is None:
            rel = {"kind": "matrix", "matrix": case["matrix"]}
        else:
            rel = {"kind": "graph_span", "dim_in": n, "dim_out": n, "span": list(case["graph"].T)}
        T, V, c = case["spline"]
        j, krein = case["symmetry"]
        return cli.ProblemFile(
            version=1, field_kind="complex", tolerance=None,
            matrices={"T": T, "V": V},
            vectors={"b": case["b"], "c": c},
            subspaces={"S": {"ambient": n, "span": list(case["s1"].T)},
                       "K": {"ambient": n, "span": list(krein.T)},
                       "M": {"ambient": n, "span": list(case["range_m"].T)},
                       "N": {"ambient": n, "span": list(case["kernel_n"].T)}},
            relations={"R": rel},
            weights={"W": {"matrix": case["w"], "kind": "psd"},
                     "W2": {"matrix": case["w2"], "kind": "psd"},
                     "J": {"matrix": j, "kind": "symmetry"}},
            problem=problem, rho=case["rho"],
        )

    def report(command):
        return lambda c, t: cli.emit(cli.dispatch(command, problem_file(c, CLI_PROBLEMS[command]), t, verify=True))

    def at(function, *args, tol):
        """function(*args, tol), or function(*args) where this tree's
        function takes no ``tol``: a tree whose function still takes one
        decides at the grid tolerance."""
        takes_tol = "tol" in inspect.signature(function).parameters
        return function(*args, tol) if takes_tol else function(*args)

    def pmn(case, tol):
        return at(rc.make_pmn, sub(case["range_m"]), sub(case["kernel_n"]), tol=tol)

    return {
        "solve": lambda c, t: rc.solve(problem(c, t), t),
        "check_normal": lambda c, t: rc.check_normal(problem(c, t), c["x"], t),
        "w1w2_solve": lambda c, t: rc.w1w2_solve(
            relation(c, t), rc.Weight(c["w"], "psd"), rc.Weight(c["w2"], "psd"), c["b"], t
        ),
        "parts": lambda c, t: parts(rc.parts(relation(c, t), t)),
        "parts@second": second_read,
        "apply": lambda c, t: rc.apply(relation(c, t), c["x"], t),
        "apply(invert)": lambda c, t: rc.apply(rc.invert(relation(c, t)), c["y"], t),
        "apply_to_coset": lambda c, t: rc.apply_to_coset(
            relation(c, t), rc.Coset.of(c["point"], sub(c["direction"])), t
        ),
        "compose": lambda c, t: rc.compose(
            rc.LinearRelation(c["n"], c["n"], sub(c["other"])), relation(c, t), t
        ),
        "graph_of_matrix.parts": lambda c, t: parts(rc.parts(relation(by_matrix(c), t), t)),
        "graph_of_matrix.parts@default": lambda c, t: parts(rc.parts(relation(by_matrix(c), None), t)),
        "graph_of_matrix.apply": lambda c, t: rc.apply(relation(by_matrix(c), t), c["x_matrix"], t),
        "subspace_intersect": lambda c, t: rc.subspace_intersect(sub(c["s1"]), sub(c["s2"]), t),
        "subspace_contains": lambda c, t: rc.subspace_contains(sub(c["s1"]), sub(c["s2"]), t),
        "matrix_image": lambda c, t: rc.matrix_image(c["m_matrix"], sub(c["s1"]), t),
        "classify": lambda c, t: rc.classify(relation(c, t), t),
        "adjoint": lambda c, t: at(rc.adjoint, relation(c, t), tol=t),
        "identity_minus": lambda c, t: at(rc.identity_minus, relation(c, t), tol=t),
        "subspace_complement": lambda c, t: at(rc.subspace_complement, sub(c["s1"]), tol=t),
        "make_pmn": pmn,
        "make_pws": lambda c, t: rc.make_pws(rc.Weight(c["w"], "psd"), sub(c["s1"]), t),
        "decompose": lambda c, t: rc.decompose(pmn(c, t), t),
        "canonical_blocks.generate": representable,
        "assemble_representation": lambda c, t: rc.assemble_representation(
            sub(c["range_m"]), sub(c["kernel_n"]), t
        ),
        "complementability": lambda c, t: rc.complementability(rc.Weight(c["w"], "psd"), sub(c["s1"]), t),
        "krein_classify": lambda c, t: rc.krein_classify(
            sub(c["symmetry"][1]), rc.Weight(c["symmetry"][0], "symmetry"), t
        ),
        "psd_sqrt": lambda c, t: rc.psd_sqrt(c["w"], t),
        "shorted": lambda c, t: rc.shorted(rc.Weight(c["w"], "psd"), sub(c["s1"]), t),
        "spline_solve": lambda c, t: rc.spline_solve(spline(c), t),
        "smooth_solve": lambda c, t: rc.smooth_solve(rc.SmoothingProblem(spline(c), c["rho"]), t),
        "oracles.kernel_and_mul_via_axes": lambda c, t: tuple(
            map(sub, oracles.kernel_and_mul_via_axes(relation(c, t).graph.basis, c["n"], t.abs_eps))
        ),
        "oracles.spline_kkt": lambda c, t: spline_kkt(c),
        "oracles.minimize_seminorm_over_coset": lambda c, t: coset(
            *oracles.minimize_seminorm_over_coset(c["w"], c["point"], c["direction"])
        ),
        "oracles.w1w2_by_graph": lambda c, t: coset(
            *oracles.w1w2_by_graph(relation(c, t).graph.basis, c["n"], c["w"], c["w2"], c["b"], t.abs_eps)
        ),
        "oracles.compose_by_cylinders": lambda c, t: sub(
            oracles.compose_by_cylinders(c["other"], relation(c, t).graph.basis, c["n"], t.abs_eps)
        ),
        "oracles.compose_by_cylinders@outer": lambda c, t: sub(
            oracles.compose_by_cylinders(relation(c, t).graph.basis, c["other"], c["n"], t.abs_eps)
        ),
        "oracles.op_sum_by_cylinders": lambda c, t: sub(
            oracles.op_sum_by_cylinders(relation(c, t).graph.basis, c["other"], c["n"], t.abs_eps)
        ),
        **{f"cli.report:{command}": report(command) for command in CLI_PROBLEMS},
    }


def _encode(value):
    """A relcalc output as nested tuples of tags, arrays and numbers; a
    result dataclass is the tuple of its fields."""
    import relcalc as rc

    if value is None:
        return ("none",)
    if isinstance(value, str):
        return ("text", value)
    if isinstance(value, bytes):
        return ("bytes", value)
    if isinstance(value, rc.Subspace):
        return ("subspace", value.basis)
    if isinstance(value, rc.Coset):  # a dataclass, read as a coset
        return ("coset", value.point, None if value.is_empty else value.direction.basis)
    if isinstance(value, rc.LinearRelation):
        return ("relation", value.graph.basis)
    if dataclasses.is_dataclass(value):
        return ("tuple", tuple(_encode(getattr(value, f.name)) for f in dataclasses.fields(value)))
    if isinstance(value, np.ndarray):
        return ("array", value)
    if isinstance(value, (bool, np.bool_)):
        return ("flag", bool(value))
    if isinstance(value, (int, float, np.floating)):
        return ("number", float(value))
    return ("tuple", tuple(_encode(v) for v in value))


def run_worker(inputs: Path, results: Path):
    import relcalc as rc

    cases = pickle.loads(inputs.read_bytes())
    out = {}
    for name, operation in _operations().items():
        for label, args in TOLERANCES:
            tol, cell = rc.Tolerance(*args), out.setdefault((name, label), [])
            for case in cases:
                try:
                    cell.append(_encode(operation(case, tol)))
                except Exception as exc:  # every raise is data to compare
                    cell.append(("raise", type(exc).__name__, str(exc)))
    results.write_bytes(pickle.dumps(out))


# ---------------------------------------------------------------------------
# the comparison


def _same(a, b) -> bool:
    if a is None or b is None:
        return a is b
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.shape == b.shape and a.dtype == b.dtype
                and np.array_equal(a, b, equal_nan=True))
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


def _projector_gap(a, b) -> float:
    if a.shape != b.shape:
        return math.inf
    return float(np.linalg.norm(a @ a.conj().T - b @ b.conj().T))


def _gap(a, b) -> float:
    """How far two encoded outputs of one operation lie apart: projector
    distance for subspaces and graphs, the larger of the min-norm point's
    relative gap and the projector distance for cosets, relative norm for
    arrays and numbers, and ``_report_gap`` of two CLI reports; inf when a
    dimension, an emptiness or a flag moved."""
    tag = a[0]
    if tag != b[0]:
        return math.inf
    if tag in ("subspace", "relation"):
        return _projector_gap(a[1], b[1])
    if tag == "coset":
        if a[1] is None or b[1] is None:
            return 0.0 if a[1] is b[1] else math.inf
        p, q = (pt - d @ (d.conj().T @ pt) for pt, d in ((a[1], a[2]), (b[1], b[2])))
        point = float(np.linalg.norm(p - q)) / max(1.0, float(np.linalg.norm(p)))
        return max(point, _projector_gap(a[2], b[2]))
    if tag == "array":
        if a[1].shape != b[1].shape:
            return math.inf
        return float(np.linalg.norm(a[1] - b[1])) / max(1.0, float(np.linalg.norm(a[1])))
    if tag == "number":
        if math.isnan(a[1]) or math.isnan(b[1]):
            return 0.0 if math.isnan(a[1]) and math.isnan(b[1]) else math.inf
        return abs(a[1] - b[1]) / max(1.0, abs(a[1]))
    if tag == "bytes":
        return _report_gap(json.loads(a[1]), json.loads(b[1]))
    if tag in ("flag", "text"):
        return 0.0 if a[1] == b[1] else math.inf
    if tag == "tuple":
        if len(a[1]) != len(b[1]):
            return math.inf
        return max((_gap(x, y) for x, y in zip(a[1], b[1])), default=0.0)
    return 0.0


def _reported_basis(subspace: dict) -> np.ndarray:
    pairs = np.array(subspace["basis"], dtype=float).reshape(subspace["dim"], subspace["ambient"], 2)
    return (pairs[..., 0] + 1j * pairs[..., 1]).T


def _report_gap(a, b) -> float:
    """``_gap`` of two parsed CLI reports: a subspace ``{ambient, dim,
    basis}`` by projector distance, a nonempty coset ``{empty, point,
    direction}`` as ``_gap`` reads a coset, any other float by relative gap;
    inf when a key set, an integer (a dim), a flag, a string (a status) or
    a list length moved, so an empty coset against a nonempty one too."""
    if isinstance(a, dict):
        if not isinstance(b, dict) or a.keys() != b.keys():
            return math.inf
        if a.keys() == {"ambient", "dim", "basis"}:
            return _projector_gap(_reported_basis(a), _reported_basis(b))
        if a.keys() == {"empty", "point", "direction"}:
            x, y = (("coset", np.array(c["point"], dtype=float).reshape(-1, 2) @ [1, 1j],
                     _reported_basis(c["direction"])) for c in (a, b))
            return _gap(x, y) if x[1].shape == y[1].shape else math.inf
        return max((_report_gap(a[k], b[k]) for k in a), default=0.0)
    if isinstance(a, list):
        if not isinstance(b, list) or len(a) != len(b):
            return math.inf
        return max((_report_gap(x, y) for x, y in zip(a, b)), default=0.0)
    if isinstance(a, float) and isinstance(b, float):
        return _gap(("number", a), ("number", b))
    return 0.0 if type(a) is type(b) and a == b else math.inf


def compare(parent: dict, change: dict) -> dict:
    operations = {}
    for (name, label), olds in parent.items():
        cell = dict(cases=0, identical=0, moved=0, moved_structure=0, max_gap=0.0,
                    raises_matched=0, raises_unmatched=0)
        for old, new in zip(olds, change[name, label]):
            cell["cases"] += 1
            if old[0] == "raise" or new[0] == "raise":
                cell["raises_matched" if _same(old, new) else "raises_unmatched"] += 1
            elif _same(old, new):
                cell["identical"] += 1
            else:
                cell["moved"] += 1
                gap = _gap(old, new)
                if math.isinf(gap):
                    cell["moved_structure"] += 1
                else:
                    cell["max_gap"] = max(cell["max_gap"], gap)
        operations.setdefault(name, {})[label] = cell
    keys = ("cases", "identical", "moved", "moved_structure", "raises_matched", "raises_unmatched")
    totals = {k: sum(c[k] for cells in operations.values() for c in cells.values()) for k in keys}
    return {"totals": totals, "operations": operations}


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True).stdout


def _run_tree(tree: Path, inputs: Path, results: Path):
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--worker", str(inputs), str(results)],
                   check=True, env=env, cwd=tree)
    return pickle.loads(results.read_bytes())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="git revision to compare the working tree against")
    parser.add_argument("--out", help="where to write the JSON report")
    parser.add_argument("--worker", nargs=2, metavar=("INPUTS", "RESULTS"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        run_worker(Path(args.worker[0]), Path(args.worker[1]))
        return 0
    if not (args.parent and args.out):
        parser.error("--parent and --out are required")
    parent_sha = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}").strip()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", parent_sha],
                                 check=True, capture_output=True).stdout
        tree = tmp / "parent"
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
        inputs = tmp / "inputs.pkl"
        inputs.write_bytes(pickle.dumps(draw()))
        parent = _run_tree(tree, inputs, tmp / "parent.pkl")
        change = _run_tree(ROOT, inputs, tmp / "change.pkl")
    report = {
        "parent": args.parent,
        "parent_commit": parent_sha,
        "change": "working tree over " + _git("rev-parse", "HEAD").strip(),
        "draws": DRAWS,
        "seed": SEED,
        "numpy": np.__version__,
        "tolerances": [label for label, _ in TOLERANCES],
        **compare(parent, change),
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    t = report["totals"]
    print(f"{t['cases']} cases: {t['identical']} identical, {t['moved']} moved "
          f"({t['moved_structure']} in structure), {t['raises_matched']} raises matched, "
          f"{t['raises_unmatched']} unmatched")
    return 0 if t["moved"] == 0 and t["raises_unmatched"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
