"""Command-line front end: JSON problem files in, machine-readable reports out.

Every command is a thin wrapper around one library operation; the CLI does no
mathematics of its own.  The library runs its own second route on every
answer; ``--verify`` adds an independent raw-numpy oracle from
``relcalc.oracles`` and never reruns a library route.  Exit codes: 0 success,
2 when the posed problem has no solution (a legitimate mathematical answer),
1 for operational errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ConsistencyError,
    DimensionMismatchError,
    NoSolutionError,
    NotRepresentableError,
    ProblemFormatError,
)
from .subspaces import DEFAULT_ABS_EPS, Coset, Subspace, Tolerance, orthonormalize
from .relations import (
    LinearRelation,
    from_graph_basis,
    graph_of_matrix,
    identity_on,
    parts,
    product_of_subspaces,
    zero_on,
)
from .mvproj import assemble_representation, classify, make_pmn
from .weighted import Weight, complementability, krein_classify, shorted
from .lss import LssProblem, solve, w1w2_solve
from .splines import SmoothingProblem, SplineProblem, smooth_solve, spline_solve
from . import oracles

FORMAT_VERSION = 1
MAX_DIM = 4096  # the largest ambient, dim_in or dim_out a problem file may declare


# ---------------------------------------------------------------------------
# problem files


@dataclass(eq=False)
class ProblemFile:
    version: int
    field_kind: str
    tolerance: Tolerance | None
    matrices: dict = field(default_factory=dict)
    vectors: dict = field(default_factory=dict)
    subspaces: dict = field(default_factory=dict)
    relations: dict = field(default_factory=dict)
    weights: dict = field(default_factory=dict)
    problem: dict = field(default_factory=dict)
    rho: float | None = None


def _finite_float(value, where: str) -> float:
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ProblemFormatError(f"{where}: numbers must be finite, got {x}")
    return x


def _number(value, where: str) -> float:
    """A scalar field that must be a JSON number: bools and strings are refused."""
    if type(value) not in (int, float):
        raise ProblemFormatError(f"{where}: expected a number, got {value!r}")
    return _finite_float(value, where)


def _size(value, where: str) -> int:
    """A size field that must be a JSON integer from 0 to ``MAX_DIM``: bools,
    floats and strings are refused."""
    if type(value) is not int or value < 0:
        raise ProblemFormatError(f"{where}: expected a nonnegative integer, got {value!r}")
    if value > MAX_DIM:
        raise ProblemFormatError(f"{where}: {value} exceeds the size limit {MAX_DIM}")
    return value


# Numeric sections are read as whole arrays; the per-entry walk below runs
# only when that fails, and its job is to name the first bad entry.


def _pair_array(raw, ndim: int) -> np.ndarray | None:
    """``raw`` as a complex array with ``ndim`` axes, or None if any entry is bad.

    Accepted only when one ``np.array`` call gives a finite boolean, integer
    or float array of the right rank whose last axis holds the [re, im]
    pairs; the float pairs are then reinterpreted in place as complex
    numbers, which keeps every bit (``-0.0`` included).
    """
    try:
        arr = np.array(raw)
    except (ValueError, TypeError, OverflowError):  # ragged nesting, for one
        return None
    if arr.dtype.kind not in "biuf" or arr.ndim != ndim + 1 or arr.shape[-1] != 2:
        return None
    arr = np.ascontiguousarray(arr, dtype=float)
    if not np.isfinite(arr).all():
        return None
    return arr.view(complex)[..., 0]


def _complex_entry(value, where: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(part, (int, float)) for part in value)
    ):
        raise ProblemFormatError(f"{where}: complex scalars must be [re, im] pairs")
    return complex(_finite_float(value[0], where), _finite_float(value[1], where))


def _walk_vector(raw, where: str) -> np.ndarray:
    if not isinstance(raw, list):
        raise ProblemFormatError(f"{where}: expected a list of [re, im] pairs")
    return np.array([_complex_entry(v, f"{where}[{i}]") for i, v in enumerate(raw)], dtype=complex)


def _walk_matrix(raw, where: str) -> np.ndarray:
    if not isinstance(raw, list) or not raw:
        raise ProblemFormatError(f"{where}: expected a nonempty list of rows")
    rows = [_walk_vector(row, f"{where} row {i}") for i, row in enumerate(raw)]
    width = rows[0].shape[0]
    for i, row in enumerate(rows):
        if row.shape[0] != width:
            raise ProblemFormatError(
                f"{where} row {i} has {row.shape[0]} entries, expected {width}"
            )
    return np.vstack(rows)


def _parse_vector(raw, where: str) -> np.ndarray:
    arr = _pair_array(raw, 1)
    return _walk_vector(raw, where) if arr is None else arr


def _parse_matrix(raw, where: str) -> np.ndarray:
    arr = _pair_array(raw, 2)
    return _walk_matrix(raw, where) if arr is None else arr


def _parse_span(raw, where: str, length: int, expected: str) -> list:
    """A list of spanning vectors, each of the given length."""
    if not isinstance(raw, list):
        raise ProblemFormatError(f"{where}: expected a list of vectors")
    arr = _pair_array(raw, 2)
    if arr is not None and arr.shape[1] == length:
        return list(arr)
    span = [_walk_vector(v, f"{where}[{i}]") for i, v in enumerate(raw)]
    for i, v in enumerate(span):
        if v.shape[0] != length:
            raise ProblemFormatError(
                f"{where}[{i}] has length {v.shape[0]}, expected {expected}"
            )
    return span


def _section(data: dict, key: str) -> dict:
    """A top-level section of the file, which must be an object; empty when absent."""
    section = data.get(key, {})
    if not isinstance(section, dict):
        raise ProblemFormatError(f"{key}: expected an object")
    return section


def parse(path: str | Path) -> ProblemFile:
    """Load and validate a problem file; all shape checks happen here.

    The text is decoded by ``orjson``.  What strict JSON refuses (``NaN``
    and ``Infinity`` literals, numbers beyond the double range, lone
    surrogate escapes, malformed text) goes to the stdlib decoder, which
    reads the literals so that the checks below can name the bad entry, and
    words and places the parse error.  Both decoders give the same values,
    except that ``orjson`` reads an integer outside [-2**63, 2**64) as the
    nearest float.  Numeric sections convert every entry with ``float()``
    either way; a size or ``version`` field holding such an integer is
    refused either way, with a message that quotes the float.  Like a size,
    ``version`` must be a JSON integer: ``true`` and ``1.0`` are refused.
    """
    import orjson  # here and in emit, not at the top: importing relcalc.cli does not load it

    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ProblemFormatError(f"cannot read {path}: {exc}") from exc
    try:
        data = orjson.loads(text)
    except orjson.JSONDecodeError:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(
                f"{path.name}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
    if not isinstance(data, dict):
        raise ProblemFormatError(f"{path.name}: top level must be an object")
    version = data.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ProblemFormatError(f"{path.name}: unsupported version {version!r}")
    field_kind = data.get("field", "complex")
    if field_kind != "complex":
        raise ProblemFormatError(f"{path.name}: unsupported field {field_kind!r}")

    tolerance = None
    if "tolerance" in data:
        spec = data["tolerance"]
        if not isinstance(spec, dict):
            raise ProblemFormatError("tolerance: expected an object")
        abs_eps = _number(spec.get("abs_eps", DEFAULT_ABS_EPS), "tolerance.abs_eps")
        rel_eps = None if spec.get("rel_eps") is None else _number(spec["rel_eps"], "tolerance.rel_eps")
        try:
            tolerance = Tolerance(abs_eps, rel_eps)
        except ValueError as exc:  # a negative value; the message starts with its field
            raise ProblemFormatError(f"tolerance.{exc}") from exc

    pf = ProblemFile(version=version, field_kind=field_kind, tolerance=tolerance)
    for name, raw in _section(data, "matrices").items():
        pf.matrices[name] = _parse_matrix(raw, f"matrices.{name}")
    for name, raw in _section(data, "vectors").items():
        pf.vectors[name] = _parse_vector(raw, f"vectors.{name}")
    for name, raw in _section(data, "subspaces").items():
        pf.subspaces[name] = _validate_subspace_spec(raw, f"subspaces.{name}")
    for name, raw in _section(data, "relations").items():
        pf.relations[name] = _validate_relation_spec(raw, f"relations.{name}")
    for name, raw in _section(data, "weights").items():
        pf.weights[name] = _validate_weight_spec(raw, f"weights.{name}")
    pf.problem = _section(data, "problem")
    if "rho" in data:
        pf.rho = _number(data["rho"], "rho")
    return pf


def _validate_subspace_spec(raw, where: str) -> dict:
    if not isinstance(raw, dict) or "ambient" not in raw:
        raise ProblemFormatError(f"{where}: expected an object with an 'ambient' field")
    ambient = _size(raw["ambient"], f"{where}.ambient")
    span = _parse_span(raw.get("span", []), f"{where}.span", ambient, f"ambient {ambient}")
    return {"ambient": ambient, "span": span}


def _validate_relation_spec(raw, where: str) -> dict:
    if not isinstance(raw, dict):
        raise ProblemFormatError(f"{where}: expected an object")
    kinds = [k for k in ("matrix", "graph_span", "identity_on", "zero_on", "product_of") if k in raw]
    if len(kinds) != 1:
        raise ProblemFormatError(
            f"{where}: exactly one of matrix/graph_span/identity_on/zero_on/product_of is required"
        )
    kind = kinds[0]
    spec = {"kind": kind}
    if kind == "matrix":
        spec["matrix"] = raw["matrix"] if isinstance(raw["matrix"], str) else _parse_matrix(
            raw["matrix"], f"{where}.matrix"
        )
    elif kind == "graph_span":
        if "dim_in" not in raw or "dim_out" not in raw:
            raise ProblemFormatError(f"{where}: graph_span needs dim_in and dim_out")
        n = _size(raw["dim_in"], f"{where}.dim_in")
        m = _size(raw["dim_out"], f"{where}.dim_out")
        span = _parse_span(raw["graph_span"], f"{where}.graph_span", n + m, str(n + m))
        spec.update(dim_in=n, dim_out=m, span=span)
    elif kind == "product_of":
        pair = raw["product_of"]
        if not isinstance(pair, list) or len(pair) != 2:
            raise ProblemFormatError(f"{where}: product_of needs two subspace names")
        spec["pair"] = [_subspace_name(name, f"{where}.product_of[{i}]") for i, name in enumerate(pair)]
    else:
        spec["subspace"] = _subspace_name(raw[kind], f"{where}.{kind}")
    return spec


def _subspace_name(ref, where: str) -> str:
    if not isinstance(ref, str):
        raise ProblemFormatError(f"{where}: expected a subspace name")
    return ref


def _validate_weight_spec(raw, where: str) -> dict:
    if not isinstance(raw, dict) or "matrix" not in raw:
        raise ProblemFormatError(f"{where}: expected an object with a 'matrix' field")
    kind = raw.get("kind", "selfadjoint")
    matrix = raw["matrix"] if isinstance(raw["matrix"], str) else _parse_matrix(
        raw["matrix"], f"{where}.matrix"
    )
    return {"matrix": matrix, "kind": kind}


# ---------------------------------------------------------------------------
# resolving named objects


def _get(pf_section: dict, name: str, section: str):
    if name not in pf_section:
        raise ProblemFormatError(f"undefined {section} {name!r}")
    return pf_section[name]


def _matrix(pf: ProblemFile, ref, where: str) -> np.ndarray:
    if isinstance(ref, str):
        return _get(pf.matrices, ref, "matrix")
    if isinstance(ref, np.ndarray):
        return ref
    raise ProblemFormatError(f"{where}: expected a matrix name")


def _vector(pf: ProblemFile, ref, where: str) -> np.ndarray:
    if isinstance(ref, str):
        return _get(pf.vectors, ref, "vector")
    raise ProblemFormatError(f"{where}: expected a vector name")


def _subspace(pf: ProblemFile, ref, tol: Tolerance, where: str) -> Subspace:
    if not isinstance(ref, str):
        raise ProblemFormatError(f"{where}: expected a subspace name")
    spec = _get(pf.subspaces, ref, "subspace")
    return orthonormalize(spec["span"], tol, ambient_dim=spec["ambient"])


def _relation(pf: ProblemFile, ref, tol: Tolerance, where: str) -> LinearRelation:
    if not isinstance(ref, str):
        raise ProblemFormatError(f"{where}: expected a relation name")
    spec = _get(pf.relations, ref, "relation")
    kind = spec["kind"]
    if kind == "matrix":
        return graph_of_matrix(_matrix(pf, spec["matrix"], where))
    if kind == "graph_span":
        return from_graph_basis(spec["dim_in"], spec["dim_out"], spec["span"], tol)
    if kind == "identity_on":
        return identity_on(_subspace(pf, spec["subspace"], tol, where))
    if kind == "zero_on":
        return zero_on(_subspace(pf, spec["subspace"], tol, where))
    first = _subspace(pf, spec["pair"][0], tol, where)
    second = _subspace(pf, spec["pair"][1], tol, where)
    return product_of_subspaces(first, second)


def _weight(pf: ProblemFile, ref, where: str) -> Weight:
    if not isinstance(ref, str):
        raise ProblemFormatError(f"{where}: expected a weight name")
    spec = _get(pf.weights, ref, "weight")
    return Weight(_matrix(pf, spec["matrix"], where), spec["kind"])


def _need(pf: ProblemFile, key: str):
    if key not in pf.problem:
        raise ProblemFormatError(f"problem section is missing required field {key!r}")
    return pf.problem[key]


# ---------------------------------------------------------------------------
# serialization


# Handlers serialize complex vectors and matrices as float arrays with a
# trailing [re, im] axis; dispatch turns every float of the result into plain
# JSON numbers through _canonical, one vectorized pass per report.

SIGNIFICANT_DIGITS = 13


def _ser_complex(a: np.ndarray) -> np.ndarray:
    return np.stack([a.real, a.imag], axis=-1)


def _ser_subspace(s: Subspace) -> dict:
    return {"ambient": s.ambient_dim, "dim": s.dim, "basis": _ser_complex(_phase_canonical(s.basis).T)}


def _ser_coset(c: Coset) -> dict:
    if c.is_empty:
        return {"empty": True}
    return {
        "empty": False,
        "point": _ser_complex(c.min_norm_point()),
        "direction": _ser_subspace(c.direction),
    }


def _ser_parts(rel: LinearRelation, tol: Tolerance) -> dict:
    p = parts(rel, tol)
    return {
        "dom": _ser_subspace(p.dom),
        "ran": _ser_subspace(p.ran),
        "ker": _ser_subspace(p.ker),
        "mul": _ser_subspace(p.mul),
        "graph_dim": rel.graph.dim,
    }


# ---------------------------------------------------------------------------
# command handlers: each returns (status, result, extra diagnostics)


def _cmd_relation_analyze(pf, tol, verify):
    rel = _relation(pf, _need(pf, "relation"), tol, "problem.relation")
    result = _ser_parts(rel, tol)
    diag = {}
    if verify:
        p = parts(rel, tol)
        ker, mul = oracles.kernel_and_mul_via_axes(rel.graph.basis, rel.dim_in, tol.abs_eps)
        diag["oracle_delta"] = max(
            _projector_delta(p.ker.basis, ker), _projector_delta(p.mul.basis, mul)
        )
    return "ok", result, diag


def _projector_delta(basis: np.ndarray, other: np.ndarray) -> float:
    """Distance between the orthogonal projectors onto two orthonormal bases."""
    return float(np.linalg.norm(basis @ basis.conj().T - other @ other.conj().T))


def _cmd_proj_build(pf, tol, verify):
    m = _subspace(pf, _need(pf, "range"), tol, "problem.range")
    n = _subspace(pf, _need(pf, "kernel"), tol, "problem.kernel")
    proj = make_pmn(m, n, tol)
    flags = classify(proj, tol)
    result = _ser_parts(proj, tol)
    result["is_idempotent"] = flags.is_idempotent
    result["is_mvproj"] = flags.is_mvproj
    diag = {}
    if verify:
        graph = proj.graph.basis
        squared = oracles.compose_by_cylinders(graph, graph, proj.dim_in, tol.abs_eps)
        diag["oracle_delta"] = _projector_delta(squared, graph)
    return "ok", result, diag


def _cmd_proj_represent(pf, tol, verify):
    m = _subspace(pf, _need(pf, "range"), tol, "problem.range")
    n = _subspace(pf, _need(pf, "kernel"), tol, "problem.kernel")
    # assemble_representation raises unless the blocks regenerate P(M, N)
    rep = assemble_representation(m, n, tol)
    result = {"splitter_dim": rep.splitter.dim, "x_block": _ser_parts(rep.b, tol), "regenerates": True}
    diag = {}
    if verify:
        blocks = [block.graph.basis for block in (rep.a, rep.b, rep.c, rep.d)]
        regenerated = oracles.block_graph_by_cylinders(*blocks, m.ambient_dim, tol.abs_eps)
        direct = oracles.pmn_graph(m.basis, n.basis, tol.abs_eps)
        diag["oracle_delta"] = _projector_delta(regenerated, direct)
    return "ok", result, diag


def _cmd_lss_solve(pf, tol, verify):
    rel = _relation(pf, _need(pf, "relation"), tol, "problem.relation")
    weight = _weight(pf, _need(pf, "weight"), "problem.weight")
    b = _vector(pf, _need(pf, "b"), "problem.b")
    sol = solve(LssProblem(rel, weight, b), tol)
    result = {
        "exists": sol.exists,
        "min_value": None if not sol.exists else sol.min_value,
        "witness": None if sol.witness is None else _ser_complex(sol.witness),
        "solution_set": _ser_coset(sol.solution_set),
        "minimizing_outputs": _ser_coset(sol.minimizing_outputs),
    }
    diag = {}
    if verify and sol.exists:
        ran_basis = parts(rel, tol).ran.basis
        diag["oracle_delta"] = abs(
            sol.min_value - oracles.weighted_min_over_span(weight.matrix, ran_basis, b)
        )
    return ("ok" if sol.exists else "no-solution"), result, diag


def _cmd_w1w2_solve(pf, tol, verify):
    rel = _relation(pf, _need(pf, "relation"), tol, "problem.relation")
    w1 = _weight(pf, _need(pf, "weight1"), "problem.weight1")
    w2 = _weight(pf, _need(pf, "weight2"), "problem.weight2")
    b = _vector(pf, _need(pf, "b"), "problem.b")
    try:
        coset = w1w2_solve(rel, w1, w2, b, tol)
    except NoSolutionError:
        return "no-solution", {"solution_set": {"empty": True}}, {}
    result = {"solution_set": _ser_coset(coset)}
    diag = {}
    if verify:
        point, direction = oracles.w1w2_by_graph(
            rel.graph.basis, rel.dim_in, w1.matrix, w2.matrix, b, tol.abs_eps
        )
        offset = (point - coset.point) - coset.direction.project(point - coset.point)
        diag["oracle_delta"] = max(
            _projector_delta(coset.direction.basis, direction), float(np.linalg.norm(offset))
        )
    return "ok", result, diag


def _cmd_spline(pf, tol, verify):
    T = _matrix(pf, _need(pf, "T"), "problem.T")
    V = _matrix(pf, _need(pf, "V"), "problem.V")
    b = _vector(pf, _need(pf, "b"), "problem.b")
    sol = spline_solve(SplineProblem(T, V, b), tol)
    result = {
        "exists": sol.exists,
        "min_value": sol.min_value,
        "spline_set": _ser_coset(sol.spline_set),
    }
    diag = {}
    if verify:
        oracle_min, _, _ = oracles.spline_kkt(T, V, b)
        diag["oracle_delta"] = abs(sol.min_value - oracle_min)
    return "ok", result, diag


def _cmd_smooth(pf, tol, verify):
    T = _matrix(pf, _need(pf, "T"), "problem.T")
    V = _matrix(pf, _need(pf, "V"), "problem.V")
    b = _vector(pf, _need(pf, "b"), "problem.b")
    if pf.rho is None:
        raise ProblemFormatError("smooth requires a top-level 'rho' parameter")
    sol = smooth_solve(SmoothingProblem(SplineProblem(T, V, b), pf.rho), tol)
    result = {
        "rho": pf.rho,
        "min_value": sol.min_value,
        "argmin_set": _ser_coset(sol.argmin_set),
    }
    diag = {}
    if verify:
        x_check = oracles.smoothing_stacked_lstsq(T, V, b, pf.rho)
        value = float(
            np.sqrt(
                np.linalg.norm(T @ x_check) ** 2
                + pf.rho * np.linalg.norm(V @ x_check - b) ** 2
            )
        )
        diag["oracle_delta"] = abs(sol.min_value - value)
    return "ok", result, diag


def _cmd_shorted(pf, tol, verify):
    weight = _weight(pf, _need(pf, "weight"), "problem.weight")
    s = _subspace(pf, _need(pf, "subspace"), tol, "problem.subspace")
    mat = shorted(weight, s, tol)
    diag = {}
    if verify:
        oracle = oracles.shorted_by_schur(weight.matrix, s.basis, tol.abs_eps)
        diag["oracle_delta"] = float(np.linalg.norm(mat - oracle))
    return "ok", {"shorted": _ser_complex(mat)}, diag


def _cmd_complementable(pf, tol, verify):
    weight = _weight(pf, _need(pf, "weight"), "problem.weight")
    s = _subspace(pf, _need(pf, "subspace"), tol, "problem.subspace")
    report = complementability(weight, s, tol)
    result = {
        "is_complementable": report.is_complementable,
        "criterion_ab": report.criterion_ab,
        "domain": _ser_subspace(report.domain),
        "mul": _ser_subspace(report.mul),
        "borderline_weight": report.borderline_weight,
    }
    diag = {}
    if verify:
        flag, domain = oracles.complementable_by_span(weight.matrix, s.basis, tol.abs_eps)
        diag["oracle_delta"] = max(
            0.0 if flag == report.is_complementable else 1.0,
            _projector_delta(report.domain.basis, domain),
        )
    return "ok", result, diag


def _cmd_krein_classify(pf, tol, verify):
    weight = _weight(pf, _need(pf, "weight"), "problem.weight")
    s = _subspace(pf, _need(pf, "subspace"), tol, "problem.subspace")
    report = krein_classify(s, weight, tol)
    result = {
        "isotropic": _ser_subspace(report.isotropic),
        "nondegenerate": report.nondegenerate,
        "pseudo_regular": report.pseudo_regular,
        "regular": report.regular,
        "note": report.note,
    }
    diag = {}
    if verify:
        regular = oracles.krein_regular(weight.matrix, s.basis, tol.abs_eps)
        diag["oracle_delta"] = 0.0 if regular == report.regular else 1.0
    return "ok", result, diag


COMMANDS = {
    "relation-analyze": _cmd_relation_analyze,
    "proj-build": _cmd_proj_build,
    "proj-represent": _cmd_proj_represent,
    "lss-solve": _cmd_lss_solve,
    "w1w2-solve": _cmd_w1w2_solve,
    "spline": _cmd_spline,
    "smooth": _cmd_smooth,
    "shorted": _cmd_shorted,
    "complementable": _cmd_complementable,
    "krein-classify": _cmd_krein_classify,
}


# ---------------------------------------------------------------------------
# dispatch / emit / entry point


def dispatch(command: str, pf: ProblemFile, tol: Tolerance, verify: bool = False) -> dict:
    """Run one command against a parsed problem file and build its report.

    The floats of ``result`` and of the handler's diagnostics (such as
    ``oracle_delta``) are canonical, from one ``_canonical`` pass over both,
    so ``emit`` writes them unchanged and a report round-trips through JSON.
    """
    if command not in COMMANDS:
        raise ProblemFormatError(f"unknown command {command!r}")
    status, result, diag = COMMANDS[command](pf, tol, verify)
    result, diag = _canonical([result, diag], tol.abs_eps)
    return {
        "command": command,
        "status": status,
        "result": result,
        "diagnostics": {"tolerance": {"abs_eps": tol.abs_eps, "rel_eps": tol.rel_eps}, **diag},
    }


def _canonical(value, eps: float):
    """The report value with every float replaced by its canonical form.

    Refactors that leave the mathematics unchanged still move rounding noise,
    so report bytes are built from canonical numbers: magnitudes below the
    run's ``abs_eps`` become 0.0, -0.0 becomes 0.0, and everything else is
    rounded to ``SIGNIFICANT_DIGITS`` significant digits.  Every float and
    array of ``value`` goes through one ``_canonical_numbers`` call, on their
    concatenation; each comes back as a float or nested list of floats.
    """
    floats, arrays = [], []

    def collect(item):
        if isinstance(item, dict):
            for inner in item.values():
                collect(inner)
        elif isinstance(item, list):
            for inner in item:
                collect(inner)
        elif isinstance(item, float):
            floats.append(item)
        elif isinstance(item, np.ndarray):
            arrays.append(item)

    collect(value)
    flat = _canonical_numbers(np.concatenate([floats, *(a.ravel() for a in arrays)], dtype=float), eps)
    canonical_floats = iter(flat[: len(floats)].tolist())
    stop = len(floats)  # the end in flat of the entries handed back so far

    def rebuild(item):
        nonlocal stop
        if isinstance(item, dict):
            return {key: rebuild(inner) for key, inner in item.items()}
        if isinstance(item, list):
            return [rebuild(inner) for inner in item]
        if isinstance(item, float):
            return next(canonical_floats)
        if isinstance(item, np.ndarray):
            stop += item.size
            return flat[stop - item.size : stop].reshape(item.shape).tolist()
        return item

    return rebuild(value)


def _canonical_numbers(a: np.ndarray, eps: float) -> np.ndarray:
    out = np.where(np.abs(a) < eps, 0.0, a)
    keep = np.isfinite(out) & (out != 0.0)
    v = out[keep]
    # decimal places that leave SIGNIFICANT_DIGITS digits, capped so that
    # 10**places stays finite (magnitudes under 1e-288 round to zero)
    places = np.minimum(SIGNIFICANT_DIGITS - 1 - np.floor(np.log10(np.abs(v))), 300)
    scale = 10.0 ** np.abs(places)
    with np.errstate(over="ignore"):  # in the branch np.where discards
        out[keep] = np.where(places >= 0, np.rint(v * scale) / scale, np.rint(v / scale) * scale)
    return out + 0.0  # adding +0.0 turns -0.0 into 0.0


def _phase_canonical(basis: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significant entry is real and positive.

    A basis's column phases are not part of the subspace, and the library
    leaves them as its SVDs return them; a report fixes them, so that its
    bytes do not depend on the phases an SVD happens to pick.
    """
    if basis.shape[1] == 0:
        return basis
    mags = np.abs(basis)
    significant = mags > 1e-6 * mags.max(axis=0, keepdims=True)
    lead = significant.argmax(axis=0)  # first True per column
    pivots = basis[lead, np.arange(basis.shape[1])]
    return basis * (pivots.conj() / np.abs(pivots))


def emit(report: dict, fmt: str = "json") -> bytes:
    """Serialize a report; json output is stable-key-ordered and deterministic.

    The json bytes are those of ``json.dumps(report, sort_keys=True,
    indent=2)`` and a newline, from one ``orjson.dumps`` call.  orjson lays
    out a report as json does and writes ints and the floats in [1e-4, 1e16)
    as ``repr`` does.  The few floats outside that range are found by
    ``bytes.find`` on ``_OTHER_FLOAT_TEXT`` and rewritten with ``repr``: a
    hit after a digit is a float token when everything from the last space
    before it to the line end, less one comma, reads as a number, which the
    tail of a string never does, as its closing quote is on the line.  json
    itself writes the report when orjson refuses it (an int past 64 bits, a
    float subclass, a non-string key, a lone surrogate), when the text holds
    a byte json escapes (non-ASCII, DEL) or when it holds more ``null`` than
    ``_nones`` finds None (orjson writes NaN and the infinities as ``null``).
    """
    if fmt == "text":
        lines: list[str] = []
        _render_text(report, "", lines)
        return ("\n".join(lines) + "\n").encode("utf-8")
    if fmt != "json":
        raise ValueError(f"unknown format {fmt!r}")
    import orjson  # here, not at the top, as in parse

    try:
        text = orjson.dumps(report, option=orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE)
    except TypeError:  # orjson.JSONEncodeError
        text = None
    if text is None or not text.isascii() or b"\x7f" in text or text.count(b"null") > _nones(report):
        return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode("utf-8")
    tokens = {}  # start -> (end, repr text) of each float token to rewrite
    for marker in _OTHER_FLOAT_TEXT:
        at = text.find(marker)
        while at >= 0:
            if text[at - 1] in _DIGITS:  # else a key, a string, true or false
                start = text.rfind(b" ", 0, at) + 1
                token = text[start : text.find(b"\n", at)].removesuffix(b",")
                try:
                    tokens[start] = (start + len(token), repr(float(token)).encode())
                except ValueError:  # the tail of a string, as in "x 1e5"
                    pass
            at = text.find(marker, at + 1)
    pieces, done = [], 0
    for start in sorted(tokens):
        end, word = tokens[start]
        pieces += (text[done:start], word)
        done = end
    pieces.append(text[done:])
    return b"".join(pieces)


# the only floats orjson writes in other words than repr are those outside
# [1e-4, 1e16): 0.00001 for 1e-05, 1e16 for 1e+16; each such token holds
# one of these, after a digit
_OTHER_FLOAT_TEXT = (b"e", b".0000")
_DIGITS = b"0123456789"


def _nones(value) -> int:
    """How many None the report holds outside lists that start with a
    number or a list; a None this walk misses only costs the json route."""
    kind = type(value)
    if kind is dict:
        return sum(map(_nones, value.values()))
    if kind is list and value and type(value[0]) not in (int, float, list):
        return sum(map(_nones, value))
    return value is None


def _render_text(value, prefix: str, lines: list[str]):
    if isinstance(value, dict):
        for key in sorted(value):
            _render_text(value[key], f"{prefix}{key}.", lines)
    elif isinstance(value, list):
        lines.append(f"{prefix[:-1]} = {json.dumps(value)}")
    else:
        lines.append(f"{prefix[:-1]} = {value}")


_EXIT_BY_STATUS = {"ok": 0, "no-solution": 2}
# what a run reports as "error: ..." with exit 1, in place of a traceback
_OPERATIONAL_ERRORS = (ProblemFormatError, DimensionMismatchError, NotRepresentableError, ConsistencyError, ValueError)


def _tolerance_override(flag: str | None) -> Tolerance | None:
    """The absolute tolerance that ``--tol``, else ``RELCALC_TOL``, sets for
    every file of the run, or None when neither is given."""
    for source, raw in (("--tol", flag), ("RELCALC_TOL", os.environ.get("RELCALC_TOL"))):
        if raw is not None:
            try:
                return Tolerance(abs_eps=float(raw))
            except ValueError as exc:
                raise ProblemFormatError(f"{source}: {exc}") from exc
    return None


def _run_file(command: str, path: Path, args, override: Tolerance | None) -> tuple[bytes, int]:
    pf = parse(path)
    tol = override or pf.tolerance or Tolerance()
    report = dispatch(command, pf, tol, verify=args.verify)
    return emit(report, args.format), _EXIT_BY_STATUS[report["status"]]


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is operational: exit code 1, as 2 means "no solution"."""
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="relcalc",
        description="Linear-relation calculus: projections, weighted least squares, splines, smoothing.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("file", nargs="?", help="problem file (omit with --batch)")
    parser.add_argument("--tol", default=None, help="absolute tolerance override")
    parser.add_argument("--verify", action="store_true", help="run the oracle cross-check")
    parser.add_argument("--format", choices=["json", "text"], default="json")
    parser.add_argument("--batch", metavar="DIR", default=None, help="process every .json file in DIR")
    return parser


# built once per process: parse_args keeps no state between calls
_PARSER = build_parser()


def main(argv=None, out=None) -> int:
    args = _PARSER.parse_args(argv)
    stream = out if out is not None else sys.stdout.buffer
    if (args.file is None) == (args.batch is None):
        print("error: provide exactly one of a problem file or --batch DIR", file=sys.stderr)
        return 1
    try:
        override = _tolerance_override(args.tol)
    except ProblemFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.batch is None:
        try:
            payload, code = _run_file(args.command, Path(args.file), args, override)
        except _OPERATIONAL_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        stream.write(payload)
        return code

    directory = Path(args.batch)
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return 1
    worst = 0
    ranking = {0: 0, 2: 1, 1: 2}
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".report.json"):
            continue
        try:
            payload, code = _run_file(args.command, path, args, override)
            path.with_name(path.stem + ".report.json").write_bytes(payload)
            status = "ok" if code == 0 else "no-solution"
        except _OPERATIONAL_ERRORS as exc:
            print(f"error: {path.name}: {exc}", file=sys.stderr)
            code, status = 1, "error"
        stream.write(f"{path.name}: {status}\n".encode("utf-8"))
        if ranking[code] > ranking[worst]:
            worst = code
    return worst


def entrypoint():  # console-script shim
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
