"""Command-line front end: parsing, golden reports, determinism, exit codes."""

import dataclasses
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relcalc.cli
from relcalc import (
    Coset, ProblemFormatError, Subspace, Tolerance, identity_on, parts, product_of_subspaces, scale, zero_on,
)
from relcalc.cli import COMMANDS, dispatch, emit, main, parse

from genutil import cmat, cvec, projector_dist, random_psd, random_subspace, rotated_borderline_problem

DATA = Path(__file__).parent / "data"

GOLDEN_CASES = [
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


def run_cli(args):
    buf = io.BytesIO()
    code = main(args, out=buf)
    return code, buf.getvalue()


class TestParse:
    def test_minimal_file(self):
        pf = parse(DATA / "lss-solve.json")
        assert pf.version == 1
        assert np.allclose(pf.matrices["A"], np.diag([1.0, 0.0]))
        assert np.allclose(pf.vectors["b"], [1.0, 1.0])

    def test_complex_pairs_round_trip(self, tmp_path):
        src = {
            "version": 1,
            "field": "complex",
            "matrices": {"Z": [[[1.0, 2.0], [0.0, -1.0]], [[0.5, 0.0], [3.0, 4.0]]]},
        }
        path = tmp_path / "z.json"
        path.write_text(json.dumps(src))
        pf = parse(path)
        expected = np.array([[1 + 2j, -1j], [0.5, 3 + 4j]])
        assert np.array_equal(pf.matrices["Z"], expected)

    def test_json_error_carries_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"version": 1,,}')
        with pytest.raises(ProblemFormatError, match="line 1"):
            parse(path)

    def test_ragged_matrix_is_named(self, tmp_path):
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps({
            "version": 1,
            "matrices": {"A": [[[1, 0], [0, 0]], [[1, 0]]]},
        }))
        with pytest.raises(ProblemFormatError, match="matrices.A"):
            parse(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "v2.json"
        path.write_text(json.dumps({"version": 2}))
        with pytest.raises(ProblemFormatError, match="version"):
            parse(path)

    def test_bare_scalars_rejected(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"version": 1, "vectors": {"b": [1, 2]}}))
        with pytest.raises(ProblemFormatError, match=r"\[re, im\]"):
            parse(path)


class TestGoldenReports:
    @pytest.mark.parametrize("command,fixture", GOLDEN_CASES)
    def test_byte_identical_to_golden(self, command, fixture):
        code, payload = run_cli([command, str(DATA / fixture), "--verify"])
        assert code == 0
        golden = (DATA / fixture.replace(".json", ".golden.json")).read_bytes()
        assert payload == golden

    @pytest.mark.parametrize("command,fixture", GOLDEN_CASES)
    def test_two_runs_are_byte_identical(self, command, fixture):
        _, first = run_cli([command, str(DATA / fixture)])
        _, second = run_cli([command, str(DATA / fixture)])
        assert first == second

    @pytest.mark.parametrize("command,fixture", GOLDEN_CASES)
    def test_verify_delta_is_small(self, command, fixture):
        code, payload = run_cli([command, str(DATA / fixture), "--verify"])
        report = json.loads(payload)
        assert report["diagnostics"]["oracle_delta"] <= 1e-8

    def test_report_round_trips_through_json(self):
        pf = parse(DATA / "lss-solve.json")
        report = dispatch("lss-solve", pf, Tolerance(), verify=True)
        assert json.loads(emit(report, "json")) == report


def _assert_same_report(old, new, path="report"):
    """Same keys, list lengths and non-float values; floats within 1e-12."""
    if isinstance(old, float) and isinstance(new, float):
        assert abs(old - new) <= 1e-12, f"{path}: {old!r} vs {new!r}"
    elif isinstance(old, dict):
        assert isinstance(new, dict) and sorted(old) == sorted(new), path
        for key in old:
            _assert_same_report(old[key], new[key], f"{path}.{key}")
    elif isinstance(old, list):
        assert isinstance(new, list) and len(old) == len(new), path
        for i, (a, b) in enumerate(zip(old, new)):
            _assert_same_report(a, b, f"{path}[{i}]")
    else:
        assert type(old) is type(new) and old == new, f"{path}: {old!r} vs {new!r}"


def _floats(value):
    if isinstance(value, float):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _floats(item)
    elif isinstance(value, list):
        for item in value:
            yield from _floats(item)


def _bases(value):
    if isinstance(value, dict):
        for key, item in value.items():
            if key == "basis":
                yield item
            else:
                yield from _bases(item)
    elif isinstance(value, list):
        for item in value:
            yield from _bases(item)


class TestCanonicalReports:
    @pytest.mark.parametrize(
        "golden", sorted(p.name for p in (DATA / "pre_canonical").glob("*.golden.json"))
    )
    def test_regenerated_golden_matches_pre_canonical(self, golden):
        # the goldens were regenerated once when reports became canonical;
        # the earlier bytes are kept to show the regeneration hid nothing
        old = json.loads((DATA / "pre_canonical" / golden).read_text())
        new = json.loads((DATA / golden).read_text())
        _assert_same_report(old, new)

    @pytest.mark.parametrize("command,fixture", GOLDEN_CASES)
    @pytest.mark.parametrize("abs_eps", [1e-10, 1e-3])
    def test_result_numbers_are_canonical(self, command, fixture, abs_eps):
        report = dispatch(command, parse(DATA / fixture), Tolerance(abs_eps=abs_eps), verify=True)
        numbers = list(_floats(report["result"])) + [report["diagnostics"]["oracle_delta"]]
        for x in numbers:
            assert x == 0.0 or abs(x) >= abs_eps
            assert np.copysign(1.0, x) == 1.0 or x != 0.0  # no -0.0
            assert x == float(f"{x:.12e}")  # at most 13 significant digits
        assert report["diagnostics"]["tolerance"]["abs_eps"] == abs_eps
        # the report writer's phase convention: each basis vector leads
        # with a real positive entry
        for basis in _bases(report["result"]):
            for vector in basis:
                entries = np.array([re + 1j * im for re, im in vector])
                lead = entries[np.abs(entries) > 1e-6 * np.abs(entries).max()][0]
                assert lead.imag == 0.0 and lead.real > 0


def _with_matrix(fixture, name, entries):
    """A fixture problem with one named matrix replaced (real entries)."""
    doc = json.loads((DATA / fixture).read_text())
    doc["matrices"][name] = [[[x, 0] for x in row] for row in entries]
    return doc


# each problem's answer holds a coset with a nontrivial direction: e2 is in
# the kernel of T and of V, of the second weight, or of A
COSET_REPORTS = [
    ("lss-solve", json.loads((DATA / "lss-solve.json").read_text()), "solve"),
    ("spline", _with_matrix("spline.json", "T", [[1, 0], [0, 0]]), "spline_solve"),
    ("smooth", _with_matrix("smooth.json", "T", [[1, 0], [0, 0]]), "smooth_solve"),
    ("w1w2-solve", _with_matrix("w1w2-solve.json", "W2", [[1, 0], [0, 0]]), "w1w2_solve"),
]


def _moved_along_directions(value, moved):
    """The solver's answer with every coset's point moved along its direction."""
    if isinstance(value, Coset):
        if value.is_empty or value.direction.dim == 0:
            return value
        moved.append(value)
        return value.translate(value.direction.basis @ np.full(value.direction.dim, 2.5 - 1.5j))
    if dataclasses.is_dataclass(value):
        return dataclasses.replace(
            value,
            **{f.name: _moved_along_directions(getattr(value, f.name), moved)
               for f in dataclasses.fields(value) if f.init},
        )
    return value


class TestCosetReports:
    @pytest.mark.parametrize("command,doc,solver", COSET_REPORTS, ids=[c[0] for c in COSET_REPORTS])
    def test_point_does_not_depend_on_the_representative(
        self, monkeypatch, tmp_path, command, doc, solver
    ):
        # a coset is written by its min-norm point, so a route that returns
        # another representative of the same coset writes the same bytes
        path = _write_problem(tmp_path, doc)
        _, expected = run_cli([command, str(path)])
        moved = []
        right = getattr(relcalc.cli, solver)
        monkeypatch.setattr(
            relcalc.cli, solver, lambda *args: _moved_along_directions(right(*args), moved)
        )
        _, payload = run_cli([command, str(path)])
        assert moved
        assert payload == expected


# a complementable psd instance, so complementable --verify sees the
# assembled block form, which the fixture (not complementable) lacks
PSD_COMPLEMENTABLE = {
    "version": 1,
    "matrices": {
        "W": [[[2, 0], [1, 0], [0, 0]], [[1, 0], [2, 0], [1, 0]], [[0, 0], [1, 0], [2, 0]]]
    },
    "subspaces": {"S": {"ambient": 3, "span": [[[1, 0], [1, 0], [0, 0]]]}},
    "weights": {"W": {"matrix": "W", "kind": "psd"}},
    "problem": {"weight": "W", "subspace": "S"},
}


@pytest.fixture
def rank_cutoffs(monkeypatch):
    """A list that grows by one per library rank decision."""
    calls = []
    cutoff = Tolerance.rank_cutoff

    def counting(self, *args, **kwargs):
        calls.append(None)
        return cutoff(self, *args, **kwargs)

    monkeypatch.setattr(Tolerance, "rank_cutoff", counting)
    return calls


class TestVerifyOwnership:
    """--verify reads only independent oracles: the library has run its own
    second route already, and an oracle makes no library rank decision."""

    @pytest.mark.parametrize(
        "command,fixture", GOLDEN_CASES + [("complementable", "psd-complementable")]
    )
    def test_verify_adds_no_rank_decisions(self, rank_cutoffs, tmp_path, command, fixture):
        if fixture == "psd-complementable":
            path = _write_problem(tmp_path, PSD_COMPLEMENTABLE)
        else:
            path = DATA / fixture
        counts = []
        for verify in (False, True):
            pf = parse(path)
            rank_cutoffs.clear()
            dispatch(command, pf, Tolerance(), verify=verify)
            counts.append(len(rank_cutoffs))
        assert counts[1] == counts[0] > 0

    @pytest.mark.parametrize(
        "command,name,wrong",
        [
            ("shorted", "shorted", lambda right: lambda w, s, tol: right(w, s, tol) + 1e-2),
            (
                "complementable",
                "complementability",
                lambda right: lambda w, s, tol: dataclasses.replace(
                    right(w, s, tol), is_complementable=not right(w, s, tol).is_complementable
                ),
            ),
            (
                "w1w2-solve",
                "w1w2_solve",
                lambda right: lambda *args: right(*args).translate(np.full(2, 1e-2)),
            ),
            (
                "proj-represent",
                "assemble_representation",
                lambda right: lambda m, n, tol: dataclasses.replace(
                    right(m, n, tol), b=scale(right(m, n, tol).b, 2.0)
                ),
            ),
        ],
    )
    def test_wrong_library_result_shows_in_delta(self, monkeypatch, command, name, wrong):
        pf = parse(DATA / f"{command}.json")
        assert dispatch(command, pf, Tolerance(), verify=True)["diagnostics"]["oracle_delta"] == 0.0
        monkeypatch.setattr(relcalc.cli, name, wrong(getattr(relcalc.cli, name)))
        report = dispatch(command, parse(DATA / f"{command}.json"), Tolerance(), verify=True)
        assert report["diagnostics"]["oracle_delta"] >= 1e-3

    def test_no_oracle_builds_a_tall_full_u(self, svd_shapes):
        # an oracle asks numpy for the full factors only of a wide matrix, as
        # the library's SVD does: a tall matrix's thin V is already square
        for command, fixture in GOLDEN_CASES:
            dispatch(command, parse(DATA / fixture), Tolerance(), verify=True)
        assert svd_shapes and not [(s, full) for s, full in svd_shapes if full and s[0] > s[1]]

    def test_w1w2_verify_agrees_on_matrix_relations(self, tmp_path):
        # the matrix relations of tools/compare.py's grid: a least-squares
        # stage that inverted singular values its null basis dropped as
        # rounding put its oracle up to 1.22 off a correct answer (i = 37)
        for i in range(2, 500, 5):
            rng = np.random.default_rng([31, i])
            n = int(rng.integers(2, 9))
            k = int(rng.integers(0, n + 1))
            doc = {
                "version": 1,
                "field": "complex",
                "matrices": {
                    "A": _complex_json(cmat(rng, n, k) @ cmat(rng, k, n)),
                    "W1": _complex_json(random_psd(rng, n)),
                    "W2": _complex_json(random_psd(rng, n, force_singular=False)),
                },
                "vectors": {"b": _complex_json(cvec(rng, n))},
                "relations": {"A": {"matrix": "A"}},
                "weights": {"W1": {"matrix": "W1", "kind": "psd"}, "W2": {"matrix": "W2", "kind": "psd"}},
                "problem": {"relation": "A", "weight1": "W1", "weight2": "W2", "b": "b"},
            }
            code, payload = run_cli(["w1w2-solve", str(_write_problem(tmp_path, doc)), "--verify"])
            assert code == 0 and json.loads(payload)["diagnostics"]["oracle_delta"] <= 1e-8, i

    @pytest.mark.parametrize("c", [1.0, 1e-14, 1e-15, 1e-20])
    def test_small_weight_leaves_no_delta(self, tmp_path, c):
        # the oracle cuts the root of W = c I relative to its largest
        # eigenvalue: with an absolute floor of 1e-14 it flushed W whole and
        # reported the whole, correct minimum sqrt(c) as the delta
        path = _write_problem(tmp_path, _with_matrix("lss-solve.json", "W", [[c, 0], [0, c]]))
        code, payload = run_cli(["lss-solve", str(path), "--verify"])
        report = json.loads(payload)
        assert code == 0 and report["result"]["min_value"] == pytest.approx(np.sqrt(c), rel=1e-12)
        assert report["diagnostics"]["oracle_delta"] == 0.0


class TestExitCodes:
    def test_success_is_zero(self):
        code, _ = run_cli(["lss-solve", str(DATA / "lss-solve.json")])
        assert code == 0

    def test_no_solution_is_two(self):
        code, payload = run_cli(["lss-solve", str(DATA / "lss-no-solution.json")])
        assert code == 2
        assert json.loads(payload)["status"] == "no-solution"

    @pytest.mark.parametrize("eps", [1e-6, 1e-7])
    def test_rotated_no_solution_is_two(self, tmp_path, eps):
        # the same fixture in random coordinates; the relation route exited
        # 1 on 363 of these 666 copies, mostly because its companion's two
        # routes disagreed, and 0 on 10
        rng = np.random.default_rng(7100 + int(eps == 1e-7))
        doc = json.loads((DATA / "lss-no-solution.json").read_text())
        for _ in range(333):
            a, w, b = rotated_borderline_problem(rng, int(rng.integers(2, 5)), eps)
            doc["matrices"] = {"A": _complex_json(a), "W": _complex_json(w)}
            doc["vectors"] = {"b": _complex_json(b)}
            code, payload = run_cli(["lss-solve", str(_write_problem(tmp_path, doc))])
            assert code == 2
            assert json.loads(payload)["status"] == "no-solution"

    def test_dimension_error_is_one(self, capsys):
        code, _ = run_cli(["lss-solve", str(DATA / "malformed-vector.json")])
        assert code == 1
        assert "b" in capsys.readouterr().err

    def test_missing_file_is_one(self):
        code, _ = run_cli(["lss-solve", str(DATA / "does-not-exist.json")])
        assert code == 1

    def test_missing_section_is_one(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"version": 1}))
        code, _ = run_cli(["lss-solve", str(path)])
        assert code == 1
        assert "relation" in capsys.readouterr().err

    def test_second_weight_size_is_one(self, tmp_path, capsys):
        # a 3 x 3 W2 against the fixture's 2-dim relation ended in numpy's
        # matmul core-dimension message
        doc = json.loads((DATA / "w1w2-solve.json").read_text())
        doc["matrices"]["W2"] = _complex_json(np.eye(3, dtype=complex))
        code, payload = run_cli(["w1w2-solve", str(_write_problem(tmp_path, doc))])
        assert code == 1 and payload == b""
        assert "weight size 3 != relation dimension 2" in capsys.readouterr().err

    def test_w1w2_without_a_w1_solution_is_two(self, tmp_path):
        doc = json.loads((DATA / "lss-no-solution.json").read_text())
        doc["matrices"]["W2"] = _complex_json(np.eye(2, dtype=complex))
        doc["weights"] = {"W1": doc["weights"]["W"], "W2": {"matrix": "W2", "kind": "psd"}}
        doc["problem"] = {"relation": "A", "weight1": "W1", "weight2": "W2", "b": "b"}
        code, payload = run_cli(["w1w2-solve", str(_write_problem(tmp_path, doc)), "--verify"])
        report = json.loads(payload)
        assert code == 2 and report["status"] == "no-solution"
        assert report["result"] == {"solution_set": {"empty": True}}

    def test_undefined_name_is_one(self, tmp_path, capsys):
        doc = json.loads((DATA / "lss-solve.json").read_text())
        doc["problem"]["relation"] = "X"
        code, payload = run_cli(["lss-solve", str(_write_problem(tmp_path, doc))])
        assert code == 1 and payload == b""
        assert capsys.readouterr().err == "error: undefined relation 'X'\n"

    @pytest.mark.parametrize("ref", [["W"], 3, None, {"name": "W"}])
    def test_a_reference_that_is_no_name_is_one(self, tmp_path, capsys, ref):
        doc = json.loads((DATA / "lss-solve.json").read_text())
        doc["problem"]["weight"] = ref
        code, payload = run_cli(["lss-solve", str(_write_problem(tmp_path, doc))])
        assert code == 1 and payload == b""
        assert capsys.readouterr().err == "error: problem.weight: expected a weight name\n"

    def test_file_and_batch_are_exclusive(self, capsys):
        code, _ = run_cli(["lss-solve"])
        assert code == 1
        code, _ = run_cli(["lss-solve", str(DATA / "lss-solve.json"), "--batch", str(DATA)])
        assert code == 1


def _complex_json(a):
    """A complex array as nested [re, im] pairs."""
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _write_problem(tmp_path, doc):
    """Write a problem file; json.dumps spells non-finite floats NaN/Infinity."""
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    return path


def _lss_with_entry(section, name, index, entry):
    """The lss-solve fixture with the complex entry at ``index`` replaced."""
    doc = json.loads((DATA / "lss-solve.json").read_text())
    target = doc[section][name]
    for i in index[:-1]:
        target = target[i]
    target[index[-1]] = entry
    return doc


class TestNonFiniteInput:
    """Non-finite numbers are bad input (exit 1), never "no solution"."""

    @pytest.mark.parametrize(
        "section,name,index,entry,where",
        [
            ("vectors", "b", [0], [float("nan"), 0.0], r"vectors\.b\[0\]"),
            ("vectors", "b", [1], [1.0, float("inf")], r"vectors\.b\[1\]"),
            ("matrices", "A", [1, 1], [float("inf"), 0.0], r"matrices\.A row 1\[1\]"),
            ("matrices", "A", [0, 0], [10**400, 0], r"matrices\.A row 0\[0\]"),
        ],
        ids=["nan-in-b", "inf-in-b", "inf-in-A", "huge-int-in-A"],
    )
    def test_non_finite_entry_is_one(self, tmp_path, capsys, section, name, index, entry, where):
        path = _write_problem(tmp_path, _lss_with_entry(section, name, index, entry))
        code, payload = run_cli(["lss-solve", str(path), "--verify"])
        assert code == 1 and payload == b""
        err = capsys.readouterr().err
        assert re.search(where, err) and "finite" in err

    def test_parse_names_the_entry(self, tmp_path):
        doc = _lss_with_entry("matrices", "W", [0, 1], [0.0, float("-inf")])
        with pytest.raises(ProblemFormatError, match=r"matrices\.W row 0\[1\]"):
            parse(_write_problem(tmp_path, doc))

    def test_non_finite_rho_is_one(self, tmp_path, capsys):
        doc = json.loads((DATA / "smooth.json").read_text())
        doc["rho"] = float("inf")
        code, _ = run_cli(["smooth", str(_write_problem(tmp_path, doc))])
        assert code == 1
        assert "rho" in capsys.readouterr().err

    def test_non_finite_file_tolerance_is_one(self, tmp_path, capsys):
        doc = json.loads((DATA / "lss-solve.json").read_text())
        doc["tolerance"] = {"abs_eps": float("nan")}
        code, _ = run_cli(["lss-solve", str(_write_problem(tmp_path, doc))])
        assert code == 1
        assert "tolerance.abs_eps" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_tol_is_one(self, capsys, value):
        # at --tol inf every rank cut dropped everything: A = diag(1, 0)
        # read as zero gave exit 0 with min_value 0.0 instead of 1.0
        code, payload = run_cli(["lss-solve", str(DATA / "lss-solve.json"), "--tol", value])
        assert code == 1 and payload == b""
        assert "abs_eps" in capsys.readouterr().err


class TestFlags:
    def test_text_format(self):
        code, payload = run_cli(["shorted", str(DATA / "shorted.json"), "--format", "text"])
        assert code == 0
        text = payload.decode()
        assert "command = shorted" in text and "status = ok" in text

    def test_tol_flag_changes_reported_tolerance(self):
        _, payload = run_cli(["lss-solve", str(DATA / "lss-solve.json"), "--tol", "1e-8"])
        report = json.loads(payload)
        assert report["diagnostics"]["tolerance"]["abs_eps"] == 1e-8

    def test_env_tolerance_fallback(self, monkeypatch):
        monkeypatch.setenv("RELCALC_TOL", "1e-7")
        _, payload = run_cli(["lss-solve", str(DATA / "lss-solve.json")])
        assert json.loads(payload)["diagnostics"]["tolerance"]["abs_eps"] == 1e-7

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("RELCALC_TOL", "1e-7")
        _, payload = run_cli(["lss-solve", str(DATA / "lss-solve.json"), "--tol", "1e-9"])
        assert json.loads(payload)["diagnostics"]["tolerance"]["abs_eps"] == 1e-9

    @pytest.mark.parametrize(
        "value,message",
        [("-1", "abs_eps must be finite and nonnegative, got -1.0"),
         ("abc", "could not convert string to float: 'abc'")],
    )
    def test_bad_override_names_its_source_once(self, tmp_path, monkeypatch, capsys, value, message):
        # the message named neither source, argparse exited 2 on --tol abc,
        # and under --batch a bad RELCALC_TOL was reported against each file
        code, payload = run_cli(["lss-solve", str(DATA / "lss-solve.json"), "--tol", value])
        assert (code, payload) == (1, b"")
        assert capsys.readouterr().err == f"error: --tol: {message}\n"
        for name in ("a.json", "b.json"):
            shutil.copy(DATA / "lss-solve.json", tmp_path / name)
        monkeypatch.setenv("RELCALC_TOL", value)
        code, payload = run_cli(["lss-solve", "--batch", str(tmp_path)])
        assert (code, payload) == (1, b"")
        assert capsys.readouterr().err == f"error: RELCALC_TOL: {message}\n"
        assert not list(tmp_path.glob("*.report.json"))

    @pytest.mark.parametrize(
        "args",
        [["lss-solve", str(DATA / "lss-solve.json"), "--tol", "-1e-3"], ["no-such-command", "f.json"]],
        ids=["tol-read-as-an-option", "unknown-command"],
    )
    def test_usage_error_is_one(self, capsys, args):
        # argparse exited 2, the no-solution code
        with pytest.raises(SystemExit) as exc:
            run_cli(args)
        assert exc.value.code == 1
        assert "relcalc: error: argument" in capsys.readouterr().err


class TestModuleForms:
    @pytest.mark.parametrize("module", ["relcalc", "relcalc.cli"])
    def test_reproduces_the_golden(self, module):
        # python -m relcalc.cli exited 0 with no output, and python -m
        # relcalc found no __main__ module
        src = str(Path(relcalc.cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("RELCALC_TOL", None)
        result = subprocess.run(
            [sys.executable, "-m", module, "lss-solve", str(DATA / "lss-solve.json"), "--verify"],
            capture_output=True, env=env, timeout=120,
        )
        golden = (DATA / "lss-solve.golden.json").read_bytes()
        assert (result.returncode, result.stdout, result.stderr) == (0, golden, b"")

    def test_import_leaves_orjson_unloaded(self):
        # parse and emit import orjson when first called, so a cold start
        # that only imports the package does not pay for it
        src = str(Path(relcalc.cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = (
            "import sys, relcalc, relcalc.cli\n"
            "print('orjson' in sys.modules)\n"
            "relcalc.cli.emit({'x': [1.0]})\n"
            "print('orjson' in sys.modules)\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=120)
        assert (result.returncode, result.stdout, result.stderr) == (0, b"False\nTrue\n", b"")


class TestBatch:
    def test_batch_directory(self, tmp_path):
        for name in ("lss-solve.json", "lss-no-solution.json"):
            shutil.copy(DATA / name, tmp_path / name)
        code, payload = run_cli(["lss-solve", "--batch", str(tmp_path)])
        assert code == 2  # one file has no solution, none errored
        summary = payload.decode()
        assert "lss-solve.json: ok" in summary
        assert "lss-no-solution.json: no-solution" in summary
        report = json.loads((tmp_path / "lss-solve.report.json").read_text())
        assert report["status"] == "ok"

    def test_batch_error_dominates(self, tmp_path, capsys):
        shutil.copy(DATA / "lss-solve.json", tmp_path / "good.json")
        shutil.copy(DATA / "malformed-vector.json", tmp_path / "bad.json")
        code, _ = run_cli(["lss-solve", "--batch", str(tmp_path)])
        assert code == 1

    def test_a_second_run_skips_the_reports_of_the_first(self, tmp_path):
        for name in ("lss-solve.json", "lss-no-solution.json"):
            shutil.copy(DATA / name, tmp_path / name)
        first = run_cli(["lss-solve", "--batch", str(tmp_path)])
        reports = {path.name: path.read_bytes() for path in tmp_path.glob("*.report.json")}
        assert sorted(reports) == ["lss-no-solution.report.json", "lss-solve.report.json"]
        assert run_cli(["lss-solve", "--batch", str(tmp_path)]) == first
        assert first[1] == b"lss-no-solution.json: no-solution\nlss-solve.json: ok\n"
        assert {path.name: path.read_bytes() for path in tmp_path.glob("*.report.json")} == reports

    def test_batch_on_a_file_is_one(self, capsys):
        path = DATA / "lss-solve.json"
        assert run_cli(["lss-solve", "--batch", str(path)]) == (1, b"")
        assert capsys.readouterr().err == f"error: {path} is not a directory\n"


def _subspace_json(s):
    return {"ambient": s.ambient_dim, "span": [_complex_json(v) for v in s.basis.T]}


def _reported_subspace(entry):
    basis = np.array([[re + 1j * im for re, im in v] for v in entry["basis"]]).T
    return Subspace(basis.reshape(entry["ambient"], entry["dim"]), validate=False)


class TestRelationKinds:
    """The relations a problem file builds from its subspaces, read by
    ``relation-analyze --verify`` against ``parts`` of the library's own."""

    KINDS = {
        "identity_on": ("S", lambda s, k: identity_on(s)),
        "zero_on": ("S", lambda s, k: zero_on(s)),
        "product_of": (["S", "K"], product_of_subspaces),
    }

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_report_matches_the_library(self, tmp_path, kind):
        spec, build = self.KINDS[kind]
        rng = np.random.default_rng(7300 + sorted(self.KINDS).index(kind))
        for _ in range(20):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            s, k = random_subspace(rng, n), random_subspace(rng, m if kind == "product_of" else n)
            doc = {"version": 1, "field": "complex",
                   "subspaces": {"S": _subspace_json(s), "K": _subspace_json(k)},
                   "relations": {"R": {kind: spec}}, "problem": {"relation": "R"}}
            code, payload = run_cli(["relation-analyze", str(_write_problem(tmp_path, doc)), "--verify"])
            report = json.loads(payload)
            assert code == 0 and report["diagnostics"]["oracle_delta"] <= 1e-12
            relation = build(s, k)
            expected = parts(relation)
            assert report["result"]["graph_dim"] == relation.graph.dim
            for field in ("dom", "ran", "ker", "mul"):
                got, want = _reported_subspace(report["result"][field]), getattr(expected, field)
                assert got.dim == want.dim and projector_dist(got, want) <= 1e-12


class TestFrozenResults:
    def test_lss_report_values(self):
        _, payload = run_cli(["lss-solve", str(DATA / "lss-solve.json")])
        result = json.loads(payload)["result"]
        assert result["exists"] is True
        assert abs(result["min_value"] - 1.0) < 1e-12
        witness = np.array([re + 1j * im for re, im in result["witness"]])
        assert np.linalg.norm(witness - np.array([1.0, 0.0])) < 1e-10

    def test_krein_report_flags(self):
        _, payload = run_cli(["krein-classify", str(DATA / "krein-classify.json")])
        result = json.loads(payload)["result"]
        assert result["nondegenerate"] is False and result["regular"] is False

    def test_relation_analyze_dimensions(self):
        _, payload = run_cli(["relation-analyze", str(DATA / "relation-analyze.json")])
        result = json.loads(payload)["result"]
        assert result["dom"]["dim"] == 1 and result["ran"]["dim"] == 2
        assert result["ker"]["dim"] == 0 and result["mul"]["dim"] == 1

    def test_zero_tolerance_reads_a_zero_matrix_as_zero(self, tmp_path):
        # at --tol 0 the rank cutoff of the zero output block is 0 itself; it
        # kept the block's zero singular values and reported ran 2, ker 0
        zero = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
        doc = {"version": 1, "field": "complex", "relations": {"R": {"matrix": zero}},
               "problem": {"relation": "R"}}
        path = _write_problem(tmp_path, doc)
        code, payload = run_cli(["relation-analyze", str(path), "--tol", "0"])
        result = json.loads(payload)["result"]
        assert code == 0
        assert result["dom"]["dim"] == 2 and result["ran"]["dim"] == 0
        assert result["ker"]["dim"] == 2 and result["mul"]["dim"] == 0

    def test_every_command_is_registered(self):
        assert sorted(COMMANDS) == sorted(c for c, _ in GOLDEN_CASES)
