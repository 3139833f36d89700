"""Problem-file parsing: whole-array reads, the per-entry walk, strict scalar fields."""

import io
import json

import numpy as np
import pytest

import relcalc.cli as cli
from relcalc import ProblemFormatError, Tolerance
from relcalc.cli import main, parse

from test_cli import DATA


def _write(tmp_path, doc_or_text):
    path = tmp_path / "problem.json"
    text = doc_or_text if isinstance(doc_or_text, str) else json.dumps(doc_or_text)
    path.write_text(text)
    return path


def _walk_only(monkeypatch):
    """Parse with the whole-array path switched off: every entry is walked."""
    monkeypatch.setattr(cli, "_pair_array", lambda raw, ndim: None)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _outcome(path):
    """The parsed problem file, or the message of the error it raises."""
    try:
        return parse(path)
    except ProblemFormatError as exc:
        return str(exc)


def _arrays(pf):
    """Every array a parsed file holds, named, in a fixed order."""
    named = [*pf.matrices.items(), *pf.vectors.items()]
    for section in (pf.subspaces, pf.relations, pf.weights):
        for name, spec in section.items():
            named += [(name, v) for v in spec.get("span", [])]
            if isinstance(spec.get("matrix"), np.ndarray):
                named.append((name, spec["matrix"]))
    return named


def _same_problem(a, b):
    x, y = _arrays(a), _arrays(b)
    return len(x) == len(y) and all(k == l and _same_bits(u, v) for (k, u), (l, v) in zip(x, y))


def _random_entry(rng, kind):
    """One [re, im] pair of the kinds a well-formed file may hold."""
    if kind == 0:
        return [int(rng.integers(-9, 10)), int(rng.integers(-9, 10))]
    if kind == 1:
        return [-0.0, float(rng.standard_normal())]
    if kind == 2:
        return [1e308, -1e308]
    if kind == 3:
        return [bool(rng.integers(2)), bool(rng.integers(2))]
    if kind == 4:
        return [2**70 + int(rng.integers(1000)), 0]
    return [float(rng.standard_normal()), float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300))]


def _random_document(rng):
    """A well-formed file touching every numeric section: entries of one kind
    in half of the files, of mixed kinds in the other half."""
    n, m = (int(k) for k in rng.integers(1, 6, size=2))
    kinds = [int(rng.integers(6))] if rng.random() < 0.5 else range(6)

    def vec(length):
        return [_random_entry(rng, rng.choice(kinds)) for _ in range(length)]

    def mat(rows, cols):
        return [vec(cols) for _ in range(rows)]

    return {
        "version": 1,
        "matrices": {"A": mat(m, n), "W": mat(m, m)},
        "vectors": {"b": vec(m), "empty": []},
        "subspaces": {"S": {"ambient": n, "span": [vec(n) for _ in range(int(rng.integers(0, n + 1)))]}},
        "relations": {
            "G": {"dim_in": n, "dim_out": m, "graph_span": [vec(n + m) for _ in range(int(rng.integers(1, 4)))]},
            "M": {"matrix": mat(m, n)},
        },
        "weights": {"V": {"matrix": mat(m, m), "kind": "selfadjoint"}},
    }


class TestWholeArrays:
    @pytest.mark.parametrize("seed", range(40))
    def test_bit_identical_to_the_walk(self, tmp_path, monkeypatch, seed):
        path = _write(tmp_path, _random_document(np.random.default_rng(14000 + seed)))
        fast = parse(path)
        _walk_only(monkeypatch)
        assert _same_problem(fast, parse(path))

    @pytest.mark.parametrize("raw", [
        [[-0.0, 0.0], [0.0, -0.0]],
        [[1e308, -1e308], [5e-324, -5e-324]],
        [[True, False], [False, True]],
        [[True, 2], [3, False]],
        [[True, 0.5], [2**53 + 1, 0]],
        [[2**63 + 1, 0], [2**64 - 1, 1]],
        [[-(2**63) - 1, 0], [1, 1]],
        [[10**300, 0], [1, 0.5]],
    ])
    def test_edge_entries_match_the_walk(self, raw):
        assert _same_bits(cli._parse_vector(raw, "v"), cli._walk_vector(raw, "v"))
        assert _same_bits(cli._parse_matrix([raw, raw], "m"), cli._walk_matrix([raw, raw], "m"))

    def test_large_sections_never_walk(self, tmp_path, monkeypatch):
        """A regression to per-entry parsing shows as calls to _complex_entry."""
        rng = np.random.default_rng(64)
        pairs = lambda *shape: rng.standard_normal(shape + (2,)).tolist()
        doc = {
            "version": 1,
            "matrices": {"A": pairs(64, 64)},
            "vectors": {"b": pairs(64)},
            "subspaces": {"S": {"ambient": 64, "span": pairs(5, 64)}},
            "relations": {"G": {"dim_in": 64, "dim_out": 64, "graph_span": pairs(8, 128)}},
        }
        calls = []
        walk = cli._complex_entry
        monkeypatch.setattr(cli, "_complex_entry", lambda *args: calls.append(1) or walk(*args))
        pf = parse(_write(tmp_path, doc))
        assert calls == []
        assert pf.matrices["A"].shape == (64, 64) and len(pf.relations["G"]["span"]) == 8
        assert len(pf.subspaces["S"]["span"]) == 5


def _with(section, name, raw):
    return {"version": 1, section: {name: raw}}


def _lss_text(b_text):
    """The lss-solve fixture with vectors.b spelled out as raw JSON text."""
    doc = json.loads((DATA / "lss-solve.json").read_text())
    doc["vectors"]["b"] = "@B@"
    return json.dumps(doc).replace('"@B@"', b_text)


# (problem file, the walk's message); each names the first bad entry
MALFORMED = {
    "string-entry": (_with("vectors", "b", [[1, 0], ["2", 0]]),
                     "vectors.b[1]: complex scalars must be [re, im] pairs"),
    "nan-literal": (_lss_text("[[1, 0], [NaN, 0]]"), "vectors.b[1]: numbers must be finite, got nan"),
    "infinity-literal": (_lss_text("[[Infinity, 0], [1, 0]]"),
                         "vectors.b[0]: numbers must be finite, got inf"),
    "minus-infinity-literal": (_lss_text("[[0, 0], [1, -Infinity]]"),
                               "vectors.b[1]: numbers must be finite, got -inf"),
    "huge-integer": (_with("matrices", "A", [[[0, 0], [10**400, 0]]]),
                     "matrices.A row 0[1]: numbers must be finite, got inf"),
    "ragged-rows": (_with("matrices", "A", [[[1, 0], [0, 0]], [[1, 0]]]),
                    "matrices.A row 1 has 1 entries, expected 2"),
    "triple": (_with("vectors", "b", [[1, 0], [1, 0, 0]]),
               "vectors.b[1]: complex scalars must be [re, im] pairs"),
    "uniform-triples": (_with("vectors", "b", [[1, 0, 0], [1, 0, 0]]),
                        "vectors.b[0]: complex scalars must be [re, im] pairs"),
    "bare-scalars": (_with("vectors", "b", [1, 2]), "vectors.b[0]: complex scalars must be [re, im] pairs"),
    "scalar-section": (_with("vectors", "b", 3), "vectors.b: expected a list of [re, im] pairs"),
    "null-entry": (_with("vectors", "b", [[1, 0], [None, 0]]),
                   "vectors.b[1]: complex scalars must be [re, im] pairs"),
    "null-section": (_with("matrices", "A", None), "matrices.A: expected a nonempty list of rows"),
    "nested-object": (_with("matrices", "A", [[[1, 0]], {"re": 1, "im": 0}]),
                      "matrices.A row 1: expected a list of [re, im] pairs"),
    "object-entry": (_with("vectors", "b", [[1, 0], {"re": 1, "im": 0}]),
                     "vectors.b[1]: complex scalars must be [re, im] pairs"),
    "empty-row": (_with("matrices", "A", [[[1, 0]], []]), "matrices.A row 1 has 0 entries, expected 1"),
    "empty-matrix": (_with("matrices", "A", []), "matrices.A: expected a nonempty list of rows"),
    "empty-span-vector": (_with("subspaces", "S", {"ambient": 2, "span": [[[1, 0], [0, 0]], []]}),
                          "subspaces.S.span[1] has length 0, expected ambient 2"),
    "span-entry": (_with("subspaces", "S", {"ambient": 2, "span": [[[1, 0], [0, "x"]]]}),
                   "subspaces.S.span[0][1]: complex scalars must be [re, im] pairs"),
    "graph-span-length": (
        _with("relations", "R", {"dim_in": 1, "dim_out": 1, "graph_span": [[[1, 0], [0, 0], [0, 0]]]}),
        "relations.R.graph_span[0] has length 3, expected 2"),
    "inline-matrix": (_with("relations", "R", {"matrix": [[[1, 0], [0, float("inf")]]]}),
                      "relations.R.matrix row 0[1]: numbers must be finite, got inf"),
    "weight-matrix": (_with("weights", "W", {"matrix": [[[1, 0]], [[0, 1], [0, 0]]]}),
                      "weights.W.matrix row 1 has 2 entries, expected 1"),
}


class TestMalformedSections:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_walk_names_the_first_bad_entry(self, tmp_path, monkeypatch, case):
        doc, message = MALFORMED[case]
        path = _write(tmp_path, doc)
        with pytest.raises(ProblemFormatError) as fast:
            parse(path)
        assert str(fast.value) == message
        _walk_only(monkeypatch)
        assert _outcome(path) == message

    def test_empty_vector_is_read_as_today(self, tmp_path, monkeypatch):
        path = _write(tmp_path, _with("vectors", "b", []))
        fast = parse(path).vectors["b"]
        _walk_only(monkeypatch)
        assert fast.shape == (0,) and _same_bits(fast, parse(path).vectors["b"])

    @pytest.mark.parametrize("span", [{}, "ab", 5])
    def test_span_must_be_a_list(self, tmp_path, span):
        path = _write(tmp_path, _with("subspaces", "S", {"ambient": 1, "span": span}))
        with pytest.raises(ProblemFormatError, match=r"^subspaces\.S\.span: expected a list of vectors$"):
            parse(path)


def _run(args):
    buf = io.BytesIO()
    return main(args, out=buf), buf.getvalue()


def _fixture(name):
    return json.loads((DATA / name).read_text())


class TestStrictScalarFields:
    """Sizes are nonnegative JSON integers and tolerances and rho JSON
    numbers; before, ``int()`` and ``float()`` read ``2.7`` as 2 and
    ``"0.5"`` as 0.5, and a relation with ``dim_in`` -1 was analyzed."""

    @pytest.mark.parametrize("value", [2.7, 2.0, "2", True, None, -1])
    def test_ambient(self, tmp_path, capsys, value):
        doc = _fixture("proj-build.json")
        doc["subspaces"]["M"]["ambient"] = value
        code, payload = _run(["proj-build", str(_write(tmp_path, doc))])
        assert code == 1 and payload == b""
        assert "subspaces.M.ambient: expected a nonnegative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["dim_in", "dim_out"])
    @pytest.mark.parametrize("value", [2.0, 1.5, "2", False, -1])
    def test_graph_sizes(self, tmp_path, capsys, field, value):
        doc = _fixture("relation-analyze.json")
        doc["relations"]["R"][field] = value
        code, payload = _run(["relation-analyze", str(_write(tmp_path, doc))])
        assert code == 1 and payload == b""
        assert f"relations.R.{field}: expected a nonnegative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["abs_eps", "rel_eps"])
    @pytest.mark.parametrize("value", ["1e-3", True, [1e-3]])
    def test_tolerance(self, tmp_path, capsys, field, value):
        doc = _fixture("lss-solve.json")
        doc["tolerance"] = {field: value}
        code, payload = _run(["lss-solve", str(_write(tmp_path, doc))])
        assert code == 1 and payload == b""
        assert f"tolerance.{field}: expected a number" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0.5", True, {"value": 0.5}])
    def test_rho(self, tmp_path, capsys, value):
        doc = _fixture("smooth.json")
        doc["rho"] = value
        code, payload = _run(["smooth", str(_write(tmp_path, doc))])
        assert code == 1 and payload == b""
        assert "rho: expected a number" in capsys.readouterr().err

    def test_json_numbers_are_accepted(self, tmp_path):
        doc = _fixture("smooth.json")
        doc["rho"] = 2
        doc["tolerance"] = {"abs_eps": 0, "rel_eps": 1e-12}
        pf = parse(_write(tmp_path, doc))
        assert pf.rho == 2.0 and type(pf.rho) is float
        assert pf.tolerance.abs_eps == 0.0 and pf.tolerance.rel_eps == 1e-12

    def test_tolerance_without_abs_eps_takes_the_default(self, tmp_path):
        doc = _fixture("lss-solve.json")
        doc["tolerance"] = {"rel_eps": 1e-9}
        pf = parse(_write(tmp_path, doc))
        assert pf.tolerance == Tolerance(rel_eps=1e-9)
        assert pf.tolerance.abs_eps == Tolerance().abs_eps


SECTIONS = ["matrices", "vectors", "subspaces", "relations", "weights", "problem"]


class TestTopLevelSections:
    """Each named section must be an object; before, a list, number, string
    or null in the first five ended in an AttributeError traceback."""

    @pytest.mark.parametrize("section", SECTIONS)
    @pytest.mark.parametrize("value", [[], 5, "S", None])
    def test_section_must_be_an_object(self, tmp_path, capsys, section, value):
        doc = _fixture("lss-solve.json")
        doc[section] = value
        code, payload = _run(["lss-solve", str(_write(tmp_path, doc))])
        assert code == 1 and payload == b""
        assert capsys.readouterr().err == f"error: {section}: expected an object\n"

    def test_batch_lists_the_file_and_goes_on(self, tmp_path, capsys):
        good = (DATA / "lss-solve.json").read_text()
        bad = _fixture("lss-solve.json")
        bad["matrices"] = []
        (tmp_path / "a.json").write_text(good)
        (tmp_path / "b.json").write_text(json.dumps(bad))
        (tmp_path / "c.json").write_text(good)
        code, payload = _run(["lss-solve", "--batch", str(tmp_path)])
        assert code == 1
        assert payload.decode() == "a.json: ok\nb.json: error\nc.json: ok\n"
        assert "error: b.json: matrices: expected an object" in capsys.readouterr().err
        assert (tmp_path / "c.report.json").read_text() == (tmp_path / "a.report.json").read_text()
        assert not (tmp_path / "b.report.json").exists()
