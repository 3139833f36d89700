"""Problem-file parsing: the two decoders, whole-array reads, the per-entry
walk, strict scalar fields."""

import io
import json

import numpy as np
import orjson
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


def _stdlib_only(monkeypatch):
    """Parse with orjson refusing every file: the stdlib decoder reads all.
    Returns the list that gains one entry per refusal."""
    refused = []

    def refuse(text):
        refused.append(1)
        raise orjson.JSONDecodeError("refused", text, 0)

    monkeypatch.setattr(orjson, "loads", refuse)
    return refused


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _outcome(path):
    """The parsed problem file, or the message of the error it raises (named,
    for an error ``main`` reports that is not a ProblemFormatError)."""
    try:
        return parse(path)
    except ProblemFormatError as exc:
        return str(exc)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


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


def _scalars(pf):
    """Everything a parsed file holds besides its arrays, as text, so that
    1 and 1.0 differ."""
    specs = [
        (name, [(key, value) for key, value in spec.items()
                if key != "span" and not isinstance(value, np.ndarray)])
        for section in (pf.subspaces, pf.relations, pf.weights)
        for name, spec in section.items()
    ]
    return repr((pf.version, pf.field_kind, pf.tolerance, pf.rho, pf.problem, specs))


def _same_outcome(a, b):
    """Two outcomes of ``_outcome``: the same message, or bit-identical arrays
    and the same scalars."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return _same_problem(a, b) and _scalars(a) == _scalars(b)


def _both_routes(path, monkeypatch):
    """The outcome of parsing ``path`` by orjson, then by the stdlib decoder."""
    fast = _outcome(path)
    refused = _stdlib_only(monkeypatch)
    slow = _outcome(path)
    assert refused == [1]
    return fast, slow


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
        """A regression to per-entry parsing shows as calls to _complex_entry,
        and one to the stdlib decoder as calls to json.loads."""
        rng = np.random.default_rng(64)
        pairs = lambda *shape: rng.standard_normal(shape + (2,)).tolist()
        doc = {
            "version": 1,
            "matrices": {"A": pairs(64, 64)},
            "vectors": {"b": pairs(64)},
            "subspaces": {"S": {"ambient": 64, "span": pairs(5, 64)}},
            "relations": {"G": {"dim_in": 64, "dim_out": 64, "graph_span": pairs(8, 128)}},
        }
        path = _write(tmp_path, doc)
        calls = []
        walk, loads = cli._complex_entry, json.loads
        monkeypatch.setattr(cli, "_complex_entry", lambda *args: calls.append("walk") or walk(*args))
        monkeypatch.setattr(json, "loads", lambda *args, **kw: calls.append("json") or loads(*args, **kw))
        pf = parse(path)
        assert calls == []
        assert pf.matrices["A"].shape == (64, 64) and len(pf.relations["G"]["span"]) == 8
        assert len(pf.subspaces["S"]["span"]) == 5


# a well-formed file touching every numeric and scalar field; "@" marks the
# slots the edge cases below fill with raw JSON text
EDGE_BASE = {
    "version": 1,
    "tolerance": {"abs_eps": "@tolerance.abs_eps", "rel_eps": "@tolerance.rel_eps"},
    "rho": "@rho",
    "matrices": {"A": [[[1, 0], ["@matrices", 0]], [[0, 0], [1, 0]]]},
    "vectors": {"b": [[1, 0], [2, "@vectors"]]},
    "subspaces": {"S": {"ambient": "@ambient", "span": [[[1, 0], ["@subspaces", 0], [0, 0]]]}},
    "relations": {
        "G": {"dim_in": "@dim_in", "dim_out": 1, "graph_span": [[[1, 0], [0, 0], ["@graph_span", 0]]]},
        "M": {"matrix": [[["@inline", 1]]]},
    },
    "weights": {"W": {"matrix": [[[1, 0], [0, 0]], [[0, 0], ["@weights", 0]]], "kind": "psd"}},
    "problem": {"relation": "G", "weight": "W", "b": "b"},
}
# what each slot holds when it is not the one under test
EDGE_DEFAULTS = {"tolerance.abs_eps": "1e-9", "tolerance.rel_eps": "1e-12", "rho": "0.5",
                 "ambient": "3", "dim_in": "2", "matrices": "2", "vectors": "-1",
                 "subspaces": "3", "graph_span": "4", "inline": "5", "weights": "6"}
NUMERIC_SLOTS = ["tolerance.abs_eps", "tolerance.rel_eps", "rho", "matrices", "vectors",
                 "subspaces", "graph_span", "inline", "weights"]


def _edge_text(slot=None, token=None):
    text = json.dumps(EDGE_BASE)
    for name, default in EDGE_DEFAULTS.items():
        text = text.replace(f'"@{name}"', token if name == slot else default)
    return text


EDGE_TEXTS = {
    **{f"{token}-in-{slot}": _edge_text(slot, token)
       for slot in NUMERIC_SLOTS
       for token in ("NaN", "Infinity", "-Infinity", "1e400", "-1e400",
                     str(2**53 + 1), str(2**63 - 1), str(2**64 - 1), str(2**64),
                     str(-(2**63) - 1), str(10**300 + 1), "-0.0", "5e-324")},
    **{f"{value}-in-{slot}": _edge_text(slot, str(value))
       for slot in ("ambient", "dim_in")
       for value in (0, 2**53 + 1, 2**63 - 1, 2**64 - 1)},
    "well-formed": _edge_text(),
    "lone-surrogate-name": _edge_text().replace('"relation": "G"', '"relation": "\\ud800"'),
    "lone-surrogate-entry": _edge_text("vectors", '"\\udfff"'),
    "bom": "\ufeff" + _edge_text(),
    "trailing-comma-object": _edge_text()[:-1] + ", }",
    "trailing-comma-array": _edge_text("vectors", "0], [1, 0,"),
    "leading-zero": _edge_text("vectors", "01"),
    "control-character": _edge_text().replace('"psd"', '"p\tsd"'),
    "duplicate-keys": '{"version": 1, "vectors": {"b": [[1, 0]], "b": [[2, 0]]}, "rho": 1, '
                      '"vectors": {"c": [[3, 0]], "b": [[4, 0]]}, "rho": 2.5}',
    "empty": "",
    "top-level-list": "[1, 2]",
    "truncated": _edge_text()[:100],
}


class TestDecoderParity:
    """orjson decodes every file; what strict JSON refuses goes to the stdlib
    decoder.  Forcing that second route on every file must change nothing."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_documents(self, tmp_path, monkeypatch, seed):
        path = _write(tmp_path, _random_document(np.random.default_rng(14000 + seed)))
        fast, slow = _both_routes(path, monkeypatch)
        assert not isinstance(fast, str) and _same_outcome(fast, slow)

    @pytest.mark.parametrize("name", sorted(
        path.name for path in DATA.glob("*.json") if not path.name.endswith(".golden.json")
    ))
    def test_fixtures(self, tmp_path, monkeypatch, name):
        fast, slow = _both_routes(DATA / name, monkeypatch)
        assert _same_outcome(fast, slow)

    @pytest.mark.parametrize("case", sorted(EDGE_TEXTS))
    def test_edge_cases(self, tmp_path, monkeypatch, case):
        fast, slow = _both_routes(_write(tmp_path, EDGE_TEXTS[case]), monkeypatch)
        assert _same_outcome(fast, slow), (fast, slow)

    def test_edge_cases_reach_both_decoders_and_both_outcomes(self, tmp_path):
        """The edge list holds files each decoder reads, files that parse and
        files refused with each kind of message, so the parity above is not
        vacuous."""
        strict = []
        for text in EDGE_TEXTS.values():
            try:
                orjson.loads(text)
                strict.append(True)
            except orjson.JSONDecodeError:
                strict.append(False)
        assert 0 < sum(strict) < len(strict)
        outcomes = [_outcome(_write(tmp_path, text)) for text in EDGE_TEXTS.values()]
        messages = " ".join(o for o in outcomes if isinstance(o, str))
        assert sum(not isinstance(o, str) for o in outcomes) > len(NUMERIC_SLOTS)
        for part in ("numbers must be finite, got nan", "got inf", "got -inf", "parse error at line 1",
                     "Unexpected UTF-8 BOM", "top level must be an object"):
            assert part in messages, part

    def test_duplicate_keys_keep_the_last_value_in_first_place(self, tmp_path):
        pf = parse(_write(tmp_path, EDGE_TEXTS["duplicate-keys"]))
        assert list(pf.vectors) == ["c", "b"] and pf.vectors["b"][0] == 4 and pf.rho == 2.5

    @pytest.mark.parametrize("field, stdlib_message, orjson_message", [
        ("ambient",
         "subspaces.M.ambient: 18446744073709551616 exceeds the size limit 4096",
         "subspaces.M.ambient: expected a nonnegative integer, got 1.8446744073709552e+19"),
        ("version",
         "problem.json: unsupported version 18446744073709551616",
         "problem.json: unsupported version 1.8446744073709552e+19"),
    ])
    def test_out_of_range_integer_field_is_refused_on_both_routes(
        self, tmp_path, monkeypatch, capsys, field, stdlib_message, orjson_message
    ):
        """The one divergence: orjson reads an integer outside [-2**63, 2**64)
        as a float, so only the wording of this refusal differs."""
        doc = _fixture("proj-build.json")
        if field == "version":
            doc["version"] = 2**64
        else:
            doc["subspaces"]["M"]["ambient"] = 2**64
        path = str(_write(tmp_path, doc))
        assert _run(["proj-build", path]) == (1, b"")
        assert capsys.readouterr().err == f"error: {orjson_message}\n"
        _stdlib_only(monkeypatch)
        assert _run(["proj-build", path]) == (1, b"")
        assert capsys.readouterr().err == f"error: {stdlib_message}\n"


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
    # a relation's subspace references were first read by the handler, whose
    # error named the problem field that led to the relation
    "identity-on-list": (_with("relations", "R", {"identity_on": ["S"]}),
                         "relations.R.identity_on: expected a subspace name"),
    "zero-on-number": (_with("relations", "R", {"zero_on": 3}), "relations.R.zero_on: expected a subspace name"),
    "product-of-entry": (_with("relations", "R", {"product_of": ["S", 3]}),
                         "relations.R.product_of[1]: expected a subspace name"),
    "product-of-null": (_with("relations", "R", {"product_of": [None, "S"]}),
                        "relations.R.product_of[0]: expected a subspace name"),
    "product-of-length": (_with("relations", "R", {"product_of": ["S", "S", "S"]}),
                          "relations.R: product_of needs two subspace names"),
    # a misspelt field was ignored, and the run went on at the default
    "tolerance-field": (_with("tolerance", "abs_epsilon", 1e-3), "tolerance: unknown field 'abs_epsilon'"),
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

    @pytest.mark.parametrize("field", ["abs_eps", "rel_eps"])
    def test_negative_tolerance_names_its_field(self, tmp_path, field):
        # Tolerance's unlocated ValueError came through
        doc = _fixture("lss-solve.json")
        doc["tolerance"] = {field: -1}
        with pytest.raises(ProblemFormatError, match=f"^tolerance.{field} must be finite and nonnegative"):
            parse(_write(tmp_path, doc))

    @pytest.mark.parametrize("value", ["0.5", True, {"value": 0.5}])
    def test_rho(self, tmp_path, capsys, value):
        doc = _fixture("smooth.json")
        doc["rho"] = value
        code, payload = _run(["smooth", str(_write(tmp_path, doc))])
        assert code == 1 and payload == b""
        assert "rho: expected a number" in capsys.readouterr().err

    @pytest.mark.parametrize("value, shown", [(True, "True"), (1.0, "1.0")])
    def test_version_must_be_the_integer_1(self, tmp_path, capsys, value, shown):
        # both compare equal to 1, and were accepted as pf.version
        doc = _fixture("proj-build.json")
        doc["version"] = value
        path = str(_write(tmp_path, doc))
        assert _run(["proj-build", path]) == (1, b"")
        assert capsys.readouterr().err == f"error: problem.json: unsupported version {shown}\n"

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


class TestSizeLimit:
    """A size above ``MAX_DIM`` is refused where it is read; with an empty
    span, ``"ambient": 2**62`` passed ``parse`` and failed inside numpy.
    ``parse`` only: nothing here dispatches a large size."""

    @pytest.mark.parametrize("value", [2**62, cli.MAX_DIM + 1])
    def test_ambient(self, tmp_path, value):
        doc = _fixture("proj-build.json")
        doc["subspaces"]["M"] = {"ambient": value, "span": []}
        with pytest.raises(ProblemFormatError, match=f"^subspaces.M.ambient: {value} exceeds the size limit"):
            parse(_write(tmp_path, doc))

    @pytest.mark.parametrize("field", ["dim_in", "dim_out"])
    @pytest.mark.parametrize("value", [2**62, cli.MAX_DIM + 1])
    def test_graph_sizes(self, tmp_path, field, value):
        doc = _fixture("relation-analyze.json")
        doc["relations"]["R"].update({field: value, "graph_span": []})
        with pytest.raises(ProblemFormatError, match=f"^relations.R.{field}: {value} exceeds the size limit"):
            parse(_write(tmp_path, doc))

    def test_the_limit_itself_parses(self, tmp_path):
        doc = _fixture("relation-analyze.json")
        doc["subspaces"] = {"M": {"ambient": cli.MAX_DIM, "span": []}}
        doc["relations"]["R"] = {"dim_in": cli.MAX_DIM, "dim_out": cli.MAX_DIM, "graph_span": []}
        pf = parse(_write(tmp_path, doc))
        assert pf.subspaces["M"]["ambient"] == cli.MAX_DIM
        assert pf.relations["R"]["dim_in"] == pf.relations["R"]["dim_out"] == cli.MAX_DIM


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


def test_main_reuses_one_argument_parser(monkeypatch):
    """The parser is built once per process, not on every call of main."""
    def build():
        raise AssertionError("build_parser called")

    monkeypatch.setattr(cli, "build_parser", build)
    code, payload = _run(["lss-solve", str(DATA / "lss-solve.json"), "--verify"])
    assert code == 0 and payload == (DATA / "lss-solve.golden.json").read_bytes()
