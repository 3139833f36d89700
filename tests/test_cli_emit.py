"""The JSON report writer, the bytes of ``json.dumps(sort_keys=True, indent=2)``,
and the one canonicalization pass that feeds it."""

import json
import struct

import numpy as np
import orjson
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st  # noqa: E402

import relcalc.cli  # noqa: E402
from relcalc import Tolerance  # noqa: E402
from relcalc.cli import _canonical, _canonical_numbers, dispatch, emit, parse  # noqa: E402

from test_cli import DATA, GOLDEN_CASES, run_cli  # noqa: E402


def _reference(report) -> bytes:
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode("utf-8")


numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([0.0, -0.0, 1e-300, 5e-324, 1e308]),
)
scalars = st.one_of(st.none(), st.booleans(), numbers, st.text(max_size=6))
pairs = st.lists(st.tuples(numbers, numbers).map(list), min_size=1, max_size=5)


@st.composite
def nests(draw):
    """A rectangular nest of numbers, as a report's vectors and bases are."""
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    count = 1
    for size in shape:
        count *= size
    flat = iter(draw(st.lists(numbers, min_size=count, max_size=count)))

    def build(axes):
        if not axes:
            return next(flat)
        return [build(axes[1:]) for _ in range(axes[0])]

    return build(shape)


basis_reports = st.fixed_dictionaries({
    "ambient": st.integers(0, 4),
    "dim": st.integers(0, 4),
    "basis": st.one_of(st.just([]), st.lists(pairs, min_size=1, max_size=3)),
})
leaves = st.one_of(
    scalars, st.just([]), st.just({}), basis_reports, pairs, nests(),
    st.lists(numbers, max_size=5), st.lists(scalars, max_size=4),
    st.lists(st.lists(numbers, max_size=3), min_size=1, max_size=3),  # ragged, empty rows
)
reports = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
    ),
    max_leaves=12,
)


@seed(20261018)
@settings(max_examples=200, deadline=None, database=None)
@given(st.dictionaries(st.text(max_size=5), reports, max_size=5))
def test_bytes_match_json_dumps(report):
    assert emit(report, "json") == _reference(report)


@pytest.mark.parametrize("value", [
    [[1, [2]], [3, 4]],        # ragged depth
    [[1, 2], [3]],             # ragged length
    [[1, 2], []],              # an empty row
    [[[1.0, 2.0], [3.0]], [[4.0, 5.0, 6.0], [7.0, 8.0]]],  # ragged with the full count
    [1, "a, b", None],         # a string among numbers
    [(1, 2), [3, 4]],          # a tuple
    {1: "non-string key"},
    # lists orjson writes otherwise or refuses, beside the floats it words
    # differently from repr
    [1.0, float("nan")],
    [float("inf"), 2, 1e-05],
    [[float("-inf"), 1e16], [0.5, 0.25]],
    [True, 1.5, False],
    [None, 1e16],
    [2**64, 1e-05],              # past what orjson writes
    [-(2**63) - 1, 0.5],
    [2**64 - 1, -(2**63)],       # the ends of what orjson writes
    [[1.0, 2.0], ["\u00e9", 1e-07]],
    ["\x00\x1f\u2028", 3.0],
    ["na\u00efve", "\u65e5\u672c", "\ud83d\ude00"],
    ["\ud800", 1.0],            # a lone surrogate, which orjson refuses
    [1e-05, "e", "0.00001"],
    [[1e-05], [float("nan")]],
    ["null", "true", 1.0, "false"],
    [{"a": 1e-05}, [1e16]],
])
def test_irregular_values_match_json_dumps(value):
    report = {"result": value}
    assert emit(report, "json") == _reference(report)


# the floats orjson writes in other words than repr, (0, 1e-4), [1e16, 1e308]
# and the subnormals, with the two zeros beside them
SMALLEST_NORMAL = 2.2250738585072014e-308
other_text_floats = st.one_of(
    st.floats(min_value=0.0, max_value=1e-4, exclude_min=True, exclude_max=True),
    st.floats(min_value=1e16, max_value=1e308),
    st.floats(min_value=5e-324, max_value=SMALLEST_NORMAL, exclude_max=True),
    st.integers(-323, -5).map(lambda e: 10.0**e),
    st.integers(16, 308).map(lambda e: 10.0**e),
    st.sampled_from([0.0, -0.0]),
)
signed = st.tuples(other_text_floats, st.booleans()).map(lambda p: -p[0] if p[1] else p[0])
band_numbers = st.one_of(
    signed, st.floats(min_value=1e-4, max_value=1e16), st.integers(-(2**63), 2**64 - 1),
)
band_lists = st.recursive(
    st.lists(band_numbers, min_size=1, max_size=12),
    lambda children: st.lists(children, min_size=1, max_size=4),
    max_leaves=8,
)


@seed(20261019)
@settings(max_examples=300, deadline=None, database=None)
@given(band_lists, st.integers(0, 3))
def test_band_floats_match_json_dumps(value, depth):
    report = {"result": value}
    for _ in range(depth):
        report = {"nested": report}
    assert emit(report, "json") == _reference(report)


mixed_scalars = st.one_of(
    signed,
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.integers(-(2**70), 2**70),
    st.text(st.characters(codec="utf-8"), max_size=4),
)


@seed(20261020)
@settings(max_examples=300, deadline=None, database=None)
@given(st.recursive(
    st.lists(mixed_scalars, min_size=1, max_size=6),
    lambda children: st.lists(st.one_of(children, mixed_scalars), min_size=1, max_size=4),
    max_leaves=10,
))
def test_mixed_lists_match_json_dumps(value):
    report = {"result": {"value": value}}
    assert emit(report, "json") == _reference(report)


def test_large_report_matches_json_dumps(tmp_path):
    # the write-heavy report of the benchmark: a rank-deficient 48 x 48
    # matrix relation, whose bases hold a few entries below 1e-4
    rng = np.random.default_rng(2400)
    a = ((rng.standard_normal((48, 24)) + 1j * rng.standard_normal((48, 24)))
         @ (rng.standard_normal((24, 48)) + 1j * rng.standard_normal((24, 48))))
    doc = {
        "version": 1, "field": "complex",
        "matrices": {"A": [[[z.real, z.imag] for z in row] for row in a]},
        "relations": {"R": {"matrix": "A"}},
        "problem": {"relation": "R"},
    }
    path = tmp_path / "large.json"
    path.write_text(json.dumps(doc))
    pf = parse(path)
    report = dispatch("relation-analyze", pf, Tolerance(), verify=True)
    reference = _reference(report)
    assert len(reference) > 300_000 and b"e-" in reference
    assert emit(report, "json") == reference


@pytest.mark.parametrize("report", [
    # a float orjson words differently, as the value of a key that holds a
    # marker: --tol 1e-7 echoes the first
    {"abs_eps": 1e-07},
    {"rel_eps": 1e-09},
    {"e": 1e16},
    # number-like text after a space inside a string
    ["x 1e5", 2.0],
    {"k": "a\": 1e-07"},
    "\x7f",                     # ASCII, which json escapes and orjson does not
    # NaN and the infinities, which orjson writes as null, beside a None
    {"a": float("nan"), "b": None, "c": [float("inf"), None, float("-inf")]},
    [None, float("nan"), {"d": float("-inf")}, None],
])
def test_one_call_traps_match_json_dumps(report):
    assert emit(report, "json") == _reference(report)


def test_tol_report_matches_json_dumps():
    code, payload = run_cli(["lss-solve", str(DATA / "lss-solve.json"), "--tol", "1e-7"])
    report = dispatch("lss-solve", parse(DATA / "lss-solve.json"), Tolerance(abs_eps=1e-7))
    assert code == 0 and b'"abs_eps": 1e-07' in payload
    assert payload == _reference(report)


def _canonical_by_leaf(value, eps):
    """The per-leaf walk that ``_canonical`` replaced: one
    ``_canonical_numbers`` call for each float and each array."""
    if isinstance(value, dict):
        return {key: _canonical_by_leaf(item, eps) for key, item in value.items()}
    if isinstance(value, list):
        return [_canonical_by_leaf(item, eps) for item in value]
    if isinstance(value, (float, np.ndarray)):
        return _canonical_numbers(np.asarray(value, dtype=float), eps).tolist()
    return value


def _bits(value):
    """A report value with each float as its eight bytes and every other
    leaf tagged with its type, so that == compares bit for bit."""
    if isinstance(value, dict):
        return ("dict", [(key, _bits(item)) for key, item in value.items()])
    if isinstance(value, list):
        return ("list", [_bits(item) for item in value])
    if type(value) is float:
        return ("float", struct.pack("<d", value))
    return (type(value).__name__, value)


EPSILONS = [0.0, 5e-324, 1e-300, 1e-14, 1e-10, 1e-7, 1e-3, 0.5, 1e10]
INF = float("inf")


@st.composite
def canonical_cases(draw):
    """A nested report and an abs_eps: floats and arrays among other leaves,
    with subnormals, both zeros, NaN, the infinities and the neighbours of
    abs_eps and of the powers of ten."""
    eps = draw(st.sampled_from(EPSILONS))
    power = st.integers(-323, 308).map(lambda k: 10.0**k)
    near = st.one_of(power, st.just(eps)).flatmap(
        lambda x: st.sampled_from([np.nextafter(x, -INF), x, np.nextafter(x, INF)])
    )
    magnitudes = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(min_value=5e-324, max_value=SMALLEST_NORMAL),
        st.sampled_from([0.0, INF, float("nan"), SMALLEST_NORMAL]),
        near.map(float),
    )
    floats = st.tuples(magnitudes, st.booleans()).map(lambda p: -p[0] if p[1] else p[0])
    shapes = st.one_of(
        st.sampled_from([(), (0,), (2, 0), (0, 3, 2)]),
        st.lists(st.integers(1, 3), min_size=1, max_size=4).map(tuple),
    )

    def array(shape):
        size = int(np.prod(shape))
        return st.lists(floats, min_size=size, max_size=size).map(
            lambda xs: np.array(xs, dtype=float).reshape(shape)
        )

    leaves = st.one_of(
        floats, floats.map(np.float64), shapes.flatmap(array),
        st.none(), st.booleans(), st.integers(-5, 5), st.text(max_size=3),
    )
    report = draw(st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.text(max_size=4), children, max_size=4),
        ),
        max_leaves=12,
    ))
    return report, eps


@seed(20261021)
@settings(max_examples=400, deadline=None, database=None)
@given(canonical_cases())
def test_one_canonical_pass_matches_the_leaf_walk(case):
    report, eps = case
    assert _bits(_canonical(report, eps)) == _bits(_canonical_by_leaf(report, eps))


@pytest.mark.parametrize("command,fixture", GOLDEN_CASES + [("lss-solve", "lss-no-solution.json")])
def test_a_report_is_one_canonical_and_one_orjson_call(command, fixture, monkeypatch):
    pf = parse(DATA / fixture)
    calls = []
    for module, name in ((relcalc.cli, "_canonical_numbers"), (orjson, "dumps"), (json, "dumps")):
        original = getattr(module, name)

        def counting(*args, _name=f"{module.__name__}.{name}", _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    out = emit(dispatch(command, pf, pf.tolerance or Tolerance(), verify=True), "json")
    monkeypatch.undo()
    assert calls == ["relcalc.cli._canonical_numbers", "orjson.dumps"]
    assert out == (DATA / fixture.replace(".json", ".golden.json")).read_bytes()


@pytest.mark.parametrize("command,fixture", GOLDEN_CASES)
def test_text_format_is_unchanged(command, fixture):
    """--format text lists each leaf as ``path = value``; lists as compact JSON."""
    code, payload = run_cli([command, str(DATA / fixture), "--verify", "--format", "text"])
    report = json.loads((DATA / fixture.replace(".json", ".golden.json")).read_text())
    lines = []

    def walk(value, prefix):
        if isinstance(value, dict):
            for key in sorted(value):
                walk(value[key], f"{prefix}{key}.")
        elif isinstance(value, list):
            lines.append(f"{prefix[:-1]} = {json.dumps(value)}")
        else:
            lines.append(f"{prefix[:-1]} = {value}")

    walk(report, "")
    assert code in (0, 2) and payload == ("\n".join(lines) + "\n").encode("utf-8")
