"""The JSON report writer: the bytes of ``json.dumps(sort_keys=True, indent=2)``."""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st  # noqa: E402

from relcalc.cli import emit  # noqa: E402

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
])
def test_irregular_values_match_json_dumps(value):
    report = {"result": value}
    assert emit(report, "json") == _reference(report)


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
