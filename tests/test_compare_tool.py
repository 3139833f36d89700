"""tools/compare.py reads two CLI reports by what they say: a report that
moves only in a float is a gap, one whose dims, flags, status or keys move
is a structure move."""

import copy
import importlib.util
import json
import math
from pathlib import Path

import pytest

from test_cli import DATA

_SPEC = importlib.util.spec_from_file_location("compare", Path(__file__).parents[1] / "tools" / "compare.py")
compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare)

GOLDEN = json.loads((DATA / "proj-represent.golden.json").read_text())


def _cell(old: dict, new: dict) -> dict:
    key = ("cli.report:proj-represent", "Tolerance(0, 0)")
    encoded = [("bytes", json.dumps(report, indent=2).encode()) for report in (old, new)]
    return compare.compare({key: [encoded[0]]}, {key: [encoded[1]]})["operations"][key[0]][key[1]]


def _edited(edit) -> dict:
    report = copy.deepcopy(GOLDEN)
    edit(report)
    return report


def test_a_report_that_moves_only_in_oracle_delta_is_a_gap():
    cell = _cell(GOLDEN, _edited(lambda r: r["diagnostics"].update(oracle_delta=2.3e-14)))
    assert (cell["moved"], cell["moved_structure"], cell["max_gap"]) == (1, 0, 2.3e-14)


def test_a_basis_rotated_within_its_span_is_no_gap():
    # the span of e2 read from -e2: the bytes move, the subspace does not
    def flip(report):
        report["result"]["x_block"]["dom"]["basis"] = [[[-0.0, -0.0], [-1.0, -0.0]]]

    cell = _cell(GOLDEN, _edited(flip))
    assert (cell["moved"], cell["moved_structure"], cell["max_gap"]) == (1, 0, 0.0)


def _drop_ran(report):
    report["result"]["x_block"]["ran"].update(dim=0, basis=[])


def _drop_flag(report):
    report["result"]["regenerates"] = False


def _drop_status(report):
    report["status"] = "no-solution"


def _drop_key(report):
    del report["diagnostics"]["oracle_delta"]


@pytest.mark.parametrize("edit", [_drop_ran, _drop_flag, _drop_status, _drop_key])
def test_a_report_whose_structure_moves_is_a_structure_move(edit):
    cell = _cell(GOLDEN, _edited(edit))
    assert (cell["moved"], cell["moved_structure"], cell["max_gap"]) == (1, 1, 0.0)


def test_cosets_read_as_cosets():
    # a point moved along the coset's own direction is no move of the
    # coset; emptied, the coset moves in structure
    line = {"empty": False, "point": [[1.0, 0.0], [0.0, 0.0]],
            "direction": {"ambient": 2, "dim": 1, "basis": [[[0.0, 0.0], [1.0, 0.0]]]}}
    moved = dict(line, point=[[1.0, 0.0], [3.0, 0.0]])
    assert compare._report_gap(line, moved) == 0.0
    assert compare._report_gap(line, {"empty": True}) == math.inf
