"""Each output check accepts relcalc's result and rejects a perturbed copy.

    python3 -m pytest perfbench/test_checks.py -q
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import relcalc  # noqa: E402
import relcalc.cli  # noqa: E402,F401
from reference import CheckError  # noqa: E402
from workloads import cli_round, desk_round, scale_round  # noqa: E402

SEED = 5


def _nudge(a):
    a = np.array(a, dtype=complex)
    return a + 1e-3 * (1.0 + np.abs(a))


def _basis(b):
    """A basis of a different subspace: drop a vector from a full space, add
    one to the zero space, tilt any other."""
    if b.shape[1] == b.shape[0]:
        return SimpleNamespace(basis=b[:, 1:])
    if b.shape[1] == 0:
        return SimpleNamespace(basis=np.ones((b.shape[0], 1)) / np.sqrt(b.shape[0]))
    return SimpleNamespace(basis=_nudge(b))


def _coset(c):
    return SimpleNamespace(point=c.point + 1e-3, direction=c.direction)


# deliberately wrong copies of each desk-mix result, by operation kind
PERTURB = {
    "compose": lambda res: SimpleNamespace(graph=_basis(res.graph.basis)),
    "adjoint": lambda res: SimpleNamespace(graph=_basis(res.graph.basis)),
    "canonical_blocks.generate": lambda res: SimpleNamespace(graph=_basis(res.graph.basis)),
    "solve": lambda sol: SimpleNamespace(exists=True, min_value=sol.min_value * 1.001 + 1e-3, witness=sol.witness),
    "check_normal": lambda res: (res[0], not res[1]),
    "w1w2_solve": _coset,
    "spline_solve": lambda s: SimpleNamespace(min_value=s.min_value, spline_set=_coset(s.spline_set)),
    "smooth_solve": lambda s: SimpleNamespace(min_value=s.min_value * 1.001 + 1e-3, argmin_set=s.argmin_set),
    "make_pmn+classify": lambda res: (res[0], SimpleNamespace(is_idempotent=True, is_mvproj=False)),
    "build_super": lambda res: SimpleNamespace(relation=res.relation, is_idempotent=not res.is_idempotent),
    "complementability": lambda rep: SimpleNamespace(is_complementable=not rep.is_complementable, domain=rep.domain),
    "shorted": lambda sig: sig + 1e-3 * np.eye(sig.shape[0]),
    "krein_classify": lambda rep: SimpleNamespace(regular=not rep.regular, isotropic=rep.isotropic),
}

# a second perturbation where a result has two independently checked parts
PERTURB_SECOND = {
    "solve": lambda sol: SimpleNamespace(exists=True, min_value=sol.min_value, witness=_nudge(sol.witness)),
    "make_pmn+classify": lambda res: (SimpleNamespace(graph=_basis(res[0].graph.basis)), res[1]),
    "spline_solve": lambda s: SimpleNamespace(min_value=s.min_value * 1.001 + 1e-3, spline_set=s.spline_set),
}


def _desk_ops():
    cases = []
    for r in (5, 6):  # n = 7 and 8; odd and even rounds take different branches
        rnd = desk_round(relcalc, np.random.default_rng([SEED, r]), r)
        for op in rnd.ops:
            cases.append(pytest.param(op, id=f"r{r}-{op.kind}"))
    return cases


@pytest.mark.parametrize("op", _desk_ops())
def test_desk_check_rejects_perturbed(op):
    result = op.run()
    op.check(result)
    for perturb in (PERTURB[op.kind], PERTURB_SECOND.get(op.kind)):
        if perturb is not None:
            with pytest.raises(CheckError):
                op.check(perturb(result))


def test_scale_checks_reject_perturbed():
    rnd = scale_round(relcalc, np.random.default_rng([SEED, 0]), 0, dims=(16,))
    for op in rnd.ops:
        result = op.run()
        op.check(result)
        with pytest.raises(CheckError):
            op.check(PERTURB["solve" if op.kind.startswith("solve") else "spline_solve"](result))


def _perturb_report(payload: bytes) -> bytes:
    """Flip every flag and move every number in the report's result."""

    def walk(value):
        if isinstance(value, bool):
            return not value
        if isinstance(value, float):
            return value * 1.001 + 1e-3
        if isinstance(value, list):
            return [walk(v) for v in value]
        if isinstance(value, dict):
            return {k: walk(v) for k, v in value.items()}
        return value

    report = json.loads(payload)
    report["result"] = walk(report["result"])
    return json.dumps(report).encode()


@pytest.fixture(scope="module")
def cli_rnd(tmp_path_factory):
    return cli_round(relcalc, np.random.default_rng([SEED, 6]), 6, tmp_path_factory.mktemp("cli"))


def test_cli_checks_reject_perturbed(cli_rnd):
    for op in cli_rnd.ops:
        if op.fault:
            continue
        result = op.run()
        code, payload = result
        op.check(result)
        with pytest.raises(CheckError):
            op.check((code + 1, payload))
        if op.kind != "cli:batch":
            with pytest.raises(CheckError):
                op.check((code, _perturb_report(payload)))


def test_cli_no_solution_check_reads_the_report(cli_rnd):
    (op,) = [op for op in cli_rnd.ops if op.kind == "cli:no-solution"]
    code, payload = op.run()
    report = json.loads(payload)
    report["status"] = "ok"
    with pytest.raises(CheckError):
        op.check((code, json.dumps(report).encode()))


def test_cli_batch_check_reads_each_report(cli_rnd):
    (op,) = [op for op in cli_rnd.ops if op.kind == "cli:batch"]
    result = op.run()
    op.check(result)
    report = sorted(cli_rnd.state["batch_dir"].glob("*.report.json"))[0]
    report.write_bytes(_perturb_report(report.read_bytes()))
    with pytest.raises(CheckError):
        op.check(result)


def test_nonfinite_slice_fails_while_the_fault_stands(cli_rnd):
    """Exit code 1 is expected; today the parser lets NaN and Infinity
    through.  When this test fails, the fault is fixed."""
    faults = [op for op in cli_rnd.ops if op.fault]
    assert len(faults) == 3
    for op in faults:
        with pytest.raises(CheckError):
            op.check(op.run())
