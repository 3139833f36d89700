"""relcalc benchmark: closed-loop workloads against the library and the CLI.

    python3 perfbench/run.py --workload desk-mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1               # every workload, each in its own process

One caller in one process runs whole rounds of operations until --seconds
have passed, timing each operation alone; input generation and the output
checks are outside the timed region.  BLAS is pinned to one thread.  With
--trace 0 the run prints the end-to-end metrics; with --trace 1 it also runs
a fixed number of rounds under the outside-in tracer and prints the
per-layer metrics instead.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from calibrate import Calibration  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WARMUP_STREAM, WORKLOADS, build_round, build_warmup, cold_start_file  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"

# set-up probes and cold CLI starts per run, spread evenly over the run so
# that their medians see the same mix of machine load as the operations
SIDE_SAMPLES = 12
# operation time between two runs of the calibration kernel
CALIBRATE_EVERY_S = 0.1
CHILD_TIMEOUT_S = 60
# desk-mix and cli-batch cycle n = 2..8 by round; a run ends on a whole
# cycle so that every run has the same mix of sizes in each size class
CYCLE_ROUNDS = {"desk-mix": 7, "scale-solve": 1, "cli-batch": 7}
# the traced pass replays rounds 1..K of the untraced one; round 0 is left
# out because it is the first to touch the largest inputs
TRACE_ROUNDS = {"desk-mix": 14, "scale-solve": 1, "cli-batch": 3}
MAX_ERRORS_SHOWN = 5


class BenchError(RuntimeError):
    """The benchmark could not run (missing sources, a probe that failed)."""


def _fail(message: str) -> int:
    print(f"perfbench: error: {message}", file=sys.stderr)
    return 2


def _import_relcalc():
    if not (SRC / "relcalc" / "__init__.py").is_file():
        raise BenchError(f"no relcalc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import relcalc
    import relcalc.cli  # noqa: F401

    if Path(relcalc.__file__).resolve().parent != (SRC / "relcalc").resolve():
        raise BenchError(f"imported relcalc from {relcalc.__file__}, not from {SRC}")
    return relcalc


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("RELCALC_TOL", None)
    return env


class SideSamples:
    """Set-up probes (fresh interpreter: import relcalc, one warm-up round)
    and cold CLI starts (fresh interpreter: the CLI entry point on one small
    file), taken between rounds at evenly spaced times of the run and scaled
    to the reference speed like the operations."""

    def __init__(self, workload: str, seed: int, workdir: Path, cold_file: Path, seconds: float,
                 cal: Calibration):
        self.workload, self.seed, self.workdir, self.cal = workload, seed, workdir, cal
        self.cold_argv = [sys.executable, "-c", "from relcalc.cli import entrypoint; entrypoint()",
                          "lss-solve", str(cold_file), "--verify"]
        self.spacing = seconds / SIDE_SAMPLES
        self.probes: list[dict] = []  # as the probe printed them, unscaled
        self.setup: list[float] = []  # scaled set-up times
        self.cold: list[float] = []  # scaled cold-start times

    def between_rounds(self, elapsed: float):
        while len(self.probes) < SIDE_SAMPLES and elapsed >= len(self.probes) * self.spacing:
            self._take()

    def finish(self):
        while len(self.probes) < SIDE_SAMPLES:
            self._take()

    def _take(self):
        pdir = self.workdir / f"probe{len(self.probes)}"
        pdir.mkdir()
        kernel_before = self.cal.kernel_s()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), "--workload", self.workload, "--seed", str(self.seed),
             "--workdir", str(pdir), "--src", str(SRC)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=_child_env(), cwd=str(ROOT),
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        self.probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))

        start = time.perf_counter()
        proc = subprocess.run(self.cold_argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, env=_child_env(), cwd=str(ROOT))
        cold_s = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"cold CLI run exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
        factor = Calibration.scale((kernel_before + self.cal.kernel_s()) / 2)
        self.setup.append(self.probes[-1]["setup_s"] * factor)
        self.cold.append(cold_s * factor)


class Tally:
    """Outcome of the operations one pass ran."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: list[str] = []
        self.times: list[float] = []  # every operation, in order
        self.by_class: dict[tuple, list[float]] = {}  # (family, size) -> times
        self.round_s: list[float] = []  # summed operation time per round
        self.ref_pairs: list[tuple[float, float]] = []  # (operation, plain reference)

    def note(self, message: str):
        if len(self.errors) < MAX_ERRORS_SHOWN:
            self.errors.append(message)


def run_round(rnd, tally: Tally, cal: Calibration, tracer=None, time_reference=False):
    """Run one round's operations, then check them.  Operation times are
    scaled to the reference speed by the mean of the calibration kernel
    timed before and after the stretch of operations they belong to."""
    results = []
    clock = time.perf_counter
    kernel_before = cal.kernel_s()
    stretch: list[int] = []  # indices of operations since that kernel
    stretch_s = 0.0
    scaled = [0.0] * len(rnd.ops)

    def close_stretch():
        nonlocal kernel_before, stretch, stretch_s
        kernel_after = cal.kernel_s()
        factor = Calibration.scale((kernel_before + kernel_after) / 2)
        for i in stretch:
            scaled[i] = results[i][3] * factor
        kernel_before, stretch, stretch_s = kernel_after, [], 0.0

    for op in rnd.ops:
        if tracer is not None:
            tracer.begin_op()
        start = clock()
        try:
            result, error = op.run(), None
        except Exception as exc:  # an operation that raises counts as failed
            result, error = None, exc
        elapsed = clock() - start
        if tracer is not None:
            tracer.end_op()
        stretch.append(len(results))
        results.append((op, result, error, elapsed))
        stretch_s += elapsed
        if stretch_s >= CALIBRATE_EVERY_S:
            close_stretch()
    if stretch:
        close_stretch()

    for (op, _, _, _), t in zip(results, scaled):
        tally.attempted += 1
        tally.times.append(t)
        if op.family is not None and op.size is not None:
            tally.by_class.setdefault((op.family, op.size), []).append(t)
    tally.round_s.append(sum(scaled))

    for op, result, error, elapsed in results:
        if error is not None:
            tally.failed += 1
            tally.note(f"{op.kind}: raised {type(error).__name__}: {error}")
            continue
        try:
            op.check(result)
        except Exception as exc:
            if op.fault:
                tally.failed += 1
            else:
                tally.wrong += 1
                tally.note(f"{op.kind}: {exc}")
            continue
        if time_reference and op.reference is not None:
            start = clock()
            op.reference()
            tally.ref_pairs.append((elapsed, clock() - start))


def _pass(workload, rc, cal, seed, workdir, rounds, seconds=0.0, tracer=None, time_reference=False,
          side=None, first=0, cycle=1):
    """Run rounds first, first + 1, ... until at least `rounds` ran,
    `seconds` passed and the number run is a multiple of `cycle`."""
    tally = Tally()
    start = time.perf_counter()
    r = first
    while r < first + rounds or time.perf_counter() - start < seconds or (r - first) % cycle:
        if side is not None:
            side.between_rounds(time.perf_counter() - start)
        rdir = workdir / f"r{r}"
        rnd = build_round(workload, rc, np.random.default_rng([seed, r]), r, rdir)
        gc.collect()
        run_round(rnd, tally, cal, tracer, time_reference)
        shutil.rmtree(rdir, ignore_errors=True)
        r += 1
    return tally


def _median_ms(values):
    return statistics.median(values) * 1e3


def end_to_end(tally: Tally, setup, cold) -> dict:
    q = statistics.quantiles(tally.times, n=10)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(tally.times) / sum(tally.times), "ops/s"),
        # the upper median: scale-solve's rounds split evenly into a faster
        # and a slower half, and the mean of the two middle values would
        # fall in the gap between n = 32 and n = 64
        "op_p50_ms": (statistics.median_high(tally.times) * 1e3, "ms"),
        "op_p90_ms": (q[8] * 1e3, "ms"),
    }
    for family in ("solve", "spline"):
        for size in ("small", "large"):
            metrics[f"{family}_{size}_ms"] = (_median_ms(tally.by_class[(family, size)]), "ms")
    metrics["cold_start_ms"] = (_median_ms(cold), "ms")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def per_layer(tracer, traced: Tally, untraced: Tally, probes, k_rounds: int) -> dict:
    metrics = tracer.layer_metrics(traced.attempted)
    pairs = untraced.ref_pairs
    ratio = sum(p[0] for p in pairs) / sum(p[1] for p in pairs) if pairs else 0.0
    metrics["lss.solve.ref_ratio"] = (ratio, "ratio")
    # same rounds, same operations: traced ops/s over untraced ops/s
    metrics["trace.overhead_ratio"] = (sum(untraced.round_s[1:k_rounds + 1]) / sum(traced.round_s), "ratio")
    metrics["import.numpy_ms"] = (statistics.median(p["numpy_ms"] for p in probes), "ms")
    metrics["import.relcalc_ms"] = (statistics.median(p["relcalc_ms"] for p in probes), "ms")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORKDIR))
    try:
        rc = _import_relcalc()
        cal = Calibration()
        cold_file = cold_start_file(np.random.default_rng([seed, WARMUP_STREAM + 1]), workdir)
        side = SideSamples(workload, seed, workdir, cold_file, seconds, cal)

        warm_dir = workdir / "warmup"
        warm_dir.mkdir()
        warm = Tally()
        run_round(build_warmup(workload, rc, np.random.default_rng([seed, WARMUP_STREAM]), warm_dir), warm, cal)

        k_rounds = TRACE_ROUNDS[workload]
        cycle = CYCLE_ROUNDS[workload]
        min_rounds = max(cycle, k_rounds + 1 if trace else 0)
        tally = _pass(workload, rc, cal, seed, workdir, min_rounds, seconds, time_reference=trace, side=side,
                      cycle=cycle)
        side.finish()
        wrong = warm.wrong + warm.failed + tally.wrong
        errors = warm.errors + tally.errors
        attempted, failed = tally.attempted, tally.failed

        if trace:
            tracer = Tracer()
            tracer.install(rc)
            try:
                traced = _pass(workload, rc, cal, seed, workdir, k_rounds, tracer=tracer, first=1)
            finally:
                tracer.uninstall()
            wrong += traced.wrong
            errors += traced.errors
            attempted += traced.attempted
            failed += traced.failed
            metrics = per_layer(tracer, traced, tally, side.probes, k_rounds)
        else:
            metrics = end_to_end(tally, side.setup, side.cold)
        return {
            "correct": wrong == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            "errors": errors,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()  # only when no other run is using it
        except OSError:
            pass


def _print_result(workload: str, seed: int, result: dict):
    print(f"workload {workload} seed {seed}: attempted {result['attempted']} failed {result['failed']}"
          f" correct {str(result['correct']).lower()}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for message in result.get("errors", []):
        print(f"  check: {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    if args.workload == "all":
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=900,
            )
            sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return _fail(f"workload {workload} exited {proc.returncode}")
            result = json.loads(proc.stdout.splitlines()[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = metric
        print(json.dumps(combined))
        return 0

    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        return _fail(str(exc))
    _print_result(args.workload, args.seed, result)
    result.pop("errors")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
