"""Set-up probe: run in a fresh interpreter, it times importing relcalc and
one warm-up round of a workload, and prints the times as one JSON line.

    python3 perfbench/probe.py --workload desk-mix --seed 1 --workdir DIR --src src

Only the imports and the warm-up operations themselves are timed; building
the warm-up inputs is not.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--src", required=True)
    args = parser.parse_args()

    t0 = time.perf_counter()
    import numpy as np

    t1 = time.perf_counter()
    sys.path.insert(0, args.src)
    import relcalc
    import relcalc.cli  # noqa: F401

    t2 = time.perf_counter()
    from workloads import WARMUP_STREAM, build_warmup

    warm = build_warmup(args.workload, relcalc, np.random.default_rng([args.seed, WARMUP_STREAM]), Path(args.workdir))
    warm_s = 0.0
    for op in warm.ops:
        start = time.perf_counter()
        op.run()
        warm_s += time.perf_counter() - start
    print(json.dumps({
        "setup_s": (t2 - START) + warm_s,
        "numpy_ms": (t1 - t0) * 1e3,
        "relcalc_ms": (t2 - t1) * 1e3,
    }))


if __name__ == "__main__":
    main()
