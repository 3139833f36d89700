"""Machine-speed calibration for timings on a shared machine.

The reference machine (2 vCPUs shared with other tenants) runs the same code
up to 2x slower for stretches of seconds to minutes, with no steal time, so
neither wall time nor process CPU time is steady from run to run.  A fixed
plain-numpy kernel (small complex SVDs with their Python dispatch, plus one
96 x 96 SVD, about the mix relcalc spends its time in) is timed between
operations, and each operation time is scaled by REFERENCE_KERNEL_MS over the
kernel time around it.  On a machine of steady speed this multiplies every
time by one constant; relcalc is never called by the kernel, so a change to
relcalc moves the scaled times as it moves the raw ones.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's time on the reference machine in a quiet period, in ms
REFERENCE_KERNEL_MS = 3.6


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = [rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)) for _ in range(40)]
        self._big = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))

    def kernel_s(self) -> float:
        """Time one run of the kernel, in seconds."""
        start = time.perf_counter()
        for a in self._small:
            _, s, _ = np.linalg.svd(a)
            int(np.count_nonzero(s > 1e-10))
        np.linalg.svd(self._big)
        return time.perf_counter() - start

    @staticmethod
    def scale(kernel_s: float) -> float:
        """Factor that turns a time measured at this kernel time into one at the reference speed."""
        return REFERENCE_KERNEL_MS * 1e-3 / kernel_s
