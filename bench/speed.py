"""Machine-speed calibration.

On a shared host the same code runs at speeds up to a factor of two
apart, switching every few seconds as other tenants come and go.  A fixed
kernel of the same kind of work as the workload is timed every
CALIBRATE_EVERY_S through a run, and each item time is scaled by
REF_KERNEL_MS over the median kernel time around the item.  Reported times
are thus milliseconds at the speed where the kernel takes REF_KERNEL_MS.

Small-number and big-number Fraction arithmetic feel the host's speed
changes differently, so there are two kernels: Horner steps at small
rationals, like the query and CLI paths, and at 1024-bit dyadic points,
like root refinement.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

REF_KERNEL_MS = 2.0
CALIBRATE_EVERY_S = 0.1
KERNEL = {"queries": "small", "cli-mix": "small", "refine": "big"}

_COEFFS = tuple(Fraction(k * k - 7, 2 * k + 1) for k in range(12))
_POINTS = {
    "small": tuple(Fraction(2 * i + 1, 64) for i in range(32)),
    "big": tuple(Fraction((1 << 1023) + 12345 * i + 1, 1 << 1024) for i in range(12)),
}
_DEGREE = {"small": 12, "big": 7}


def kernel_ms(kind):
    coeffs = _COEFFS[: _DEGREE[kind]]
    t0 = time.perf_counter()
    for x in _POINTS[kind]:
        v = Fraction(0)
        for c in reversed(coeffs):
            v = v * x + c
    return (time.perf_counter() - t0) * 1e3


def scaled_ms(kernel_at, kernel_ms_list, at, ms):
    """ms measured at time `at`, scaled by the two kernel samples before
    and the two after it."""
    j = bisect.bisect_right(kernel_at, at)
    window = kernel_ms_list[max(0, j - 2) : j + 2]
    return ms * REF_KERNEL_MS / statistics.median(window)
