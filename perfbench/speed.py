"""Reference kernel that measures how fast the machine runs right now.

The machine this benchmark runs on is shared: the same code runs up to 50 %
slower for tens of seconds at a time.  Every job and every set-up is
bracketed by this fixed kernel (small numpy products and ``math.fsum``, like
hypcenter's hot paths, but none of its code), and the end-to-end times are
scaled to the speed at which the kernel takes ``REFERENCE_S``:

    scaled = measured * REFERENCE_S / kernel time around the measurement

A change to hypcenter cannot change the kernel, so scaled times move only
with the program.  The raw times are reported alongside.
"""

from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_S = 2.5e-3
_POINTS = np.random.default_rng(0).normal(size=(64, 3))


def kernel_s() -> float:
    """Time one run of the reference kernel."""
    t0 = time.perf_counter()
    total = 0.0
    for k in range(500):
        total += math.fsum((_POINTS @ _POINTS[k % 64]).tolist())
    return time.perf_counter() - t0


def bracket(budget_s: float) -> float:
    """Mean kernel time over 1 to 20 runs that fit in about ``budget_s``."""
    repeats = min(20, max(1, round(budget_s / REFERENCE_S)))
    return math.fsum(kernel_s() for _ in range(repeats)) / repeats


def scale(measured: float, kernel_times: list[float]) -> float:
    """``measured`` at reference speed, given kernel times taken around it."""
    return measured * REFERENCE_S * len(kernel_times) / math.fsum(kernel_times)
