"""Host-speed calibration.

Shared sandbox hosts change speed by up to ~1.7x within minutes (a fixed
op flips between two levels as neighbours load the machine), which no
amount of samples inside one run averages out.  A fixed calibration
kernel, mixing the interpreter work (heap and dict operations) and the
many small NumPy calls the library makes, slows down by nearly the same
factor: on a 2-CPU host, medians of 8-op blocks varied 17-21% in raw
op time and 3.3-4.0% in op/calibration ratio.  (Large-array NumPy work
tracked the ops worse.)

So every op and set-up time is also reported normalized: its wall time
times ``NOMINAL_S / calibration time`` measured next to it — the time it
would have taken on a host where the kernel takes ``NOMINAL_S``.  Raw
times stay in the run record.
"""

from __future__ import annotations

import heapq
import random
import time

import numpy as np

#: Calibration time that defines the reference host speed (the fast
#: level of the 2-CPU sandbox host the bounds were set on).
NOMINAL_S = 0.020

_VALUES = [random.Random(0).random() for _ in range(20_000)]
_SMALL = np.random.default_rng(0).random(64)


def calibrate() -> float:
    """Seconds one pass of the fixed calibration kernel takes now."""
    t0 = time.perf_counter()
    heap: list[tuple[float, int]] = []
    for x in _VALUES:
        heapq.heappush(heap, (x, 1))
    while heap:
        heapq.heappop(heap)
    sums: dict[int, float] = {}
    for i, x in enumerate(_VALUES):
        key = i % 997
        sums[key] = sums.get(key, 0.0) + x
    for _ in range(1500):
        (_SMALL * 2.0).sum()
        np.searchsorted(_SMALL, 0.5)
    return time.perf_counter() - t0


def factor(before: float, after: float) -> float:
    """Normalization factor for an interval bracketed by two
    calibrations."""
    return NOMINAL_S / ((before + after) / 2.0)
