"""Readings of the host's speed, and times scaled by them.

The host is shared, and other tenants slow every process on it by half or
more for seconds to minutes at a time, so a wall time says as much about them
as about imd.  A reading is the median time of a fixed interpreter and numpy
kernel (about 1.5 ms a run); readings taken just before and just after a
stretch of work follow most of that slowdown, and dividing the stretch's wall
time by their mean leaves mostly the work's own cost.  The kernel is fixed
benchmark code, so a change to imd cannot move it.

A scaled time is in reference seconds: seconds of a host whose reading is
``REFERENCE_READING_S``.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

# The reading on an undisturbed core of a 2-core Intel Xeon VM (Python 3.11,
# numpy 2.4), so that a reference second is about a second of that host.
REFERENCE_READING_S = 1.6e-3
REPEATS = 16


def _kernel() -> float:
    t0 = perf_counter()
    x = 0.0
    for i in range(20000):
        x += math.sqrt(i) * 1e-3
    a = np.linspace(0.0, 1.0, 20000)
    x += float(np.log1p(np.exp(a)).sum())
    return perf_counter() - t0


def reading() -> float:
    return statistics.median(_kernel() for _ in range(REPEATS))


def scaled(seconds: float, before: float, after: float) -> float:
    """Reference seconds of a stretch of wall time, from the readings taken
    at its two ends."""
    return seconds * REFERENCE_READING_S / (0.5 * (before + after))
