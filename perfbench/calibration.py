"""Machine-speed calibration for the benchmark's timings.

The effective speed of a small shared machine switches between states that
differ by up to 60 per cent and last one to a few seconds, and each state
slows numpy kernels, the interpreter and the package alike.  So a short
piece of fixed reference work, ``calibrate()``, runs TICK_CALIBRATIONS
times in a row (a tick) between operations, whenever TICK_EVERY_S of timed
work has gone by, and each operation's time is scaled by REFERENCE_S over
the median of the calibrations of the ticks just before and just after it.
Times are thus reported in reference seconds: seconds at the speed at which
the reference work takes REFERENCE_S.  The reference work mixes what the
package spends its time on, large-array numpy transcendentals and
Python-level loops over small arrays, and calls nothing in the package.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

# Seconds the reference work takes on a 2-CPU x86-64 container with Python
# 3.11 and numpy 2.4; a fixed scale that never changes between runs.
REFERENCE_S = 0.0032

# Timed work between two ticks, at most (plus one operation); far shorter
# than a machine state lasts.
TICK_EVERY_S = 0.05
TICK_CALIBRATIONS = 3

_GRID = np.arange(100_000) * (2.0 * math.pi / 100_000)
_WEIGHTS = np.linspace(0.5, 1.5, 10)


def calibrate() -> float:
    """Run the fixed reference work once; returns its wall time in seconds."""
    start = perf_counter()
    values = 0.3 * np.cos(_GRID) + 0.7 * np.sin(_GRID)
    int(np.argmin(values))
    total = 0.0
    for i in range(40):
        theta = _WEIGHTS * (i * 0.01)
        total += math.hypot(float(np.sum(_WEIGHTS * np.cos(theta))),
                            float(np.sum(_WEIGHTS * np.sin(theta))))
    return perf_counter() - start


def tick() -> list[float]:
    return [calibrate() for _ in range(TICK_CALIBRATIONS)]


def scaled_times(times, tick_before, ticks) -> list[float]:
    """Scale each time by REFERENCE_S over the median calibration of the
    ticks on either side of it; ``tick_before[i]`` is the index of the tick
    taken last before operation i, and another one follows it."""
    return [t * REFERENCE_S / statistics.median(ticks[k] + ticks[k + 1])
            for t, k in zip(times, tick_before)]
