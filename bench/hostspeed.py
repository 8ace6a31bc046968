"""Host-speed normalization of the measured op times.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over seconds to minutes, which would swamp a real change in the program.
After every op the loop times a fixed reference loop that calls no
paradirac code, and each op's wall time is scaled by REFERENCE_S over the
median reference time of the ops around it.  A normalized time is what the
op would take on a host that runs the reference loop in REFERENCE_S: a
change to the program moves it, a change in host speed mostly does not.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Nominal seconds of one reference_loop(); it fixes the unit, not a result.
REFERENCE_S = 2.5e-4
# Ops on either side of an op whose reference times set that op's scale.
WINDOW = 5

_ARRAY = np.arange(64.0)


def reference_loop():
    """Fixed interpreter and small-numpy work, the mix paradirac's ops do."""
    total = 0
    for i in range(3000):
        total += i * i % 7
    for _ in range(30):
        _ARRAY.sum()
        np.sqrt(_ARRAY)
    return total


def reference_seconds(reps):
    """Median seconds of ``reps`` back-to-back reference loops; the median
    drops the first loops after an idle wait, which run slow while the CPU
    wakes up."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def normalized(raw, reference, window=WINDOW):
    """Scale raw[i] by REFERENCE_S / median(reference[i - window : i + window + 1])."""
    return [
        dt * REFERENCE_S / statistics.median(reference[max(0, i - window): i + window + 1])
        for i, dt in enumerate(raw)
    ]
