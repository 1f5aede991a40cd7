"""Host speed calibration for the benchmark's time metrics.

On a shared host the CPU's speed drifts, here by up to a third over a
few minutes, and CPU time drifts with wall time, so longer runs do not
average it out. ``kernel()`` times a fixed piece of work that does not
touch the program under test: interpreter-bound dict and sort work plus
small numpy matrix-vector products, the two kinds of work the CLI does.
The benchmark runs it right before and right after each CLI invocation
and reports times in reference-host seconds:

    reported = measured * REFERENCE_S / (mean of the two kernel times)

Because the kernel does not depend on the program, a change to the
program moves the reported times as much as the measured ones.
"""

from __future__ import annotations

import time

import numpy as np

#: Median time of one ``kernel()`` call on the reference host (2-core
#: Intel Xeon VM, Python 3.11.7, numpy 2.4.6, one OpenBLAS thread).
REFERENCE_S = 0.035

_MATRIX = np.random.default_rng(0).random((300, 300))
_ONES = np.ones(300)


def kernel() -> float:
    """Seconds taken by one fixed piece of interpreter and numpy work."""
    t0 = time.monotonic()
    counts: dict[int, int] = {}
    for i in range(120_000):
        counts[i % 997] = counts.get(i % 997, 0) + 3 * i
    sorted(range(40_000), key=lambda v: -v)
    y = _ONES
    for _ in range(600):
        y = _MATRIX @ y
        y = y / y.sum()
        float(np.max(y) - np.min(y))
    return time.monotonic() - t0
