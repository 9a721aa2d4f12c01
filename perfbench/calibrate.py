"""Machine-speed calibration kernel.

On a shared machine, other tenants slow every process down by tens of
percent for minutes at a time. The benchmark times this fixed kernel
before and after each job, and divides the job's times by the kernel's
slowdown against CAL_REF_S. What is left is paclab's own cost at the
machine's reference speed, so runs minutes apart stay comparable.

The kernel does not use paclab, so a change to paclab cannot move it. It
mixes what paclab's hot paths do: exact Fraction arithmetic, dict and
tuple churn, and numpy temporaries of the size of the Scheffe deviation
table (220 x 298 int64), which are mapped and unmapped on every use.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

# Kernel seconds on the reference machine (2 vCPU x86-64 VM at 2.1 GHz,
# Python 3.11, numpy 2.4) when quiet; the fastest times seen were 0.41 s.
CAL_REF_S = 0.4


def kernel() -> float:
    """Run the fixed kernel once; returns its wall seconds."""
    table = np.arange(220 * 298, dtype=np.int64).reshape(220, 298)
    start = time.perf_counter()
    acc = Fraction(0)
    counts: dict = {}
    for i in range(1, 8000):
        acc += Fraction(i % 13 + 1, i % 7 + 2)
        key = (i % 101, i % 7)
        counts[key] = counts.get(key, 0) + 1
        if i % 8 == 0:
            col = np.arange(298, dtype=np.int64) * (i % 5)
            int(np.abs(table * 3 - col).max(axis=1).argmin())
    return time.perf_counter() - start
