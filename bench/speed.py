"""Timing in reference seconds.

The cores of a shared host change speed by up to 2x from one second to
the next, each core on its own, as other tenants load them; the floor
itself drifts over minutes.  Wall times taken seconds apart therefore
differ by more than most changes to the program would.  The benchmark
times each call into the program on its own, divides its wall time by
the time of a fixed reference kernel run on the same core right before
and right after it, and multiplies by REFERENCE_S.  A timing is thus
given in reference seconds: the time the work takes on a core on which
the reference kernel takes REFERENCE_S.  That is close to wall time on
an unloaded core of the development host (an Intel Xeon, 2 vCPUs),
where the kernel took about 2 ms.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 2e-3
REFERENCE_ITERATIONS = 1000
REFERENCE_MATRIX = np.array([[0.1, 0.2], [0.3, 0.4]])


def reference_kernel():
    """Seconds taken by a fixed mix of interpreter and small-array NumPy
    work, the kind of work the program's inner loops do."""
    a = REFERENCE_MATRIX
    start = perf_counter()
    x = np.array([1.0, 0.5])
    acc = 0.0
    for i in range(REFERENCE_ITERATIONS):
        x = a @ x + 0.5 * x
        acc += float(x[0]) * 1e-3 + (i % 7)
    return perf_counter() - start


def reference_s():
    """Median of three reference-kernel times."""
    return statistics.median(reference_kernel() for _ in range(3))


class Clock:
    """Times the calls of one round.

    `call` runs a function and adds its wall time to `wall_s` and its
    time in reference seconds to `run_s`.  The reference kernel runs
    before the first call and after each call, outside the timed
    intervals; each call is scaled by the mean of the two around it.
    """

    def __init__(self):
        self.wall_s = 0.0
        self.run_s = 0.0
        self._ref = reference_s()

    def call(self, fn, *args, **kwargs):
        """fn(*args, **kwargs), and its time in reference seconds."""
        start = perf_counter()
        out = fn(*args, **kwargs)
        wall = perf_counter() - start
        ref = reference_s()
        scaled = REFERENCE_S * wall / (0.5 * (self._ref + ref))
        self._ref = ref
        self.wall_s += wall
        self.run_s += scaled
        return out, scaled
