"""Machine-speed probe that rescales wall times to a fixed nominal speed.

The shared 2-core machine this benchmark was built on changes speed by
up to 1.8x within a minute, for reasons outside the process:
back-to-back runs of the same seed on octagon-solve read 2.39, 3.00 and
3.27 instances/s.  A fixed
pure-Python kernel (exact min-plus relaxation over ``Fraction``s, the
same kind of work as quadcsp's closure but none of its code) is timed
between instances, and each instance's wall time is multiplied by
``NOMINAL_S / kernel time``: the time the instance would have taken on a
machine where the kernel takes ``NOMINAL_S``.  Rescaled so, the same
three runs read 3.04, 3.01 and 2.91 instances/s.
"""

from __future__ import annotations

import statistics
from collections import deque
from fractions import Fraction
from time import perf_counter

#: Kernel time that defines the nominal machine speed.
NOMINAL_S = 0.02

#: Seconds of loop time between two kernel timings (about 4 % of the
#: loop); the speed drifts over seconds, and the scale uses the median of
#: the last three timings.
INTERVAL_S = 0.5

_SIZE = 20


def kernel_seconds() -> float:
    """Wall time of one fixed min-plus relaxation over Fractions."""
    cells = [
        [Fraction((i * 7 + j) % 13, 1 + (i + j) % 3) for j in range(_SIZE)]
        for i in range(_SIZE)
    ]
    start = perf_counter()
    for k in range(_SIZE):
        row_k = cells[k]
        for i in range(_SIZE):
            row_i = cells[i]
            via = row_i[k]
            for j in range(_SIZE):
                value = via + row_k[j]
                if value < row_i[j]:
                    row_i[j] = value
    return perf_counter() - start


class SpeedProbe:
    """Keeps a current scale factor, re-timing the kernel at most every
    ``INTERVAL_S``."""

    def __init__(self):
        self._recent: deque[float] = deque(maxlen=3)
        self._last = float("-inf")

    def scale(self) -> float:
        """NOMINAL_S over the median of the last three kernel times."""
        if not self._recent:
            self._recent.extend(kernel_seconds() for _ in range(3))
            self._last = perf_counter()
        elif perf_counter() - self._last >= INTERVAL_S:
            self._recent.append(kernel_seconds())
            self._last = perf_counter()
        return NOMINAL_S / statistics.median(self._recent)
