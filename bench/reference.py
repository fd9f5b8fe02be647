"""A fixed pure-Python loop that gauges how fast the machine runs Python right now.

On a shared machine the speed of one core drifts with the load of other
tenants.  Where this benchmark was built (2 vCPUs of a shared VM), the
median time of one fixed ``run_checks`` call moved between 160 and 270 ms
from one 5-second window to the next, so raw wall-clock figures of two
30-second runs of the same code differed by up to 40%.  This loop, timed
next to each family-sweep pass for 90 s, moved in step with the pass
(correlation 0.83).

The benchmark therefore times a burst of these loops between ops and scales
each op's wall time by ``NOMINAL_S`` over the median of the loop times in
the bursts right before and right after it: the op's time in a unit of
"one loop, taken as ``NOMINAL_S`` seconds".  The
loop does not touch ``osr``, so a change to the program moves the scaled
figures in the same proportion as the raw ones; raw figures are printed next to
the scaled ones.
"""

from __future__ import annotations

import statistics
import time

NOMINAL_S = 0.0045  # what one loop counts for; about its time on the machine above
LOOP_SIZE = 10_000
BURST = 3  # loops per burst: the median of six shrugs off one interrupted loop


def loop() -> int:
    """Dict, tuple and integer work, like the interpreter work ``osr`` does."""
    table: dict = {}
    for i in range(LOOP_SIZE):
        key = (i * 7919) % 1009, i & 7
        table[key] = table.get(key, 0) + i
    return sum(a * v for (a, b), v in table.items() if b == 3)


def loop_time() -> float:
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0


def burst() -> list[float]:
    """``BURST`` loop timings, back to back."""
    return [loop_time() for _ in range(BURST)]


def scale(before: list[float], after: list[float]) -> float:
    """The factor for a wall time taken between the bursts ``before`` and ``after``."""
    return NOMINAL_S / statistics.median(before + after)
