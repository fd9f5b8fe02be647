"""The benchmark's arithmetic: the tail rule, the failure ratio and self time.

Pure functions over plain numbers, so that the unit tests in ``bench/tests``
can pin them down without running a workload.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

TAIL_SAMPLES_ABOVE = 10


@dataclass(frozen=True)
class Tail:
    """One latency percentile with the evidence behind it."""

    value: float
    percentile: float  # nearest-rank percentile, in percent
    samples: int  # samples the percentile was taken over
    above: int  # samples strictly above ``value``


def tail(values: Sequence[float], above: int = TAIL_SAMPLES_ABOVE) -> Tail:
    """The highest nearest-rank percentile with at least ``above`` samples above it.

    With distinct samples this is the ``above + 1``-th largest value, at
    percentile ``100 * (n - above) / n``.  Ties with larger samples push the
    rank down until enough samples lie strictly above the reported value.
    """
    xs = sorted(values)
    n = len(xs)
    for rank in range(n - above, 0, -1):
        value = xs[rank - 1]
        count = n - bisect_right(xs, value)
        if count >= above:
            return Tail(value, 100.0 * rank / n, n, count)
    raise ValueError(f"no percentile of {n} samples has {above} samples above it")


def failed_ratio(failed: int, attempted: int) -> float:
    """Failed ops over attempted ops; a run that attempted nothing is an error."""
    if attempted < 1:
        raise ValueError("no ops attempted")
    return failed / attempted


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    ``parents[i]`` is the index of span ``i``'s parent, or -1.  Overlapping
    children are merged before their time is taken off, and a child is
    clipped to its parent's interval.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append((starts[i], ends[i]))
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0.0
        reach = s
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, reach), min(ce, e)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append((e - s) - covered)
    return out
