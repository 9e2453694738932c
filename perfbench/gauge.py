"""The host's speed, sampled while the benchmark runs, to cancel its swings.

On the shared 2-core VM this benchmark was built on, one and the same
pass takes anywhere between its fastest time and twice that, depending
on load outside the VM.  The guest cannot see that load: CPU time equals
wall time and steal time stays near zero.  The swings last from under a
second to several minutes, longer than a run, so a median over one run
cannot cancel them.

A :class:`SpeedGauge` runs a fixed reference loop, which shares no code
with cutgame, from a ``SIGALRM`` handler every ``INTERVAL`` seconds while
it is active.  Each sample gives a speed, ``REFERENCE_S`` over the time
the loop took.  The reference-speed duration of an interval is its wall
time, minus the time spent in the handler, times the mean speed of the
samples taken inside it.  An interval with no sample inside takes the
mean of the samples just before and just after it.  Speeds are sampled
evenly in time, so their mean is the average speed over the interval.

``REFERENCE_S`` is the loop's time on that VM when it is unloaded, so
reference-speed seconds read close to wall seconds there.
"""

from __future__ import annotations

import itertools
import signal
import statistics
import time
from bisect import bisect_left
from dataclasses import dataclass

INTERVAL = 0.05
REFERENCE_S = 0.0011
_LOOP_ROUNDS = 400


@dataclass(frozen=True)
class _Cell:
    labels: tuple
    tag: int


def reference_loop() -> int:
    """Fixed pure-Python work with cutgame's instruction mix: small
    tuples, sorting, frozen dataclasses, dict and frozenset lookups."""
    acc = 0
    seen: dict = {}
    for i in range(_LOOP_ROUNDS):
        t = tuple(sorted((i % 7, i % 5, i % 3, i % 11)))
        cell = _Cell(t, i & 7)
        seen[cell] = seen.get(cell, 0) + 1
        acc += len(frozenset(t)) + (hash(cell) & 1)
        for a, _ in itertools.combinations(t, 2):
            acc += a
    return acc


class SpeedGauge:
    """Samples the host's speed from a timer signal while active."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.costs: list[float] = []
        self.speeds: list[float] = []

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        reference_loop()
        cost = time.perf_counter() - start
        self.starts.append(start)
        self.costs.append(cost)
        self.speeds.append(REFERENCE_S / cost)

    def __enter__(self) -> "SpeedGauge":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()  # so that every interval has a sample before it
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, end: float) -> float:
        """Reference-speed duration of the interval ``[start, end]``,
        which must begin after the gauge was entered."""
        lo = bisect_left(self.starts, start)
        hi = bisect_left(self.starts, end)
        inside = self.speeds[lo:hi] or self.speeds[lo - 1:lo + 1]
        speed = statistics.fmean(inside)
        return (end - start - sum(self.costs[lo:hi])) * speed
