"""Machine-speed probe: every reported time is scaled to a reference speed.

The machines this benchmark runs on share their cores, and the same fixed
piece of Python code runs 20-60% slower for seconds at a time (CPU time
too, not only wall time). Unscaled, two runs of one seed differ by 25%.
So the runner times a small fixed computation of the benchmark's own,
the reference reducer on a fixed 300-letter word (never library code),
before and after each query at least every PROBE_EVERY seconds and around
every slow query. A query's time is multiplied by REFERENCE_S over the
mean of the probes just before and just after it: the time it would take
on a machine where the probe takes REFERENCE_S. On the 2-vCPU machine
where the baseline was recorded the probe's median was about 110 us, so
scaled times read within about 10% of its wall times.
"""

from __future__ import annotations

import bisect
import time

import fixtures
import reference as ref

REFERENCE_S = 100e-6
PROBE_EVERY = 0.1


class SpeedProbe:
    every = PROBE_EVERY

    def __init__(self):
        self.adj = fixtures.adjacency("rand8")
        self.word = fixtures.random_word(fixtures.rng_for("probe"), range(8), 300)
        self.times = []
        self.values = []

    def sample(self):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            ref.reduce_word(self.adj, self.word)
            best = min(best, time.perf_counter() - t0)
        self.times.append(time.perf_counter())
        self.values.append(best)

    def due(self):
        return not self.times or time.perf_counter() - self.times[-1] >= PROBE_EVERY

    def factor(self, start, end):
        """REFERENCE_S over the mean of the last probe before `start` and
        the first probe after `end`."""
        i = bisect.bisect_right(self.times, start) - 1
        j = bisect.bisect_left(self.times, end)
        near = [self.values[k] for k in (i, j) if 0 <= k < len(self.values)]
        return REFERENCE_S / (sum(near) / len(near))

    def timed(self, fn):
        """(scaled seconds, result) of one call, probed on both sides."""
        self.sample()
        t0 = time.perf_counter()
        result = fn()
        t1 = time.perf_counter()
        self.sample()
        return (t1 - t0) * self.factor(t0, t1), result
