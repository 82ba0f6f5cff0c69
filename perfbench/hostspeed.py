"""Host speed, from a fixed pure-Python loop timed around each timed sample.

The benchmark host is shared with other machines' work.  Its speed for the
simulation's kind of code changes by up to 1.9x, in phases of one to three
seconds, and sometimes stays low for a whole run.  Process CPU time tracks
wall time throughout and no steal time is reported, so the slowdown cannot
be accounted away.  Each end-to-end sample (an iteration, a set-up probe) is
therefore timed between two reference loops before it and two after it, and
scaled by ``REFERENCE_LOOP_S / mean of those four loops``.  The loops run in
the same phase as the sample, so the ratio cancels the phase's slowdown; the
benchmark then reports the median of the scaled samples.

The loop mimics one incentivized step: it reads a row of a 5000-step mean
schedule of distinct float tuples (about the working set of a workload's
environment), updates two arm objects, takes a UCB index and draws uniforms
and, every fourth step, a beta variate.  It is the benchmark's own code and
never calls the library, so a change to the library cannot move it.
"""

from __future__ import annotations

import math
import random
import statistics
from time import perf_counter

# Fastest time of HostSpeed.reference_loop() seen on a 2-vCPU host with
# Python 3.11.7.  It only fixes the unit: scaled timings read as seconds at
# the speed at which the reference loop takes this long.
REFERENCE_LOOP_S = 4.87e-3


class _Arm:
    __slots__ = ("n", "s")

    def __init__(self):
        self.n = 0
        self.s = 0.0


class HostSpeed:
    """Speed factors from a fixed reference loop."""

    def __init__(self, steps: int = 5000):
        self.rows = tuple((0.5 + 0.3 * math.sin(t / 97.0), 0.5 - 0.3 * math.sin(t / 97.0))
                          for t in range(steps))

    def reference_loop(self) -> float:
        """Seconds taken by one pass of the fixed two-armed loop."""
        rng = random.Random(1)
        arms = (_Arm(), _Arm())
        log, sqrt = math.log, math.sqrt
        start = perf_counter()
        for t, row in enumerate(self.rows, 1):
            if t <= 2:
                a = t - 1
            else:
                lt = log(t)
                a = 0 if (arms[0].s / arms[0].n + sqrt(2 * lt / arms[0].n)
                          >= arms[1].s / arms[1].n + sqrt(2 * lt / arms[1].n)) else 1
            if t % 4 == 0:
                rng.betavariate(1.0 + arms[a].s, 1.0 + arms[a].n - arms[a].s)
            x = 1.0 if rng.random() < row[a] else 0.0
            arms[a].n += 1
            arms[a].s += x
        return perf_counter() - start

    def timed(self, work):
        """Run ``work()`` between reference loops.

        Returns its result and the speed factor: multiply a time taken during
        ``work()`` by it to express that time at reference speed.
        """
        loops = [self.reference_loop(), self.reference_loop()]
        result = work()
        loops += [self.reference_loop(), self.reference_loop()]
        return result, REFERENCE_LOOP_S / statistics.fmean(loops)
