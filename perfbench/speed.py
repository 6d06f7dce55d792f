"""Speed probe: scale measured times to a reference machine speed.

The machine the benchmark was built on changes speed by itself, by up
to 1.8x, in states that last from seconds to minutes; CPU time moves
with wall time, so it is a slower CPU, not stolen time. A median over
one run cannot remove that, so the worker samples the speed while it
works and scales every time it reports (see README.md, "Speed probe"):

  * `probe` is fixed plain-Python work of about 1.7 ms in the
    program's style. It calls nothing in koszulbench, so no change to
    the program moves it. The collector is off while it runs, so it is
    never charged with collecting the program's garbage.
  * The worker probes before every job and after the last one.
    A SIGALRM timer also probes, every SETUP_TICK_S during set-up and
    every LONG_TICK_S during a job once it has run for LONG_JOB_S.
    Shorter jobs are never interrupted.
  * A time measured from t0 to t1 loses the probes that ran inside it
    (`Sampler.spent`) and is multiplied by `Sampler.scale`. With at
    least MIN_INSIDE probes inside, that is the mean of PROBE_REF_S
    over their times, the fastest and slowest tenth dropped: they are
    taken at even steps of wall time, so a job whose speed changed
    halfway gets the average speed. Otherwise it is PROBE_REF_S over
    the median of the NEAR probes before t0 and the NEAR after t1.

The result reads as seconds on a machine that runs the probe in
PROBE_REF_S. That constant only fixes the scale; two commits must be
compared with the same value.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

# Median probe time on the reference box (2 cores, Python 3.11) in its
# middle state; it only fixes the scale.
PROBE_REF_S = 1.7e-3
SETUP_TICK_S = 0.02
LONG_JOB_S = 0.5
LONG_TICK_S = 0.25
MIN_INSIDE = 4
NEAR = 5


def probe():
    """A memo dict of tuple keys grown from scratch, short-lived tuples
    and dicts, int and str work and Fraction sums."""
    memo = {}
    for i in range(2000):
        key = (i & 63, i >> 6, i % 7)
        memo[key] = memo.get((key[0] - 1, key[1], key[2]), 0) + 1
    churn = {}
    for i in range(1200):
        churn[(i, i + 1)] = {i: (i, str(i))}
    acc = sum(len(str(i * i % 97)) for i in range(300))
    total = Fraction(0)
    for k in range(1, 30):
        total += Fraction(1, k)
    return len(memo) + len(churn) + acc + total.denominator % 7


class Sampler:
    """Probe times, kept with their start times in time order."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.starts = []
        self.lengths = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        self.sample()

    def sample(self):
        collecting = gc.isenabled()
        gc.disable()
        start = self.clock()
        probe()
        end = self.clock()
        if collecting:
            gc.enable()
        self.starts.append(start)
        self.lengths.append(end - start)

    def arm(self, first, every):
        """Probe from the timer `first` seconds from now, then every
        `every` seconds until `disarm`."""
        signal.setitimer(signal.ITIMER_REAL, first, every)

    def disarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def spent(self, t0, t1):
        """Time the probes took between t0 and t1."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return sum(self.lengths[lo:hi])

    def scale(self, t0, t1):
        """PROBE_REF_S over the probe time during or around [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        if hi - lo >= MIN_INSIDE:
            inside = sorted(self.lengths[lo:hi])
            cut = len(inside) // 10
            return statistics.fmean(PROBE_REF_S / length
                                    for length in inside[cut:len(inside)
                                                         - cut])
        near = self.lengths[max(0, lo - NEAR):lo] + self.lengths[hi:hi + NEAR]
        return PROBE_REF_S / statistics.median(near)

    def median(self):
        return statistics.median(self.lengths)
