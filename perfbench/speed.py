"""Host-speed normalisation of measured times.

On a shared host, other tenants slow this process by up to 2x, in bursts
from a fraction of a second to tens of seconds, in wall and CPU time
alike.  A timer signal interrupts the process every ``INTERVAL`` seconds
and times a fixed, tiny exact-arithmetic kernel in the handler.  A time
span is then converted to seconds at the reference speed: each stretch
of the span between two samples is scaled by ``REFERENCE_S / kernel
time`` of the sample that closes it (smoothed over its neighbours).  The
kernel's own time is excluded from every span.

``REFERENCE_S`` is the kernel's time on an idle core of the host the
baseline was recorded on (Intel Xeon, 2-vCPU VM, Python 3.11.7), so on
that host a normalised second is a second without interference.  Slow
spells can outlast a whole run, so the reference is a constant rather
than the fastest sample of the run.

Sampled in the same thread at fine grain, the kernel tracks the slowdown
of ``sphq`` code closely: on that host, corpus runs that took 15.7 to
17.6 s measured 12.8 to 13.3 s normalised.
"""

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.02
SMOOTHING = 2
REFERENCE_S = 4.5e-4


def _kernel():
    s = Fraction(0)
    for i in range(1, 250):
        s += Fraction(1, i % 13 + 1)
    return s


class SpeedSampler:
    """Samples host speed from a SIGALRM handler while it is running."""

    def __init__(self):
        self.ends = []          # time.monotonic() at the end of each sample
        self.costs = []         # kernel seconds of each sample
        self.speed = []         # smoothed kernel seconds, set by stop()
        self._previous = None

    def _sample(self, signum, frame):
        start = time.monotonic()
        _kernel()
        end = time.monotonic()
        self.ends.append(end)
        self.costs.append(end - start)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.smooth()

    def smooth(self):
        """Each kernel time replaced by the median of it and its
        ``SMOOTHING`` neighbours on each side: single samples jitter by
        several percent, the host's slow spells last longer."""
        c = self.costs
        k = SMOOTHING
        self.speed = [statistics.median(c[max(0, i - k):i + k + 1])
                      for i in range(len(c))]

    def slowdown(self):
        """Median kernel time of the pass over ``REFERENCE_S``."""
        return statistics.median(self.speed) / REFERENCE_S

    def seconds(self, start, end):
        """(normalised seconds, raw seconds) of the ``time.monotonic()``
        span [start, end], both without the time spent in the kernel."""
        ends, costs, speed = self.ends, self.costs, self.speed
        i = bisect.bisect_right(ends, start)
        norm = raw = 0.0
        prev = start
        while i < len(ends) and ends[i] <= end:
            work = max(0.0, ends[i] - costs[i] - prev)
            norm += work * REFERENCE_S / speed[i]
            raw += work
            prev = ends[i]
            i += 1
        cost = speed[i] if i < len(speed) else REFERENCE_S
        norm += (end - prev) * REFERENCE_S / cost
        raw += end - prev
        return norm, raw
