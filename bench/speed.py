"""Timings corrected for the host's changing speed.

On a shared virtual machine the speed of one vCPU changes by up to 2x from
one second to the next as other tenants come and go; process CPU time
moves with it, so it is no steadier than wall time.  Two passes of the
same job list then differ by far more than a regression bound allows.

SpeedProbe times a short fixed kernel every PERIOD_S seconds from a
SIGALRM handler while the jobs run.  The kernel is plain Python float and
list-index arithmetic, the kind of work the package's hot loops do, so its
duration tracks how fast the program itself is running at that moment.
`corrected` turns an interval of program time into seconds at the
reference speed: each stretch between two samples counts as its length
times REF_S over the kernel time of the sample that opens it (the nearest
sample, for the first stretch).  The kernel's own time is left out.

The probe adds under 1% to the wall time and touches none of the
program's state, so it changes no result.
"""

import bisect
import signal
import time

PERIOD_S = 0.005

# kernel duration on the reference machine (see README.md) when its host
# is quiet, about the 5th percentile of the warm kernel's duration over
# half a minute there: corrected seconds are seconds at that speed
REF_S = 12e-6


def _kernel():
    """A fixed slice of Jacobi-like sweeps over a 3x3 list of floats."""
    a = [[1.0, 0.5, 0.25], [0.5, 2.0, 0.125], [0.25, 0.125, 3.0]]
    s = 0.0
    for _ in range(8):
        for p in range(3):
            for q in range(p + 1, 3):
                t = (a[q][q] - a[p][p]) / (2.0 * a[p][q] + 1.0)
                s += abs(t) + (t * t + 1.0) ** 0.5
    return s


class SpeedProbe:
    """Context manager that samples the kernel's duration while it is open."""

    def __init__(self):
        self.starts = []
        self.durations = []

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _sample(self, signum, frame):
        _kernel()  # untimed: time the kernel with its code and data in cache
        start = time.perf_counter()
        _kernel()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)

    def corrected(self, a, b):
        """Seconds at the reference speed for the program time in [a, b]."""
        if not self.starts:
            return b - a
        if self.starts[-1] < a:  # the usual case for a short span
            return (b - a) * REF_S / self.durations[-1]
        i = bisect.bisect_left(self.starts, a)
        j = bisect.bisect_left(self.starts, b)
        k = self.durations[i - 1] if i > 0 else self.durations[
            min(i, len(self.durations) - 1)]
        total, t = 0.0, a
        for start, duration in zip(self.starts[i:j], self.durations[i:j]):
            total += (start - t) * REF_S / k
            t, k = start + duration, duration
        return total + (b - t) * REF_S / k
