"""Host speed, sampled while a timed run's commands execute.

On a shared host the CPU time of the same work drifts: another tenant on
the sibling hyperthread slows every instruction of ours.  The share of time
it does so changes over seconds to minutes, so the same command can cost
up to 1.9x more in one run than in the next.  Longer runs cannot average that out.

`Sampler` interrupts the running program every INTERVAL_S of wall time
(SIGALRM) and times a short, fixed probe on the thread's CPU clock.  (The
process clock would also count numpy's helper threads, which spin while
numpy is imported.)  The
probe is the benchmark's own code, not the package's: it squares a small
sparse polynomial held as a dict of exponent tuples, the kind of work the
program does most.  The mean time of the probes taken while a command
ran measures how fast the host was for that command.  `run.py` scales each
command's time by REFERENCE_S / that mean, so it reads as CPU seconds on a
host where the probe takes REFERENCE_S, whatever the host's load was.  The
probe's own CPU time is subtracted from the command it interrupted.  Set-up
is sampled the same way while `worker.py` imports the package.

ITIMER_REAL, not ITIMER_PROF: arming a process CPU-time timer makes Linux
read the process CPU clock at tick resolution, which would coarsen every
time the benchmark takes.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
from time import perf_counter, thread_time

INTERVAL_S = 0.05
# Probe CPU time that the scaled times refer to.
REFERENCE_S = 0.0005
# A command shorter than this many probe intervals is judged by the probes
# on either side of it as well.
MIN_SAMPLES = 20

_rng = random.Random(1)
_TERMS = {tuple(_rng.randrange(4) for _ in range(6)): _rng.randrange(1, 9) for _ in range(20)}


def probe():
    """Square a 20-term polynomial in 6 variables: 400 term products."""
    out = {}
    for ka, va in _TERMS.items():
        for kb, vb in _TERMS.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0) + va * vb
    return out


class Sampler:
    """Probe every INTERVAL_S while active (a context manager), and once
    more on exit, so that even a short stretch has a sample.

    `spent` is the CPU time all probes took so far.
    """

    def __init__(self):
        self.times = []  # perf_counter when each probe started
        self.samples = []  # CPU seconds each probe took
        self.spent = 0.0

    def _tick(self, _signum, _frame):
        # Any collection the probe's garbage would start is left to the
        # program, where it would have happened without the probe.
        enabled = gc.isenabled()
        gc.disable()
        self.times.append(perf_counter())
        c0 = thread_time()
        probe()
        dt = thread_time() - c0
        if enabled:
            gc.enable()
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def mean(self):
        return self.spent / len(self.samples)

    def mean_around(self, start, end):
        """Mean probe time from perf_counter `start` to `end`, widened on
        both sides to at least MIN_SAMPLES probes."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        return sum(self.samples[lo:hi]) / (hi - lo)
