"""Operation times scaled to a fixed machine speed.

The two-vCPU machine this benchmark was tuned on changes speed by 20-50%
over seconds to minutes: a fixed loop of permutation compositions took
0.6 ms to 1.2 ms within a minute, with almost no CPU steal, and the same
decompose round took 4.6 s to 6.9 s within three minutes.  No number of
repetitions removes a slow spell that lasts as long as a run.

So every timed operation is scaled by the machine's speed while it ran.
``probe`` times a fixed calibration loop of pure-Python permutation
compositions, the kind of work the program does, and touches no program
code.  ``Meter.measure`` probes right before and right after the
operation and, every ``PERIOD_S`` during it, from a timer signal in the
same thread.  The time the signal's probes take is taken out of the
operation's time.  A reported time is the operation's time on a machine
on which the calibration loop takes ``NOMINAL_S``:

    scaled = (wall - probes inside) * NOMINAL_S * mean(1 / probe time)
"""

from __future__ import annotations

import random
import signal
import statistics
from time import perf_counter

NOMINAL_S = 0.001
PERIOD_S = 0.2

_rng = random.Random(0)
_PERMS = [tuple(_rng.sample(range(64), 64)) for _ in range(16)]


def probe():
    """Run the calibration loop once; returns its (start, end)."""
    start = perf_counter()
    seen = set()
    for a in _PERMS:
        for b in _PERMS:
            seen.add(tuple(a[x] for x in b))
    return start, perf_counter()


def scaled(seconds, samples):
    """``seconds`` of wall time at the speed the (start, end) probe
    ``samples`` show, as seconds at the nominal speed."""
    return seconds * NOMINAL_S * statistics.fmean(1 / (e - s)
                                                  for s, e in samples)


class Meter:
    """Times operations in scaled seconds.  Owns the process's SIGALRM
    handler; the timer runs only inside ``measure``."""

    def __init__(self):
        self._inside = []
        signal.signal(signal.SIGALRM, self._on_timer)

    def _on_timer(self, signum, frame):
        self._inside.append(probe())

    def measure(self, fn, *args):
        """Call ``fn(*args)``; return (its result, scaled seconds).  An
        exception from ``fn`` propagates."""
        samples = [probe()]
        self._inside = []
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = perf_counter()
        try:
            result = fn(*args)
        finally:
            end = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            inside = self._inside
            samples += inside
            samples.append(probe())
        busy = sum(max(0.0, min(e, end) - max(s, start)) for s, e in inside)
        return result, scaled(end - start - busy, samples)
