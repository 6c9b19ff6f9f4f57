"""Times measured against a reference computation that runs alongside them.

On a shared virtual machine (2 vCPUs, other tenants on the same host) the
speed of plain CPU-bound code drifts by up to a factor of two, from one
second to the next and over minutes: the same benchmark iteration took 2.2 s
in one half-minute and 3.3 s in the next, and the two vCPUs drift
independently of each other.  That drift moves every raw time by more than
any bound a benchmark could set.

So while a piece of work is timed, a SIGALRM timer runs a short reference
computation every INTERVAL_S, in the same process and on the same vCPU, and
times it.  The reference does the three kinds of work tradeflow's hot paths
do (interpreter arithmetic, numpy calls on small arrays, dict and string
building) and calls no tradeflow code, so a change to tradeflow cannot change
it.  The work's time, less the time spent in the reference, is reported
rescaled by ``NOMINAL_S / mean reference time``: the time the work would
take on a machine where the reference takes NOMINAL_S.  Python runs the
handler between bytecodes, so during one long C call the samples wait for
its end; the reference also runs once before and once after the work.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

INTERVAL_S = 0.05
NOMINAL_S = 0.001  # about the reference's time on a quiet 2-vCPU Xeon virtual machine

_SMALL = [np.random.default_rng(0).random(64) for _ in range(16)]


def _reference():
    x = 0
    for k in range(8000):
        x += k * k
    s = 0.0
    for a in _SMALL:
        s += float(np.sum(a * a))
    d = {}
    for k in range(2000):
        d[str(k)] = k
    return x, s, len(d)


@dataclass
class Timing:
    wall_s: float = 0.0  # raw wall time of the work, reference runs excluded
    ref_s: list = field(default_factory=list)  # duration of each reference run

    @property
    def adjusted_s(self) -> float:
        return self.wall_s * NOMINAL_S / statistics.fmean(self.ref_s)


@contextlib.contextmanager
def timed():
    """Time the ``with`` block against the reference; the Timing is filled at exit."""
    timing = Timing()

    def sample(*_):
        t0 = time.perf_counter()
        _reference()
        timing.ref_s.append(time.perf_counter() - t0)

    sample()
    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    t0 = time.perf_counter()
    try:
        yield timing
    finally:
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        timing.wall_s = t1 - t0 - sum(timing.ref_s[1:])
        sample()
