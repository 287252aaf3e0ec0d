"""A clock that discounts the host's changing speed.

On a host whose cores are shared, the same Python code runs at speeds that
differ by up to 2x, in spells that last from a fraction of a second to
minutes, and CPU time moves with wall time.  A wall-clock figure then says
more about the neighbours than about the program, and no quantile taken
within one run helps when the whole run falls in a slow spell.

``SpeedClock`` runs a probe from a ``SIGALRM`` handler every ``PERIOD``
seconds.  The probe is a fixed backtracking search (counting the solutions
of the 7-queens puzzle with bitmasks), the same kind of work as the
program's searches: recursion, data-dependent branches, integer bit
operations.  The clock takes the mean duration of the last ``WINDOW``
probes as the host's current speed (the mean, because the program feels
short bursts of contention as well as long spells).  Between probes it
advances at 1 / that mean, so it counts work in probe units and stands still
while a probe runs.  ``seconds()`` turns units into seconds on a host where
the probe takes ``PROBE_REF_S``, a constant near the probe's time on a quiet
host, so figures are comparable between runs and commits on one machine and
their scale is nominal.  The probe never touches the program: a change that
makes the program do more or less work moves the figures as it would move
wall time on a quiet host.

The handler runs in the main thread between bytecodes; no thread or process
is started.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from collections import deque

_clock = time.perf_counter

PERIOD = 0.05  # seconds between probes
WINDOW = 20  # probes whose mean duration sets the clock's rate
PROBE_QUEENS = 7
PROBE_REF_S = 0.2e-3  # nominal mean probe time on a quiet host, seconds


def _queens(n: int, row: int, cols: int, d1: int, d2: int) -> int:
    if row == n:
        return 1
    total = 0
    free = ~(cols | d1 | d2) & ((1 << n) - 1)
    while free:
        bit = free & -free
        free ^= bit
        total += _queens(n, row + 1, cols | bit, (d1 | bit) << 1, (d2 | bit) >> 1)
    return total


class SpeedClock:
    """Probe-unit clock; use as ``with SpeedClock() as clock: ... clock.now()``."""

    def __init__(self):
        self.durations: list[float] = []
        self._recent: deque[float] = deque(maxlen=WINDOW)
        self._state = (0.0, 0.0, 0.0)  # (units at last probe end, its end, units per second)
        self._old_handler = None

    def __enter__(self) -> SpeedClock:
        self._old_handler = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def _probe(self, *_) -> None:
        collecting = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not the probe's work
        t0 = _clock()
        units, end, rate = self._state
        if rate:
            units += (t0 - end) * rate
        _queens(PROBE_QUEENS, 0, 0, 0, 0)
        t1 = _clock()
        if collecting:
            gc.enable()
        self.durations.append(t1 - t0)
        self._recent.append(t1 - t0)
        self._state = (units, t1, 1.0 / statistics.fmean(self._recent))

    def now(self) -> float:
        """Work done since the clock started, in probe units."""
        while True:
            state = self._state
            t = _clock()
            if state is self._state:  # no probe ran between the two reads
                units, end, rate = state
                return units + (t - end) * rate

    @staticmethod
    def seconds(units: float) -> float:
        """``units`` of work in seconds on a host where the probe takes PROBE_REF_S."""
        return units * PROBE_REF_S
