"""Host-speed calibration for wall times measured on a shared machine.

The benchmark often runs on hosts whose speed drifts by tens of percent
within seconds (frequency scaling, busy neighbours on shared cores).
While a workload is measured, a ``SIGALRM`` timer therefore interrupts
the main thread every :data:`PERIOD` seconds to time a short, fixed,
pure-Python DAG walk.  A sample's wall time, less the walks that ran
inside it, is scaled by ``REFERENCE_S / walk`` where ``walk`` is the
mean walk time over the sample (and the one walk on either side).  A
reported time thus reads as wall seconds on a host whose walk takes
``REFERENCE_S``.  Sampling inside the request tracks speed changes that
walks at request boundaries miss.

The walk is the benchmark's own code and never touches ``repro``, so a
change to the program cannot move it: a faster program lowers the
reported times exactly as it lowers the raw ones.  The handler runs
between bytecodes and touches no program state.  Times bounded by a
wall-clock deadline rather than by work (the portfolio race) are
reported unscaled and not sampled.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Tuple

#: Walk time of the reference host (2-vCPU x86-64, CPython 3.11).
REFERENCE_S = 0.0019
#: Seconds between walks while sampling (~1 % of the time is walking).
PERIOD = 0.2

_TASKS, _MACHINES, _PASSES = 100, 20, 50


def _instance() -> Tuple[List[List[int]], List[List[float]], List[List[float]]]:
    rng = random.Random(2001)
    preds = [sorted(rng.sample(range(t), min(t, rng.randint(0, 4)))) for t in range(_TASKS)]
    exec_t = [[rng.uniform(5.0, 50.0) for _ in range(_TASKS)] for _ in range(_MACHINES)]
    comm = [[rng.uniform(1.0, 20.0) for _ in range(_MACHINES)] for _ in range(_MACHINES)]
    return preds, exec_t, comm


_PREDS, _EXEC, _COMM = _instance()


def walk() -> float:
    """List-schedule the fixed DAG a few times; returns the last makespan."""
    span = 0.0
    for rep in range(_PASSES):
        machine = [(t * 7 + rep) % _MACHINES for t in range(_TASKS)]
        avail = [0.0] * _MACHINES
        finish = [0.0] * _TASKS
        for t in range(_TASKS):
            m = machine[t]
            ready = avail[m]
            for p in _PREDS[t]:
                arrival = finish[p] + _COMM[machine[p]][m]
                if arrival > ready:
                    ready = arrival
            finish[t] = avail[m] = ready + _EXEC[m][t]
        span = max(finish)
    return span


class Calibrator:
    """Walk times with their start times, and the scaling they imply."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.durations: List[float] = []
        #: called with (start, duration) after each walk (traced runs)
        self.on_walk: Optional[Callable[[float, float], None]] = None

    def measure(self, *_signal_args) -> float:
        t0 = time.perf_counter()
        walk()
        duration = time.perf_counter() - t0
        self.starts.append(t0)
        self.durations.append(duration)
        if self.on_walk is not None:
            self.on_walk(t0, duration)
        return duration

    @contextmanager
    def sampling(self) -> Iterator["Calibrator"]:
        """Walk every :data:`PERIOD` seconds for the ``with`` body."""
        self.measure()
        previous = signal.signal(signal.SIGALRM, self.measure)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.measure()

    def _window(self, start: float, wall: float) -> Tuple[int, int]:
        lo = bisect_left(self.starts, start)
        hi = bisect_right(self.starts, start + wall)
        return lo, hi

    def net(self, start: float, wall: float) -> float:
        """*wall* less the walks that ran inside it."""
        lo, hi = self._window(start, wall)
        return wall - sum(self.durations[lo:hi])

    def scale(self, start: float, wall: float) -> float:
        """The sample ``[start, start + wall]`` in reference-host seconds."""
        lo, hi = self._window(start, wall)
        around = self.durations[max(lo - 1, 0):hi + 1]
        return self.net(start, wall) * REFERENCE_S / statistics.fmean(around)
