"""Machine-speed meter: rescale wall times to a fixed reference speed.

The virtual machines this benchmark runs on change speed by up to 1.7x
from one stretch of seconds or minutes to the next (a fixed stencil loop
ran between 12k and 20k calls per second within one minute, with no CPU
steal), and such a stretch often outlasts a whole run.  No statistic of one
run's repetitions removes that, so the benchmark measures the machine's
speed while the program runs and divides it out.

While a timed call runs, a wall-clock timer interrupts it every
``PERIOD_S`` seconds and runs a burst: a fixed amount of the benchmark's
own numpy work (a 3x3 stencil on 31x31 planes and a dot product, the shape
of the solver's inner loop), which touches no state of the program.  The
program's time between two bursts is scaled by how fast those two bursts
ran against the reference, ``REF_BURST_S`` per burst, and the scaled
pieces add up to the call's time at the reference speed.  Bursts take
about 2% of the wall time and are not counted in either time.  A change to
the program moves the rescaled time as it moves the wall time; a change in
the machine's speed moves both the program and the bursts and cancels.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import numpy as np

PERIOD_S = 0.1         # wall time between bursts
BURST_CALLS = 40       # kernel calls per burst
REF_BURST_S = 2.4e-3   # duration of one burst at the reference speed


class SpeedMeter:
    """Bursts of a fixed kernel, timed, around and during measured calls."""

    def __init__(self):
        rng = np.random.default_rng(20170111)
        self._coeffs = rng.random((3, 3, 31, 31))
        self._plane = rng.random((33, 33))
        self._vec = rng.random(10 * 31 * 31)
        self.marks: list[tuple[float, float]] = []   # (start, end) per burst

    def _kernel(self) -> float:
        c, w = self._coeffs, self._plane
        out = np.zeros((31, 31))
        for k1 in (-1, 0, 1):
            for k2 in (-1, 0, 1):
                out += c[k1 + 1, k2 + 1] * w[1 + k2:32 + k2, 1 + k1:32 + k1]
        return float(np.dot(self._vec, self._vec)) + out[0, 0]

    def burst(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        for _ in range(BURST_CALLS):
            self._kernel()
        self.marks.append((t0, time.perf_counter()))

    @contextmanager
    def sampling(self):
        """Burst before, every PERIOD_S during, and after the body."""
        self.marks = []
        self.burst()
        previous = signal.signal(signal.SIGALRM, self.burst)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.burst()

    def rescale(self, start: float, end: float) -> tuple[float, float]:
        """(time at the reference speed, wall time) of [start, end].

        Both leave out the bursts.  Each gap between two bursts, clipped to
        [start, end], is scaled by REF_BURST_S over the mean duration of the
        two bursts that bound it.
        """
        ref = wall = 0.0
        marks = sorted(self.marks)
        for (a0, a1), (b0, b1) in zip(marks, marks[1:]):
            gap = min(b0, end) - max(a1, start)
            if gap > 0:
                wall += gap
                ref += gap * 2.0 * REF_BURST_S / ((a1 - a0) + (b1 - b0))
        return ref, wall
