"""Interpreter speed probe for timing on a shared machine.

On a shared machine the speed of the same single-threaded work drifts by
up to 40% within minutes and drops by up to 2x in bursts lasting seconds.
While timed work runs inside `with SpeedProbe():`, a SIGALRM handler times
`probe_work()` at a fixed wall-clock period.  The samples are uniform in
time, so the mean of `REFERENCE_S / sample` is the share of the reference
speed at which the work ran; a raw time multiplied by it is in
reference-speed seconds.  The handler's own time is kept in `spent`, so
callers can leave it out of their timings.  `probe_work()` does not use
nilrig, so no change to nilrig can move the speed.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

# Seconds `probe_work()` takes at the reference interpreter speed.
REFERENCE_S = 0.001


def probe_work() -> None:
    """A fixed exact elimination of a 6x6 integer matrix in pure Python."""
    n = 6
    m = [[Fraction((i * 7 + j * 13) % 11 - 5 + 3 * (i == j)) for j in range(n)]
         for i in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]


class SpeedProbe:
    """Samples interpreter speed every `interval` seconds of wall time
    while inside its `with` block; reusable across blocks."""

    def __init__(self, interval: float):
        self.interval = interval
        self.ratios: list[float] = []
        self.spent = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        probe_work()
        dt = perf_counter() - t0
        self.ratios.append(REFERENCE_S / dt)
        self.spent += dt

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self) -> float:
        """Mean share of reference speed over the samples so far."""
        if not self.ratios:  # every block was shorter than one period
            self._sample()
        return statistics.fmean(self.ratios)
