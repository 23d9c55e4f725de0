"""Machine-speed probe interleaved with the measured work.

On a shared host the speed of this process's core drifts by up to 2x over
seconds (other tenants, frequency changes), far more than any bound a
regression check can use. So a timer signal runs a small fixed probe every
``INTERVAL_S`` in the benchmark's own thread, inside long program calls
too. A measured interval is reported as its duration minus the probe time
inside it, scaled by ``NOMINAL_PROBE_S`` over the mean probe time within
``WINDOW_S`` of it: the time the work would take at the probe's nominal
speed. The mean, not the median, follows the average slowdown of an
interval that spans fast and slow phases; it is trimmed by ``TRIM`` at both
ends so that a probe stretched by a context switch does not count. Single calls timed for latency hold the probe off (see
:meth:`SpeedProbe.paused`), so their tails are not the probe's doing.

The probe is benchmark code that mixes small numpy operations with
frozen-dataclass construction, as the program's per-step code does; it does
not call the program, so a program change moves the scaled times in full.
"""

from __future__ import annotations

import contextlib
import math
import signal
from dataclasses import dataclass
from time import perf_counter

import numpy as np

INTERVAL_S = 0.025
WINDOW_S = 0.25
TRIM = 0.2  # share of probe times dropped at each end before averaging
PROBE_STEPS = 100
NOMINAL_PROBE_S = 5.0e-4  # typical probe time on a 2.1 GHz Xeon vCPU of a shared host

_VECTOR = np.array([0.3, 0.7])


@dataclass(frozen=True)
class _Point:
    x: float
    y: float
    w: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.x, self.y, self.w)):
            raise ValueError("non-finite point")


def probe() -> float:
    acc = 0.0
    for i in range(PROBE_STEPS):
        m = np.array([[1.0 + i, 0.5], [0.5, 2.0]])
        v = m @ _VECTOR
        acc += _Point(float(v[0]), float(v[1]), float(m[0, 0])).x
    return acc


class SpeedProbe:
    """Runs :func:`probe` on SIGALRM while active; converts intervals."""

    nominal_s = NOMINAL_PROBE_S

    def __init__(self):
        self._starts: list[float] = []
        self._durations: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        t0 = perf_counter()
        probe()
        self._starts.append(t0)
        self._durations.append(perf_counter() - t0)

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.starts = np.asarray(self._starts)
        self.durations = np.asarray(self._durations)
        self.cumulative = np.concatenate([[0.0], np.cumsum(self.durations)])

    @staticmethod
    @contextlib.contextmanager
    def paused():
        """Hold the probe off while a single short call is timed: a probe
        inside a call evicts its caches and lengthens the latency tail. A
        pending alarm fires as soon as the block ends."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def samples(self) -> int:
        return len(self._starts)

    def scaled(self, interval: tuple[float, float]) -> float:
        """Duration of ``interval`` at nominal speed, probe time removed."""
        t0, t1 = interval
        i0, i1 = np.searchsorted(self.starts, (t0, t1))
        work = (t1 - t0) - (self.cumulative[i1] - self.cumulative[i0])
        w0, w1 = np.searchsorted(self.starts, (t0 - WINDOW_S, t1 + WINDOW_S))
        local = np.sort(self.durations[w0:w1] if w1 > w0 else self.durations)
        cut = int(len(local) * TRIM)
        return work * NOMINAL_PROBE_S / float(np.mean(local[cut:len(local) - cut]))
