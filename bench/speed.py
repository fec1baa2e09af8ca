"""Host-speed sampling, so that timings survive a shared machine.

On a shared host the speed a process gets swings by up to 2x over a few
seconds, independently on each CPU, and no counter shows it (steal time
stays 0).  While a timed section runs, ``SpeedSampler`` interrupts it every
``INTERVAL_S`` and times a fixed spin loop on the same CPU.  The section's
``slowdown`` is the mean spin time over ``REFERENCE_S``; a wall time divided
by it reads as seconds at the reference speed.  Sampling costs about 1%.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.02
# Spin time at the reference speed: roughly the unloaded speed of a
# 2.1 GHz Xeon vCPU under CPython 3.11.
REFERENCE_S = 200e-6


def _spin() -> int:
    d = {}
    s = 0
    for i in range(2000):
        d[i & 255] = i
        s += len(d) ^ i
    return s


class SpeedSampler:
    """Context manager that samples the spin time while it is active."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        _spin()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    @property
    def slowdown(self) -> float:
        # no statistics import: the setup probe times the imports after this
        return sum(self.samples) / len(self.samples) / REFERENCE_S
