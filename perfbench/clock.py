"""A program-time clock that also gauges how fast the host is running.

The benchmark's host (2 vCPUs of a shared KVM machine) changes speed by
1.5-2x over seconds and minutes as other tenants come and go, so raw wall
times of the same work spread by 20-35 % between runs. While a ``Clock``
is entered, a SIGALRM handler times a fixed pure-Python reference loop
every ``PERIOD_S`` seconds, whatever job is running. The mean of the
samples taken during a batch measures the host's speed over that batch,
and ``factor`` rescales the batch's times to a host on which the loop
takes ``REF_S``. ``now`` and ``cpu`` exclude the handler's own time.
"""
from __future__ import annotations

import signal
import time

PERIOD_S = 0.25
# the loop's time on the quiet host (5th percentile of 300 runs, Xeon
# 2.1 GHz KVM guest, CPython 3.11); any constant works, it cancels when
# two commits are compared on one host
REF_S = 0.0105


def reference_loop() -> float:
    """Fixed interpreter-bound work: float, list, dict and branch ops."""
    acc = 0.0
    xs = [0.0] * 64
    counts: dict[int, int] = {}
    for i in range(50_000):
        k = i & 63
        xs[k] += i * 0.5
        counts[k] = counts.get(k, 0) + 1
        acc += xs[k] if k < 32 else -1.0
    return acc


def time_reference() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


class Clock:
    def __init__(self):
        self.samples: list[float] = []
        self._wall = 0.0
        self._cpu = 0.0
        self._old_handler = None

    def now(self) -> float:
        """perf_counter seconds, minus the time spent sampling."""
        return time.perf_counter() - self._wall

    def cpu(self) -> float:
        """process_time seconds, minus the CPU time spent sampling."""
        return time.process_time() - self._cpu

    def _sample(self, signum, frame):
        cpu = time.process_time()
        wall = time_reference()
        self.samples.append(wall)
        self._wall += wall
        self._cpu += time.process_time() - cpu

    def factor(self, first: int, last: int | None = None) -> float | None:
        """REF_S over the mean of samples[first:last], or None if empty."""
        taken = self.samples[first:last]
        return REF_S * len(taken) / sum(taken) if taken else None

    def factor_since(self, first: int) -> float:
        """factor() of the samples since ``first``; one is taken now if
        none fell in that interval."""
        return self.factor(first) or REF_S / time_reference()

    def __enter__(self) -> "Clock":
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)
