"""Machine-speed calibration for the benchmark's timings.

On a machine whose cores other tenants share, speed can drift by up to a
factor of two within seconds; the 2-vCPU x86-64 VM the benchmark was
built on does.  A fixed
pure-Python kernel tracks that drift.  Sampled around and during each op,
it cut the deviation of one op's time between passes from 10-17% to about
4%.  The kernel indexes and compares list items in a loop, like the diff's
inner loop.  It tracked the ops of every workload better than a
dict-and-str kernel did, and much better than one that also walks a large
working set.

``SpeedMeter`` times one operation and samples the kernel ten times right
before it, ten times right after it, and, when given an interval, every
``interval`` seconds during it from a ``SIGALRM`` handler, so that long
operations see the speed they actually ran at.  The handler's own time is
taken out of the operation's.  The result is expressed in reference
seconds: the time the operation would take on a machine where one kernel
run takes ``REFERENCE_S``, about what it takes on that VM, unloaded, under
CPython 3.11.
"""

from __future__ import annotations

import signal
from time import perf_counter

REFERENCE_S = 100e-6
_BRACKET = 10


_A = list(range(1400))
_B = [x * 3 % 1401 for x in range(1400)]


def _kernel() -> int:
    a, b = _A, _B
    total = 0
    for i in range(1400):
        x = a[i] + 1 if a[i] < b[i] else b[i]
        while x < 1399 and a[x] == b[x]:
            x += 1
        total += x
    return total


class SpeedMeter:
    """Context manager timing its block in measured and reference seconds.

    After the block, ``raw`` is the block's duration without the sampling
    handler's time, ``elapsed`` the duration with it, and ``scaled`` the
    duration in reference seconds.  With an ``interval`` the meter owns
    ``SIGALRM`` for the life of the process.
    """

    def __init__(self, interval: float | None = None) -> None:
        self._interval = interval
        self._samples: list[float] = []
        self._spent = 0.0
        self._active = False
        self.raw = self.elapsed = self.scaled = 0.0
        if interval is not None:
            signal.signal(signal.SIGALRM, self._on_alarm)

    def _sample(self) -> float:
        t0 = perf_counter()
        _kernel()
        duration = perf_counter() - t0
        self._samples.append(duration)
        return duration

    def _on_alarm(self, signum, frame) -> None:
        if self._active:
            t0 = perf_counter()
            self._sample()
            self._spent += perf_counter() - t0

    def __enter__(self) -> "SpeedMeter":
        self._samples = []
        self._spent = 0.0
        for _ in range(_BRACKET):
            self._sample()
        self._active = True
        if self._interval is not None:
            signal.setitimer(signal.ITIMER_REAL, self._interval, self._interval)
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = perf_counter() - self._t0
        if self._interval is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._active = False
        self.raw = self.elapsed - self._spent
        for _ in range(_BRACKET):
            self._sample()
        # drop the slowest tenth: a sample hit by an interrupt says nothing
        # about the speed the block ran at
        samples = sorted(self._samples)[: max(1, len(self._samples) * 9 // 10)]
        speed = sum(samples) / len(samples)
        self.scaled = self.raw * REFERENCE_S / speed
