"""A reference for the host's speed, sampled on a timer while work runs.

The two vCPUs of the machine this benchmark was built on share their host:
one fixed pure-Python loop took from 0.6x to 1.4x its usual time from one
second to the next, and medians over a few seconds of the program's own
operations spread by 30-40%.  While a run measures, a timer signal
therefore interrupts the work every ``EVERY_S`` seconds to time a small
fixed reference workload of the benchmark's own, with the garbage collector
off so that it times the processor and not the program's heap.  Each
operation's time, less the samples taken inside it, is scaled by
``NOMINAL_S`` over the mean reference time within ``NEAR_S`` of it: a time
is reported as it would read with the reference taking ``NOMINAL_S``.  Raw
times are kept in the result file.

The reference is float arithmetic over short lists, like the program's
inner loops.  Timed next to protocol trials, closed-form solves and
optimizer solves for 150 s, the operations' times rose with the
reference's with log-log slopes of 0.98-1.11.  (A reference built from
small dataclasses had slopes of 0.8-0.9; an integer loop, 1.5-1.8.)  Over
six runs each of the protocol and cli workloads, scaling cut the
coefficient of variation of the round time from 11-12% to 2-3%; the median
reference time in place of the mean left 5%, because the samples fall in
two modes about 60% apart.

The handler runs in the main thread between bytecodes (no helper thread),
so a sample waits for any long C call to return.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

# The reference's usual duration on the machine the benchmark was built on.
NOMINAL_S = 0.0022
EVERY_S = 0.1
# Samples within this distance of an operation describe its speed.
NEAR_S = 1.0


def reference_work() -> float:
    """~2 ms of float arithmetic over short lists, as the program does."""
    x = [0.5, 1.0, 2.0, 3.0]
    r = [0.15, 0.2, 0.25, 0.3]
    w = [1.0, 2.0, 3.0, 4.0]
    acc = 0.0
    for k in range(1500):
        r_in = 0.35
        for j in range(4):
            r_in += w[j] / (r[j] + x[j])
        rr = r_in * r_in
        for j in range(4):
            d = r[j] + x[j]
            acc += w[j] * x[j] / (d * d) / rr
        x[k % 4] += 1e-6
    return acc


class Speedometer:
    """Reference samples taken on a timer between ``start`` and ``stop``."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference_work()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)
        if collecting:
            gc.enable()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def busy(self, start: float, end: float) -> float:
        """Time the samples took between ``start`` and ``end``."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        return sum(self.durations[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        """Time from ``start`` to ``end`` less the samples inside it, at the
        mean reference speed of the samples within NEAR_S of it."""
        lo = bisect.bisect_left(self.starts, start - NEAR_S)
        hi = bisect.bisect_right(self.starts, end + NEAR_S)
        near = self.durations[lo:hi] or self.durations
        return (end - start - self.busy(start, end)) * NOMINAL_S / statistics.fmean(near)
