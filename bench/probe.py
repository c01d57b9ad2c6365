"""Reference-speed probe that states a pass time in machine-independent units.

On a shared machine the interpreter's speed swings by up to 70% within
seconds, as other tenants load the hardware thread this process shares a
core with, so a pass time in seconds spreads by 20-40% between runs.  The
probe times a fixed pure-Python snippet, which no change to the library can
alter, at the start and end of a pass and, unless ``interval`` is None, every
``interval`` seconds during it from a SIGALRM handler.  A pass's cost in
reference units is the number of snippet runs that its time would have
allowed at the sampled speeds:

    cost = (pass time - time spent probing) * mean(1 / snippet time)

Set-up time must be reported in seconds, so its cost is converted back at a
fixed reference speed, ``REFERENCE_SNIPPET_S`` per snippet run.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

# The snippet's time on the machine of the first baseline (2-vCPU Xeon,
# Python 3.11.7) while its sibling hardware thread is idle.
REFERENCE_SNIPPET_S = 0.0004


def snippet() -> int:
    perm = list(range(8))
    acc = 0
    for i in range(300):
        perm = [perm[(j * 3 + 1) % 8] for j in range(8)]
        acc += perm[i % 8]
    return acc


class Probe:
    """Context manager around one pass.  A pass on the process pool is probed
    with ``interval=None``: samples taken while its workers load the cores
    would count the pass's own load as a slow machine, so the speed is
    sampled only before the pool starts and after it has shut down, on each
    core in turn, as the workers run on all of them.  Changes of machine
    speed within such a pass are then not seen."""

    # Snippet runs at each end of a pass, outside its timed window; a pass
    # probed only at its ends has no other samples.
    END_SAMPLES = 8

    def __init__(self, interval: float | None) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0

    def _measure(self) -> None:
        t0 = time.perf_counter()
        snippet()
        self.samples.append(time.perf_counter() - t0)

    def _interrupt(self, *_) -> None:
        t0 = time.perf_counter()
        self._measure()
        self.spent += time.perf_counter() - t0

    def _measure_ends(self) -> None:
        if self.interval is not None:
            for _ in range(self.END_SAMPLES):
                self._measure()
            return
        cpus = os.sched_getaffinity(0)
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                for _ in range(self.END_SAMPLES // len(cpus) or 1):
                    self._measure()
        finally:
            os.sched_setaffinity(0, cpus)

    def __enter__(self) -> "Probe":
        self._measure_ends()
        if self.interval is not None:
            self._previous = signal.signal(signal.SIGALRM, self._interrupt)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        if self.interval is not None:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self._measure_ends()

    def cost(self, seconds: float) -> float:
        """``seconds`` of the probed pass, in snippet runs."""
        return (seconds - self.spent) * statistics.fmean(1 / d for d in self.samples)
