"""Host-speed calibration for the end-to-end timings.

On a shared VM the speed of a vCPU shifts between levels up to 1.6x apart
that last from a few seconds to a minute.  Steal time does not show it:
process CPU time rises with wall time.  So the benchmark times a fixed pure-Python kernel next to
the work it measures and rescales each measured stretch to the host speed at
which that kernel takes REF_CAL_S.  The kernel does what opengw's inner
loops do, exact Fraction sums into a dict keyed by integer tuples.  It uses
no opengw code and runs with the garbage collector off, so neither opengw's
code nor the size of its heap sets the kernel's time.

A single op can run for 10 s and span two speed levels, so inside a worker
the kernel runs every PERIOD_S seconds from a SIGALRM handler, and an op is
rescaled by the kernel times sampled while it ran.  The handler's own time
is taken out of the op's time.
"""

from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# seconds the kernel takes at reference speed: about its median over the
# ops of all four workloads on a 2-vCPU Intel Xeon VM with Python 3.11.7
REF_CAL_S = 0.002
PERIOD_S = 0.1


def calibrate() -> float:
    """Seconds one run of the fixed kernel takes now.

    The garbage collector is off meanwhile: a collection started by the
    kernel's allocations would scan the program's heap, and then the
    program's own state, not the host, would set the kernel's time."""
    gc_was_on = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    acc: dict[tuple[int, int], Fraction] = {}
    for i in range(20):
        for j in range(20):
            k = ((i + j) % 7, (i * j) % 5)
            acc[k] = acc.get(k, Fraction(0)) + Fraction(i + 1, j + 1)
    seconds = perf_counter() - t0
    if gc_was_on:
        gc.enable()
    return seconds


def scaled(seconds: float, cal_s: float) -> float:
    """`seconds` measured while the kernel took `cal_s`, at reference speed."""
    return seconds * REF_CAL_S / cal_s


class Sampler:
    """Runs the kernel every PERIOD_S seconds while entered.

    ``samples`` holds (end time, kernel seconds) of each run."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum=None, frame=None):
        d = calibrate()
        self.samples.append((perf_counter(), d))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def busy(self, t0: float, t1: float) -> float:
        """Seconds the kernel ran between t0 and t1."""
        return sum(d for end, d in self.samples if t0 < end <= t1)

    def cal_s(self, t0: float, t1: float) -> float:
        """Kernel time from PERIOD_S before t0 to PERIOD_S after t1.

        The samples are evenly spaced in time, so their harmonic mean
        rescales a stretch that spans two speed levels by the share of
        time spent at each."""
        near = [d for end, d in self.samples if t0 - PERIOD_S <= end <= t1 + PERIOD_S]
        return statistics.harmonic_mean(near)
