"""Host-speed calibration for the benchmark's time metrics.

The benchmark runs on a shared host whose speed moves by 15-30 % within
seconds and drifts over minutes, so raw times of the same code spread more
between runs than the bounds allow.  A fixed, stdlib-only kernel (exact
fractions in a dict, then JSON, as dualcalc does) is timed in short slices
spread evenly over the work: a ``Sampler`` runs one slice every
``INTERVAL_S`` of wall time from a timer signal inside each measured child
process, and ``run.py`` runs slices between its set-up processes.  The time
the slices take is taken out of the measured times.  The host factor of a
child is its mean slice time divided by ``REFERENCE_MS``, and every time the
child spent is divided by it, so times read as on a host where one slice
takes ``REFERENCE_MS``.  The kernel is not dualcalc code, so a change
to dualcalc moves the scaled times as it moves the raw ones.  Raw times are
kept next to the scaled ones.
"""
from __future__ import annotations

import gc
import json
import signal
import statistics
import time
from fractions import Fraction
from typing import Iterable, List

REFERENCE_MS = 2.0        # one slice on a 2-vCPU Xeon at 2.1 GHz, quiet host
INTERVAL_S = 0.05         # a slice every 50 ms: about 4 % of a sampled run


def kernel() -> str:
    acc = {}
    for i in range(1, 200):
        f = Fraction(3 * i + 1, 2 * i + 7)
        key = (i % 7, i % 5)
        acc[key] = acc.get(key, 0) + f * f - Fraction(1, i)
    return json.dumps({str(k): str(v) for k, v in acc.items()})


def slice_ms() -> float:
    """Milliseconds one calibration slice takes now.  The collector is off
    during the slice, so it does not scan the caller's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return (time.perf_counter() - start) * 1e3
    finally:
        if enabled:
            gc.enable()


def slices(n: int) -> List[float]:
    return [slice_ms() for _ in range(n)]


def host_factor(slice_times: Iterable[float]) -> float:
    """How much slower than the reference the host ran (>1: slower)."""
    return statistics.fmean(slice_times) / REFERENCE_MS


class Sampler:
    """Runs a calibration slice every ``INTERVAL_S`` of wall time, from a
    SIGALRM handler, while the main thread does other work.  ``spent_ms``
    is the time all slices so far took, so a caller can take it out of an
    interval it measures."""

    def __init__(self):
        self.slices: List[float] = []
        self.spent_ms = 0.0
        self._old = None

    def _tick(self, _signum, _frame) -> None:
        ms = slice_ms()
        self.slices.append(ms)
        self.spent_ms += ms

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
