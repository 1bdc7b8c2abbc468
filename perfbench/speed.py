"""A fixed pure-Python reference, timed while the ops run, to track machine speed.

The benchmark shares its cores with other tenants, and the same op takes up
to 1.8x as long in a busy phase as in a quiet one; phases change within a
second.  A phase slows the reference about as much as it slows polydyn, so
``run.py`` scales every timing by ``REF_NOMINAL_S / ref_s``, where ``ref_s`` is
the mean time of the reference samples taken just before, during and just
after that timing.  The reference does not touch polydyn: a change to
polydyn moves the scaled timings, a busy neighbour mostly does not.
"""

from __future__ import annotations

import signal
import statistics
import time

SAMPLE_N = 2000  # reference size of one sample: about a millisecond
# Time of one sample, in seconds, on the 2-vCPU shared Xeon VM that defined the
# benchmark, in a quiet phase.  Scaled timings read as seconds at that speed.
REF_NOMINAL_S = 0.001
INTERVAL_S = 0.05  # a sample every this many seconds of wall time during ops
PROBE_SAMPLES = 60  # samples after a set-up probe


def reference_work() -> float:
    """Dict, tuple and float work of the kind polydyn does, of fixed size."""
    table: dict = {}
    acc = 0.0
    for i in range(SAMPLE_N):
        key = (i % 61, i % 53)
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += len(table) * 1e-3
    return acc + sum(table.values())


def sample() -> float:
    """Seconds one run of the reference takes now."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def probe_ref_s() -> float:
    """Mean sample time just after a probe's set-up; the first sample only
    warms the interpreter's caches for the reference."""
    sample()
    return statistics.mean(sample() for _ in range(PROBE_SAMPLES))


class Sampler:
    """Takes a sample every ``INTERVAL_S`` from a SIGALRM handler while the
    ops run, so long ops are sampled throughout.  ``spent`` is the time spent
    in the handler, which op latencies leave out."""

    def __init__(self):
        sample()  # warm-up
        self.samples: list = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(sample())
        self.spent += time.perf_counter() - t0

    def take(self) -> float:
        """A sample taken now, between two timings; the handler waits until
        it is done, so it cannot land inside the sample."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return sample()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
