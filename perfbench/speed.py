"""How fast the machine runs Python while a pass runs.

On a shared machine the speed of the interpreter changes by up to 2x from
one second to the next, so raw pass times spread more from run to run than
any bound a benchmark could hold.  ``SpeedSampler`` times a fixed reference
loop before and after every command and, from a SIGALRM handler, every
PERIOD_S seconds while a command runs.  A command's time divided by the
reference times around and inside it does not depend on that speed.  The
loop is the benchmark's own code, so a change to the program cannot move it.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.1

# The reference loop's time on the machine the benchmark was written on,
# when it was quiet.  A time in reference units times this reads as seconds
# at that speed; setup_s is reported this way (see run.py).
NOMINAL_REF_S = 0.0025


def _lcg_terms(count, x):
    terms = {}
    for _ in range(count):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        terms[x >> 24] = (x & 15) - 7
    return terms


_A = _lcg_terms(60, 1)
_B = list(_lcg_terms(60, 2).items())


def reference_loop() -> None:
    """Small-dict int updates, then two 60 x 60 sparse products into a dict:
    the two access patterns of the program's inner loops.  The dicts stay
    small so that the loop does not raise the pass's peak memory."""
    table, x = {}, 0
    for i in range(5_000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        table[x & 1023] = table.get(x & 1023, 0) + i
    for _ in range(2):
        out = {}
        get = out.get
        for ka, ca in _A.items():
            for kb, cb in _B:
                k = ka + kb
                out[k] = get(k, 0) + ca * cb


def reference_seconds(reps: int = 3) -> float:
    """Median time of ``reps`` runs of the reference loop."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return sorted(times)[reps // 2]


class SpeedSampler:
    """Context manager that samples the reference loop's time."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:  # a timer tick during a sample is dropped
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            reference_loop()
            self.samples.append((t0, time.perf_counter() - t0))
        finally:
            self._busy = False

    def mark(self) -> int:
        """Takes a sample between commands; returns its index."""
        self.sample()
        return len(self.samples) - 1

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @property
    def total_s(self) -> float:
        return sum(d for _, d in self.samples)

    def window(self, first: int, last: int, t0: float, t1: float) -> tuple[float, float]:
        """For the command that ran from t0 to t1 between samples[first] and
        samples[last]: (reference seconds, sampler seconds inside [t0, t1)).

        The reference is the harmonic mean of the samples, which is exact
        when samples are evenly spaced in time: the command's work in
        reference units is its time times the mean reciprocal."""
        span = self.samples[first:last + 1]
        ref = len(span) / sum(1.0 / d for _, d in span)
        inside = sum(d for t, d in span if t0 <= t < t1)
        return ref, inside
