"""Deterministic pseudo-randomness for every seeded run.

The generator is SplitMix64: a 64-bit counter advanced by the golden-gamma
constant and passed through a two-round mixer, which lives in ``next_u64``
alone.  It is tiny, fast, and easy to reproduce in any language, which is all
a verification harness needs.  Independent substreams come from mixing a
stream index into the master seed with the same finalizer (the first draw of
a stream seeded there), so claim k always sees the same stream regardless of
execution order or parallelism.

Also hosts the seeded instance samplers (integer, polynomial and skew
matrices) shared by the verification suites, the benchmark harness and
the tests.
"""

from __future__ import annotations

import math
import os
import sys

from .matrix import Matrix
from .ring import MultiPoly

__all__ = [
    "SPLIT_MIN_TRIALS",
    "SplitMix64",
    "map_trials",
    "substream",
    "random_int_matrix",
    "random_poly",
    "random_poly_matrix",
    "random_skew",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        z = self._state = (self._state + _GOLDEN) & _MASK64
        z ^= z >> 30
        z = (z * 0xBF58476D1CE4E5B9) & _MASK64
        z ^= z >> 27
        z = (z * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi].  Plain modulo reduction; the bias is
        ~span/2^64 and irrelevant at the desk-scale ranges used here."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * 2.0 ** -53
        return lo + (hi - lo) * u

    def gauss(self) -> float:
        """Standard normal via Box-Muller (one value per call, no cache)."""
        u1 = ((self.next_u64() >> 11) + 1) * 2.0 ** -53
        u2 = (self.next_u64() >> 11) * 2.0 ** -53
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def substream(master_seed: int, index: int) -> SplitMix64:
    """Independent stream #index derived from the master seed: seeded with
    the first draw of the stream at master_seed + index * golden gamma."""
    return SplitMix64(SplitMix64(master_seed + index * _GOLDEN).next_u64())


# Fewest trials that map_trials splits across processes.  A split over two
# CPUs saves about half of a suite's time and pays for a fork: on a 2-core
# machine under CPython 3.11 a bare fork, pipe write and reap takes 2.6-2.9
# ms from a 20 MB process, 3-5 ms once the worker's copy-on-write faults and
# pickled reports count.  The cheapest seeded trial, an order-2..12 numeric
# Johnson claim, takes 0.08-0.17 ms, so below 2 * 5 / 0.08 = 125 trials a
# split can lose.  Measured in 9 alternated pairs each: the benchmark's 50-
# and 100-trial suites (17-25 ms) read 0.79-1.22 of their one-process time
# when split, the 200-trial accretive suite 0.63.
SPLIT_MIN_TRIALS = 128


def _cpu_count() -> int:
    """The CPUs this process may run on (its affinity mask, as set by
    ``taskset``), or 1 where the platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def map_trials(trial, count: int) -> list:
    """``[trial(t) for t in range(count)]``, with the trials split across one
    process per CPU of the affinity mask.

    Every seeded trial draws only from its own substream, so a trial's
    result does not depend on which process runs it or when.  Process w of
    k runs the contiguous block of trials ``w * count // k`` up to ``(w + 1)
    * count // k``: the parent runs block 0 and forks one worker per other
    block, each worker pickles its results back through a pipe, and the
    parent reads the blocks in order.  Each process stops at its first
    failing trial, and the parent raises at the first block that failed,
    with its exception, the one the sequential loop raises (an exception
    that does not survive pickling comes back as a ``RuntimeError`` with the
    same text); the workers of the later blocks are killed, not read.  A
    worker that dies raises ``RuntimeError``.  Every worker is reaped
    before this returns or raises; if the parent fails outside its trials
    (an interrupt, say), it kills the workers first.

    The loop stays in this process with one CPU, without ``os.fork``, while
    another thread runs (a fork would copy it half-done) and below
    ``SPLIT_MIN_TRIALS`` trials."""
    workers = min(_cpu_count(), count)
    threading = sys.modules.get("threading")
    if (workers < 2 or count < SPLIT_MIN_TRIALS or not hasattr(os, "fork")
            or (threading is not None and threading.active_count() > 1)):
        return [trial(t) for t in range(count)]
    import pickle  # not at start-up, and before the fork: the workers share it

    pids, reads = [], []  # unreaped workers and the read ends of their pipes
    try:
        for w in range(1, workers):
            r, wr = os.pipe()
            reads.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    lo, hi = w * count // workers, (w + 1) * count // workers
                    _worker(trial, range(lo, hi), wr)
            finally:
                os.close(wr)
            pids.append(pid)
        exc, results = _run_share(trial, range(count // workers))
        if exc is not None:
            raise exc
        while pids:
            with os.fdopen(reads.pop(0), "rb") as fh:
                data = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
            del pids[0]
            if code < 0:
                raise RuntimeError(f"a trial worker was killed by signal {-code}")
            if code != 0 or not data:
                raise RuntimeError(f"a trial worker exited with status {code}")
            exc, share = pickle.loads(data)
            if exc is not None:
                raise exc
            results += share
    finally:
        for r in reads:
            os.close(r)
        for pid in pids:  # left when a block fails or the parent does
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
    return results


def _run_share(trial, ts):
    """(the first exception, results before it); (None, results) when every
    trial of ``ts`` returns."""
    results = []
    for t in ts:
        try:
            results.append(trial(t))
        except Exception as exc:
            return exc, results
    return None, results


def _worker(trial, ts, fd):
    """Runs one share in a forked worker, writes it to ``fd`` and exits
    without returning: status 0 once the share is written, 1 otherwise."""
    code = 1
    try:
        import pickle

        exc, results = _run_share(trial, ts)
        if exc is not None:
            results = None
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = RuntimeError(str(exc))
        data = pickle.dumps((exc, results), pickle.HIGHEST_PROTOCOL)
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)


def random_int_matrix(stream: SplitMix64, n: int) -> Matrix:
    return Matrix(n, n, [stream.randint(-9, 9) for _ in range(n * n)])


def random_skew(n: int, draw) -> Matrix:
    """Skew-symmetric matrix whose upper triangle is filled with ``draw()``
    in row order (zero diagonal)."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = draw()
            rows[i][j] = v
            rows[j][i] = -v
    return Matrix.from_rows(rows)


def random_poly(
    stream: SplitMix64,
    nvars: int,
    max_terms: int = 3,
    max_exp: int = 2,
    coeff_bound: int = 3,
) -> MultiPoly:
    terms = {}
    for _ in range(stream.randint(0, max_terms)):
        exps = tuple(stream.randint(0, max_exp) for _ in range(nvars))
        c = stream.randint(-coeff_bound, coeff_bound)
        terms[exps] = terms.get(exps, 0) + c
    return MultiPoly(nvars, terms)


def random_poly_matrix(
    stream: SplitMix64,
    n: int,
    nvars: int = 2,
    max_terms: int = 2,
    max_exp: int = 1,
    coeff_bound: int = 2,
) -> Matrix:
    return Matrix(
        n,
        n,
        [
            random_poly(stream, nvars, max_terms, max_exp, coeff_bound)
            for _ in range(n * n)
        ],
    )
