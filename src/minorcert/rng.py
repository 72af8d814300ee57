"""Deterministic pseudo-randomness for every seeded run.

The generator is SplitMix64: a 64-bit counter advanced by the golden-gamma
constant and passed through a two-round mixer.  It is tiny, fast, and easy
to reproduce in any language, which is all a verification harness needs.
The mixer has two forms: ``next_u64`` mixes one state, and ``draws`` mixes
a block of consecutive states at once, as 128-bit lanes of one Python int,
so that a sampler that needs many draws pays for the mixer in C rather than
once per draw in the interpreter; ``randints`` reads such a block as values
of ``randint``.  Tests pin the two forms to each other, and every sampler
reads the same stream either way.  Independent substreams come from mixing
a stream index into the master seed with the same finalizer (the first
draw of a stream seeded there), so claim k always sees the same stream
regardless of execution order or parallelism.

Also hosts the seeded instance samplers (integer, polynomial and skew
matrices) shared by the verification suites, the benchmark harness and
the tests.
"""

from __future__ import annotations

import math
import os
import sys
from itertools import chain

from .matrix import Matrix
from .ring import MultiPoly

__all__ = [
    "SplitMix64",
    "map_trials",
    "substream",
    "random_int_matrix",
    "random_poly_matrix",
    "random_skew",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# The lanes of one block of ``draws``: lane k holds bits 128k .. 128k + 127
# of one int, and its state k + 1 steps ahead.  The constants take 4 KiB
# each; longer runs of draws are made in blocks of this size.
_LANES = 256
_ONES = int.from_bytes((b"\x01" + bytes(15)) * _LANES, "little")
_LOW = _ONES * _MASK64  # the low 64 bits of every lane
_STEPS = _GOLDEN * int.from_bytes(
    b"".join(k.to_bytes(16, "little") for k in range(1, _LANES + 1)), "little")
# native 64-bit words of the lanes' bytes, from the low half of lane 0 on
_HALVES = 2 if sys.byteorder == "little" else -2


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

    def draws(self, count: int) -> list[int]:
        """The next ``count`` outputs of ``next_u64``, which advance the
        stream as ``count`` calls of it would.  The mixer runs once over a
        block of lanes: each xor-shift is masked back to 64 bits per lane,
        and a product of a lane with a 64-bit constant fits in its 128 bits,
        so no step carries into the next lane."""
        out = []
        while count > 0:
            lanes = min(count, _LANES)
            keep = (1 << 128 * lanes) - 1
            z = (self._state * (_ONES & keep) + (_STEPS & keep)) & _LOW
            z ^= (z >> 30) & _LOW
            z = (z * 0xBF58476D1CE4E5B9) & _LOW
            z ^= (z >> 27) & _LOW
            z = (z * 0x94D049BB133111EB) & _LOW
            z ^= (z >> 31) & _LOW
            words = memoryview(z.to_bytes(16 * lanes, sys.byteorder)).cast("Q")
            out += words[::_HALVES].tolist()
            self._state = (self._state + lanes * _GOLDEN) & _MASK64
            count -= lanes
        return out

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi].  Plain modulo reduction; the bias is
        ~span/2^64 and irrelevant at the desk-scale ranges used here."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)

    def randints(self, count: int, lo: int, hi: int) -> list[int]:
        """The next ``count`` values of ``randint(lo, hi)``, from one block
        of ``draws``."""
        if hi < lo:
            raise ValueError("empty range")
        span = hi - lo + 1
        return [lo + v % span for v in self.draws(count)]

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


_RECORD = 4  # bytes of one queue record: a job index
_POSIX_PIPE_BUF = 512  # the least PIPE_BUF that POSIX allows


def _cpu_count() -> int:
    """The CPUs this process may run on (its affinity mask, as set by
    ``taskset``), or 1 where the platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def map_trials(job, count: int) -> list:
    """``[job(t) for t in range(count)]``, with the jobs shared out across
    one process per CPU of the affinity mask.

    Every job depends only on its index (a seeded trial draws only from its
    own substream), so its result does not depend on which process runs it
    or when.  The parent forks one worker per other CPU and runs job 0, and
    then each process, the parent included, takes the next job that has not
    started from one shared queue until none is left, so a process held up
    by a costly job takes fewer of the others; a caller with jobs of uneven
    cost lists the costliest first.  The queue is a pipe of the indices of
    jobs 1 on, written before the fork as fixed-size records in one write
    of at most ``PIPE_BUF`` bytes (past ``PIPE_BUF / 4`` jobs, a record
    stands for a chunk of consecutive jobs).  Each take reads one record, so
    the queue needs no lock, and a worker killed as it takes one cannot
    wedge the others.  Each worker pickles its results back through a pipe
    of its own once it stops; the parent returns them in job order.  A fork
    that fails (at a process limit, say) leaves the jobs to the processes
    already running.

    A process stops at its first failing job and empties the queue, so that
    no process starts another.  The parent reads every worker to the end
    and raises the error of the lowest job without a result: its exception
    if a process failed on it, the one the sequential loop raises (an
    exception that does not survive pickling comes back as a
    ``RuntimeError`` with the same text), and otherwise a ``RuntimeError``
    for a worker that died, since its results died with it.  The queue
    hands out indices in order, so every job below the lowest failure was
    taken, and each worker finishes at most the job it holds.  Every worker
    is reaped before this returns or raises; if the parent fails outside
    its jobs (an interrupt, say), it kills the workers first.

    The loop stays in this process with one CPU or one job, without
    ``os.fork``, and while another thread runs (a fork would copy it
    half-done).  A split has a fixed cost, about 2.5 ms on a 2-core
    machine, which a run of a few cheap jobs pays."""
    processes = min(_cpu_count(), count)
    threading = sys.modules.get("threading")
    if (processes < 2 or not hasattr(os, "fork")
            or (threading is not None and threading.active_count() > 1)):
        return [job(t) for t in range(count)]
    import pickle  # not at start-up, and before the fork: the workers share it

    queue, feed = os.pipe()
    workers = []  # (pid, read end of its pipe) of the unreaped workers
    try:
        try:
            slots = os.fpathconf(queue, "PC_PIPE_BUF") // _RECORD
            size = -(-(count - 1) // slots)  # jobs per record
            os.write(feed, b"".join(
                lo.to_bytes(_RECORD, "little") for lo in range(1, count, size)))
        finally:
            os.close(feed)  # so that the empty queue reads as end of file
        for _ in range(1, processes):
            r, w = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(job, count, size, queue, w)
            except OSError:  # EAGAIN at a process limit: go on with fewer
                os.close(r)
                break
            finally:
                os.close(w)
            workers.append((pid, r))
        results, failures = _take_jobs(job, chain([0], _queued(count, size, queue)), queue)
        died = None  # the error of the first worker found dead
        while workers:  # with the queue empty, each finishes at most its record
            pid, fd = workers[-1]
            with open(fd, "rb", closefd=False) as fh:
                data = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[-1]
            os.close(fd)
            if code == 0 and data:
                done, failed = pickle.loads(data)
                results.update(done)
                failures.update(failed)
            elif died is None:
                died = RuntimeError(f"a trial worker was killed by signal {-code}"
                                    if code < 0 else f"a trial worker exited with status {code}")
        # a job below the lowest failure has a result unless its worker died
        lost = next((t for t in range(count) if t not in results), None)
        if lost is not None:
            raise failures.get(lost, died)
    finally:
        os.close(queue)
        for pid, fd in workers:  # left when the parent fails outside its jobs
            os.close(fd)
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
    return [results[t] for t in range(count)]


def _queued(count, size, queue):
    """The jobs of each record taken from the queue until it is empty."""
    while record := os.read(queue, _RECORD):
        lo = int.from_bytes(record, "little")
        yield from range(lo, min(lo + size, count))


def _take_jobs(job, jobs, queue):
    """Runs ``jobs`` up to the first that raises, and then empties the
    queue so that no process starts another.  Returns the results (index
    -> result) and the failure (index -> exception, none or one)."""
    results = {}
    for t in jobs:
        try:
            results[t] = job(t)
        except Exception as exc:
            while os.read(queue, _POSIX_PIPE_BUF):
                pass
            return results, {t: exc}
    return results, {}


def _worker(job, count, size, queue, fd):
    """Takes jobs from the queue in a forked worker, then writes the pickled
    (results, failures) to ``fd`` and exits without returning: status 0
    once they are written, 1 otherwise."""
    code = 1
    try:
        import pickle

        results, failures = _take_jobs(job, _queued(count, size, queue), queue)
        for t, exc in failures.items():
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                failures[t] = RuntimeError(str(exc))
        with os.fdopen(fd, "wb") as fh:
            pickle.dump((results, failures), fh, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def random_int_matrix(stream: SplitMix64, n: int) -> Matrix:
    """Entries ``stream.randint(-9, 9)`` in row order, drawn as one block."""
    return Matrix(n, n, stream.randints(n * n, -9, 9))


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


def random_poly_matrix(
    stream: SplitMix64,
    n: int,
    nvars: int = 2,
    max_terms: int = 2,
    max_exp: int = 1,
    coeff_bound: int = 2,
) -> Matrix:
    """Polynomials in ``nvars`` variables, in row order.  Each has up to
    ``max_terms`` terms: the count ``stream.randint(0, max_terms)``, then
    per term the exponents ``randint(0, max_exp)`` and the coefficient
    ``randint(-coeff_bound, coeff_bound)`` (like terms add up)."""
    return Matrix(
        n, n, _random_polys(stream, n * n, nvars, max_terms, max_exp, coeff_bound)
    )


def _random_polys(stream, count, nvars, max_terms, max_exp, coeff_bound):
    """``count`` entries of ``random_poly_matrix``, drawn from one block of
    the most draws they can take.  The stream is then set back to just past
    the draws they used, where the draws one at a time would have left it."""
    start = stream._state
    block = stream.draws(count * (1 + max_terms * (nvars + 1)))
    polys = []
    used = 0
    for _ in range(count):
        terms = {}
        size = block[used] % (max_terms + 1)
        used += 1
        for _ in range(size):
            exps = tuple(v % (max_exp + 1) for v in block[used:used + nvars])
            c = -coeff_bound + block[used + nvars] % (2 * coeff_bound + 1)
            used += nvars + 1
            terms[exps] = terms.get(exps, 0) + c
        polys.append(MultiPoly(nvars, terms))
    stream._state = (start + used * _GOLDEN) & _MASK64
    return polys
