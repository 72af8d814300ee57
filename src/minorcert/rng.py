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

from .matrix import Matrix
from .ring import MultiPoly

__all__ = [
    "SplitMix64",
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
