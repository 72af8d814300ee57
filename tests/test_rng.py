import math

import pytest

from minorcert import cli, identity
from minorcert.identity import verify_bt
from minorcert.matrix import Matrix
from minorcert.ring import MultiPoly
from minorcert.rng import (
    SplitMix64,
    random_int_matrix,
    random_poly,
    random_poly_matrix,
    random_skew,
    substream,
)

# Golden literals of the generator behind every seeded report.  A drift in
# a draw changes reports that only the digest job would otherwise see, and
# that job runs on one Python version only.


def test_first_draw_of_seed_zero():
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF


def test_substreams_of_the_default_and_a_negative_master_seed():
    assert substream(cli.DEFAULT_SEED, 3000).next_u64() == 0xF0A8ED235DDD7EDA
    assert substream(-cli.DEFAULT_SEED, 3000).next_u64() == 0x4E31C4CB2DF0BA6F


def test_one_draw_of_each_kind():
    stream = substream(cli.DEFAULT_SEED, 3000)
    assert stream.randint(-9, 9) == -9
    assert stream.uniform(-1.0, 1.0) == float.fromhex("-0x1.d20caa0d2bbeep-1")
    # Box-Muller goes through the platform's log and cos, whose last bits
    # may differ; a drift in the draws underneath moves it far more
    want = -0.03015075511991714
    assert abs(stream.gauss() - want) <= 4 * math.ulp(want)


# The block form of the mixer, ``draws``, against the scalar one, and the
# samplers that read it against copies of their draw-at-a-time forms.

_GOLDEN = 0x9E3779B97F4A7C15


@pytest.mark.parametrize("count", [0, 1, 2, 63, 64, 65, 1000])
@pytest.mark.parametrize(
    "seed",
    [
        0,
        cli.DEFAULT_SEED,
        (1 << 64) - 1,  # the first state of the block wraps past 2^64
        -5 * _GOLDEN,  # the fifth state of the block is 0
    ],
)
def test_a_block_of_draws_is_the_scalar_stream(seed, count):
    block, scalar = SplitMix64(seed), SplitMix64(seed)
    assert block.draws(count) == [scalar.next_u64() for _ in range(count)]
    assert block.draws(1) == [scalar.next_u64()]
    assert block.next_u64() == scalar.next_u64()


def _randint_matrix_by_draws(stream, n):
    return Matrix(n, n, [stream.randint(-9, 9) for _ in range(n * n)])


def _poly_by_draws(stream, nvars, max_terms, max_exp, coeff_bound):
    terms = {}
    for _ in range(stream.randint(0, max_terms)):
        exps = tuple(stream.randint(0, max_exp) for _ in range(nvars))
        c = stream.randint(-coeff_bound, coeff_bound)
        terms[exps] = terms.get(exps, 0) + c
    return MultiPoly(nvars, terms)


def _poly_matrix_by_draws(stream, n, *shape):
    return Matrix(n, n, [_poly_by_draws(stream, *shape) for _ in range(n * n)])


SAMPLERS = {
    "int_matrix_7": (
        lambda s: random_int_matrix(s, 7),
        lambda s: _randint_matrix_by_draws(s, 7),
    ),
    "int_matrix_17": (  # 289 draws: more than one block
        lambda s: random_int_matrix(s, 17),
        lambda s: _randint_matrix_by_draws(s, 17),
    ),
    "poly": (
        lambda s: random_poly(s, 3),
        lambda s: _poly_by_draws(s, 3, 3, 2, 3),
    ),
    "poly_many_terms": (
        lambda s: random_poly(s, 3, max_terms=12, max_exp=3, coeff_bound=7),
        lambda s: _poly_by_draws(s, 3, 12, 3, 7),
    ),
    "poly_matrix_6": (
        lambda s: random_poly_matrix(s, 6),
        lambda s: _poly_matrix_by_draws(s, 6, 2, 2, 1, 2),
    ),
    "poly_matrix_3_shaped": (
        lambda s: random_poly_matrix(s, 3, nvars=3, max_terms=5, max_exp=3, coeff_bound=6),
        lambda s: _poly_matrix_by_draws(s, 3, 3, 5, 3, 6),
    ),
}


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_each_sampler_draws_as_it_would_one_draw_at_a_time(name):
    # the poly samplers draw a block of the most draws they can take, then
    # set the stream back to just past the ones they used
    sampler, by_draws = SAMPLERS[name]
    for t in range(24):
        block, scalar = substream(cli.DEFAULT_SEED, t), substream(cli.DEFAULT_SEED, t)
        assert sampler(block) == by_draws(scalar)
        assert block.next_u64() == scalar.next_u64()


def test_the_exact_bt_trial_draws_as_it_would_one_draw_at_a_time(monkeypatch):
    seen = []

    def spy(skew, alpha, w):
        seen.append((skew, alpha, w))
        return verify_bt(skew, alpha, w)

    monkeypatch.setattr(identity, "verify_bt", spy)
    for t in range(24):
        identity._bt_trial(8, 1, "rat", t)
        stream = substream(1, 2000 + t)
        n = stream.randint(2, 8)
        skew = random_skew(n, lambda: stream.randint(-4, 4))
        alpha = stream.randint(-5, 5)
        w = [stream.randint(-4, 4) for _ in range(n)]
        if t % 5 == 0:
            w[t % n] = 0
        if not any(w):
            w[0] = 1
        assert seen.pop() == (skew, alpha, w)
