import math
import random

import numpy as np
import pytest

from icam.prng import SplitMix64
from oracles import ScalarSplitMix64


def test_determinism():
    a = SplitMix64(7)
    b = SplitMix64(7)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]
    a, b = ScalarSplitMix64(7), ScalarSplitMix64(7)
    assert [a.gaussian() for _ in range(101)] == [b.gaussian() for _ in range(101)]


def test_seeds_differ():
    assert SplitMix64(1).next_u64() != SplitMix64(2).next_u64()


def test_mixing_constants():
    # one step of the reference recipe, computed by hand from the constants
    seed = 0
    state = (seed + 0x9E3779B97F4A7C15) & (2 ** 64 - 1)
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & (2 ** 64 - 1)
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & (2 ** 64 - 1)
    z ^= z >> 31
    assert SplitMix64(0).next_u64() == z


@pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 1])
def test_next_u64_matches_the_integer_recipe(seed):
    # the library draws through the numpy output function `_mix`
    lib, ref = SplitMix64(seed), ScalarSplitMix64(seed)
    assert [lib.next_u64() for _ in range(100)] \
        == [ref.next_u64() for _ in range(100)]


def test_uniform_range_and_mean():
    rng = ScalarSplitMix64(123)
    vals = [rng.uniform() for _ in range(20000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    mean = sum(vals) / len(vals)
    assert abs(mean - 0.5) < 0.01


def test_gaussian_moments():
    rng = ScalarSplitMix64(9)
    vals = [rng.gaussian() for _ in range(20000)]
    mean = sum(vals) / len(vals)
    var = sum((v - mean) ** 2 for v in vals) / len(vals)
    assert abs(mean) < 0.03
    assert abs(var - 1.0) < 0.05
    assert all(math.isfinite(v) for v in vals)


def test_bernoulli_fraction():
    rng = ScalarSplitMix64(11)
    frac = sum(rng.bernoulli(0.6) for _ in range(20000)) / 20000
    assert abs(frac - 0.6) < 0.02
    rng = ScalarSplitMix64(11)
    assert all(rng.bernoulli(1.0) == 1 for _ in range(100))
    rng = ScalarSplitMix64(11)
    assert all(rng.bernoulli(0.0) == 0 for _ in range(100))


# ---------------------------------------------------------------------------
# block draws vs the scalar stream (the scalar methods are the oracle)
# ---------------------------------------------------------------------------

BLOCK_SEEDS = (0, 42, 2 ** 64 - 1)
ORACLE_DRAWS = 100_001          # odd, so the gaussian stream ends on a spare


def _same_stream(a, b):
    assert a._state == b._state
    assert a._spare == b._spare


@pytest.mark.parametrize("seed", BLOCK_SEEDS)
def test_uniform_array_matches_scalar(seed):
    block, scalar = ScalarSplitMix64(seed), ScalarSplitMix64(seed)
    got = block.uniform_array(ORACLE_DRAWS)
    want = np.array([scalar.uniform() for _ in range(ORACLE_DRAWS)])
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    _same_stream(block, scalar)


@pytest.mark.parametrize("seed", BLOCK_SEEDS)
def test_gaussian_array_matches_scalar(seed):
    block, scalar = ScalarSplitMix64(seed), ScalarSplitMix64(seed)
    got = block.gaussian_array(ORACLE_DRAWS)
    want = np.array([scalar.gaussian() for _ in range(ORACLE_DRAWS)])
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    _same_stream(block, scalar)
    assert block._spare is not None
    assert block.gaussian() == scalar.gaussian()


@pytest.mark.parametrize("seed", BLOCK_SEEDS)
def test_interleaved_block_draws_match_scalar(seed):
    # odd counts and count 0 exercise the cached sin twin across calls,
    # including a uniform block drawn while a twin is cached
    order = random.Random(seed)
    block, scalar = ScalarSplitMix64(seed), ScalarSplitMix64(seed)
    for _ in range(400):
        k = order.choice((0, 1, 2, 3, 5, 7, 8, order.randrange(64)))
        if order.random() < 0.5:
            got = block.gaussian_array(k)
            want = np.array([scalar.gaussian() for _ in range(k)], np.float64)
        else:
            got = block.uniform_array(k)
            want = np.array([scalar.uniform() for _ in range(k)], np.float64)
        assert got.shape == (k,)
        assert got.tobytes() == want.tobytes()
        _same_stream(block, scalar)

