from dataclasses import replace

import numpy as np
import pytest

from icam import perturb
from icam.perturb import PerturbationConfig, generate_set
from icam.prng import SplitMix64


def _one(img, alpha, seed):
    """The single perturbation drawn from SplitMix64(seed)."""
    return generate_set(img, PerturbationConfig(n=1, alpha=alpha, seed=seed))[0]


def test_alpha_zero_is_identity():
    img = np.random.default_rng(0).random((3, 8, 8))
    out = _one(img, 0.0, 1)
    assert np.array_equal(out, img)


def test_alpha_one_is_all_zeros():
    img = np.random.default_rng(0).random((3, 8, 8))
    out = _one(img, 1.0, 1)
    assert np.array_equal(out, np.zeros_like(img))


def test_masked_fraction_near_alpha():
    # alpha = 0.4 removes ~40% of pixels; 10^4 positions, tolerance 0.01
    img = np.ones((1, 100, 100))
    out = _one(img, 0.4, 99)
    frac = float((out == 0.0).mean())
    assert 0.39 <= frac <= 0.41


def test_mask_shared_across_channels_and_exact_values():
    img = np.random.default_rng(3).random((3, 6, 6))
    alpha, seed = 0.5, 42
    out = _one(img, alpha, seed)

    # replay the same stream: all noise first (row-major C,H,W), then masks
    rng = SplitMix64(seed)
    noise = np.array([rng.gaussian() for _ in range(3 * 6 * 6)]).reshape(3, 6, 6)
    mask = np.array([rng.bernoulli(1 - alpha) for _ in range(36)],
                    dtype=float).reshape(6, 6)
    for i in range(6):
        for j in range(6):
            if mask[i, j] == 0.0:
                assert np.all(out[:, i, j] == 0.0)
            else:
                assert np.array_equal(out[:, i, j],
                                      img[:, i, j] + alpha * noise[:, i, j])


def test_alpha_out_of_range():
    with pytest.raises(ValueError):
        PerturbationConfig(alpha=1.5)
    with pytest.raises(ValueError):
        PerturbationConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        PerturbationConfig(n=0)


def test_generate_set_deterministic():
    img = np.random.default_rng(1).random((3, 8, 8))
    cfg = PerturbationConfig(n=8, alpha=0.4, seed=5)
    s1 = generate_set(img, cfg)
    s2 = generate_set(img, cfg)
    assert s1.shape == (8,) + img.shape
    assert s1.tobytes() == s2.tobytes()


def test_generate_set_single():
    img = np.ones((3, 4, 4))
    s = generate_set(img, PerturbationConfig(n=1, alpha=0.3, seed=0))
    assert s.shape == (1, 3, 4, 4)


def test_generate_set_is_one_float64_array():
    img = np.random.default_rng(2).random((3, 5, 7)).astype(np.float32)
    s = generate_set(img, PerturbationConfig(n=4, alpha=0.4, seed=9))
    assert isinstance(s, np.ndarray)
    assert s.dtype == np.float64
    assert s.shape == (4, 3, 5, 7)


def _scalar_perturbations(img, n, alpha, seed):
    """The scalar-draw recipe: per perturbation, C*H*W gaussian() calls
    then H*W bernoulli(1 - alpha) calls, all from one stream."""
    rng = SplitMix64(seed)
    c, h, w = img.shape
    out = []
    for _ in range(n):
        noise = np.array([rng.gaussian() for _ in range(c * h * w)])
        mask = np.array([rng.bernoulli(1.0 - alpha) for _ in range(h * w)],
                        dtype=np.float64)
        out.append((img + alpha * noise.reshape(c, h, w))
                   * mask.reshape(h, w)[None, :, :])
    return np.array(out)


@pytest.mark.parametrize("shape,n,seed", [((1, 3, 3), 3, 42),
                                          ((3, 5, 3), 2, 0),
                                          ((3, 8, 8), 4, 2 ** 64 - 1)])
def test_generate_set_replays_scalar_stream(shape, n, seed):
    # an odd C*H*W leaves a cached sin twin between noise and mask draws
    # and across perturbations
    img = np.random.default_rng(4).random(shape)
    cfg = PerturbationConfig(n=n, alpha=0.4, seed=seed)
    want = _scalar_perturbations(img, n, 0.4, seed).tobytes()
    perturb._draws.cache_clear()
    assert generate_set(img, cfg).tobytes() == want      # fills the cache
    assert generate_set(img, cfg).tobytes() == want      # reads it back
    c, h, w = shape
    for other_img, other_cfg in [(img, replace(cfg, seed=seed ^ 1)),
                                 (img, replace(cfg, n=n + 1)),
                                 (np.ones((c, h + 1, w)), cfg)]:
        generate_set(other_img, other_cfg)
        assert generate_set(img, cfg).tobytes() == want
    assert perturb._draws.cache_info().currsize == 1   # only the latest set


def test_alphas_back_to_back_each_replay_their_own_stream():
    img = np.random.default_rng(5).random((3, 5, 3))
    for alpha in (0.4, 0.7, 0.4):
        got = generate_set(img, PerturbationConfig(n=3, alpha=alpha, seed=8))
        assert got.tobytes() == \
            _scalar_perturbations(img, 3, alpha, 8).tobytes()


def test_draws_shared_across_images_and_alphas():
    rng = np.random.default_rng(6)
    cfg = PerturbationConfig(n=3, alpha=0.4, seed=11)
    perturb._draws.cache_clear()
    generate_set(rng.random((3, 4, 4)), cfg)
    generate_set(rng.random((3, 4, 4)), cfg)
    generate_set(rng.random((3, 4, 4)), replace(cfg, alpha=0.9))
    info = perturb._draws.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


def test_cached_draws_are_read_only():
    noise, uniforms = perturb._draws(3, 2, (1, 3, 3))
    for arr in (noise, uniforms):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 1.0


def test_writing_into_a_set_leaves_the_next_call_unchanged():
    img = np.random.default_rng(7).random((1, 3, 3))
    cfg = PerturbationConfig(n=2, alpha=0.4, seed=3)
    first = generate_set(img, cfg)
    first[...] = 7.0
    assert generate_set(img, cfg).tobytes() == \
        _scalar_perturbations(img, 2, 0.4, 3).tobytes()


def test_no_clamping():
    # noise can legitimately push values outside [0,1]
    img = np.ones((1, 50, 50))
    out = _one(img, 0.9, 4)
    assert out.max() > 1.0 or out.min() < 0.0
