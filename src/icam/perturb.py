"""Image perturbation: Gaussian noise plus Bernoulli pixel masking.

A perturbed image is (I + alpha * N) * M where N is standard Gaussian per
element and M is a per-pixel Bernoulli(1 - alpha) mask shared across all
channels. The result is deliberately not clamped to [0,1].

The draws behind N and M depend only on the seed, n and the image shape,
never on the pixels or on alpha. They are computed once per (seed, n,
shape) and reused by every image explained with that configuration; only
the most recent set is kept.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .prng import SplitMix64


@lru_cache(maxsize=1)
def _draws(seed: int, n: int, shape: tuple) -> tuple:
    """Read-only raw noise [n,C,H,W] and uniforms [n,H,W] of SplitMix64(seed).

    Per perturbation, all C*H*W Gaussian values are drawn first (row-major
    over channels, then rows, then columns), then one uniform per spatial
    position.
    """
    c, h, w = shape
    rng = SplitMix64(seed)
    try:
        noise = np.empty((n, c, h, w))
        uniforms = np.empty((n, h, w))
    except (ValueError, MemoryError):   # numpy's "too big" is a ValueError
        raise MemoryError(f"n = {n} perturbations of a {c}x{h}x{w} image "
                          f"do not fit in memory") from None
    for i in range(n):
        noise[i] = rng.gaussian_array(c * h * w).reshape(c, h, w)
        uniforms[i] = rng.uniform_array(h * w).reshape(h, w)
    noise.flags.writeable = False
    uniforms.flags.writeable = False
    return noise, uniforms


def generate_set(image: np.ndarray, config) -> np.ndarray:
    """config.n perturbations of strength config.alpha from a single stream
    seeded by config.seed, where `config` is a scoring CamRequest.

    Returns a new float64 [n, C, H, W] array; pixel (h, w) of perturbation
    i is masked when its uniform draw is >= 1 - alpha.
    """
    image = np.asarray(image, dtype=np.float64)
    noise, uniforms = _draws(config.seed, config.n, image.shape)
    alpha = config.alpha
    out = alpha * noise   # then in place: one [n,C,H,W] allocation, not three
    out += image
    out *= (uniforms < 1.0 - alpha)[:, None]
    return out
