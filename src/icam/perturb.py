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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .prng import SplitMix64

DEFAULT_N = 8
DEFAULT_ALPHA = 0.4
DEFAULT_THRESHOLD = 0.95


@dataclass(frozen=True)
class PerturbationConfig:
    """The layer scorer's settings: n perturbations of strength alpha drawn
    from seed, and the cumulative layer-score threshold T."""
    n: int = DEFAULT_N
    alpha: float = DEFAULT_ALPHA
    seed: int = 42
    threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0,1], got {self.alpha}")
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError(f"threshold must be in (0,1], got {self.threshold}")


@lru_cache(maxsize=1)
def _draws(seed: int, n: int, shape: tuple) -> tuple:
    """Read-only raw noise [n,C,H,W] and uniforms [n,H,W] of SplitMix64(seed).

    Per perturbation, all C*H*W Gaussian values are drawn first (row-major
    over channels, then rows, then columns), then one uniform per spatial
    position.
    """
    c, h, w = shape
    rng = SplitMix64(seed)
    noise = np.empty((n, c, h, w))
    uniforms = np.empty((n, h, w))
    for i in range(n):
        noise[i] = rng.gaussian_array(c * h * w).reshape(c, h, w)
        uniforms[i] = rng.uniform_array(h * w).reshape(h, w)
    noise.flags.writeable = False
    uniforms.flags.writeable = False
    return noise, uniforms


def generate_set(image: np.ndarray, config: PerturbationConfig) -> np.ndarray:
    """n perturbations from a single stream seeded by config.seed.

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
