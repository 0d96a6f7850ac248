"""Image perturbation: Gaussian noise plus Bernoulli pixel masking.

A perturbed image is (I + alpha * N) * M where N is standard Gaussian per
element and M is a per-pixel Bernoulli(1 - alpha) mask shared across all
channels. The result is deliberately not clamped to [0,1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prng import SplitMix64

DEFAULT_N = 8
DEFAULT_ALPHA = 0.4


@dataclass(frozen=True)
class PerturbationConfig:
    n: int = DEFAULT_N
    alpha: float = DEFAULT_ALPHA
    seed: int = 42

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0,1], got {self.alpha}")


def perturb_image(image: np.ndarray, alpha: float, rng: SplitMix64) -> np.ndarray:
    """One perturbation draw from a shared Prng stream.

    All C*H*W noise values are drawn first (row-major over channels, then
    rows, then columns), then one mask value per spatial position.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0,1], got {alpha}")
    image = np.asarray(image, dtype=np.float64)
    c, h, w = image.shape
    noise = rng.gaussian_array(c * h * w).reshape(c, h, w)
    mask = (rng.uniform_array(h * w) < 1.0 - alpha).reshape(h, w)
    return (image + alpha * noise) * mask[None, :, :]


def generate_set(image: np.ndarray, config: PerturbationConfig) -> np.ndarray:
    """n perturbations from a single stream seeded by config.seed.

    Returns a float64 [n, C, H, W] array; perturbation i is the i-th
    perturb_image draw from SplitMix64(config.seed).
    """
    image = np.asarray(image, dtype=np.float64)
    rng = SplitMix64(config.seed)
    out = np.empty((config.n,) + image.shape)
    for i in range(config.n):
        out[i] = perturb_image(image, config.alpha, rng)
    return out
