"""Seeded benchmark inputs: 3x32x32 images from three content families.

Only `numpy.random.Generator.random` and `.uniform` are used, so one seed
gives the same images on every numpy release that keeps those streams.
Every image lies in [0, 1], like an image read from a PPM.
"""

from __future__ import annotations

import numpy as np

SIZE = 32
FAMILIES = ("noise", "gradient", "blob")
N_IMAGES = 9          # 3 per family; coprime with the 4 single-layer methods
N_EVAL_RECORDS = 4    # records alternate: predicted correctly, mispredicted

_YY, _XX = np.mgrid[0:SIZE, 0:SIZE].astype(np.float64)


def _noise(rng):
    lo, hi = np.sort(rng.random(2))
    return lo + (hi - lo) * rng.random((3, SIZE, SIZE)), None


def _gradient(rng):
    a, b = rng.uniform(-1.0, 1.0, 2)
    ramp = a * _XX + b * _YY
    ramp = (ramp - ramp.min()) / max(float(np.ptp(ramp)), 1e-12)
    c0, c1 = rng.random(3), rng.random(3)
    return c0[:, None, None] + (c1 - c0)[:, None, None] * ramp[None], None


def _blob(rng):
    cy, cx = rng.uniform(6.0, 26.0, 2)
    sigma = rng.uniform(2.0, 6.0)
    bg = rng.uniform(0.0, 0.35, 3)
    fg = rng.uniform(0.75, 1.0, 3)
    g = np.exp(-((_YY - cy) ** 2 + (_XX - cx) ** 2) / (2.0 * sigma * sigma))
    r = 1.5 * sigma
    bbox = (max(0, int(cx - r)), max(0, int(cy - r)),
            min(SIZE - 1, int(cx + r)), min(SIZE - 1, int(cy + r)))
    return bg[:, None, None] + (fg - bg)[:, None, None] * g[None], bbox


_MAKERS = {"noise": _noise, "gradient": _gradient, "blob": _blob}


def _draw(rng, i):
    image, bbox = _MAKERS[FAMILIES[i % len(FAMILIES)]](rng)
    if bbox is None:
        x0, y0 = (int(v) for v in rng.uniform(0, SIZE // 2, 2))
        w, h = (int(v) for v in rng.uniform(4, SIZE // 2, 2))
        bbox = (x0, y0, min(SIZE - 1, x0 + w), min(SIZE - 1, y0 + h))
    return np.clip(image, 0.0, 1.0), bbox


def images(seed: int) -> list:
    """N_IMAGES float64 [3,32,32] images, families in rotation."""
    rng = np.random.default_rng([seed, 0])
    return [_draw(rng, i)[0] for i in range(N_IMAGES)]


def eval_images(seed: int) -> list:
    """N_EVAL_RECORDS (uint8 [32,32,3] rgb, inclusive bbox) pairs."""
    rng = np.random.default_rng([seed, 1])
    out = []
    for i in range(N_EVAL_RECORDS):
        image, bbox = _draw(rng, i)
        rgb = np.rint(np.transpose(image, (1, 2, 0)) * 255.0).astype(np.uint8)
        out.append((rgb, bbox))
    return out

