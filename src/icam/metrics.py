"""Scalar measures: SSIM, SVIM, MDD/MDS, perturbation weights, IoU, saliency.

All functions are pure and operate on plain float64 arrays. SSIM, SVIM,
MDD/MDS and the perturbation weight reduce over trailing axes and
broadcast leading ones, so one call weighs a whole perturbation batch.
"""

from __future__ import annotations

import numpy as np

DEFAULT_C1 = 0.01 ** 2
DEFAULT_C2 = 0.03 ** 2
DEFAULT_SVIM_SIGMA = 0.15
DEFAULT_THRESHOLD_FRAC = 0.2
PROB_FLOOR = 1e-12


def ssim(x: np.ndarray, y: np.ndarray, c1: float = DEFAULT_C1,
         c2: float = DEFAULT_C2):
    """Global (whole-image) SSIM with population statistics.

    Images are [H,W] or [...,C,H,W]; for multi-channel images the
    per-channel values are averaged. Leading axes broadcast: an image
    against an [n,C,H,W] batch gives [n] values, a single pair a scalar.
    Values are expected in [0,1] (dynamic range 1) but this is not
    enforced.
    """
    # contiguous copies make the per-channel means sum in the same order
    # whatever the input layout (a transposed PPM image, say)
    x, y = (np.ascontiguousarray(a, dtype=np.float64) for a in (x, y))
    x, y = (a[None] if a.ndim == 2 else a for a in (x, y))
    if x.shape[-3:] != y.shape[-3:]:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    mx = x.mean(axis=(-2, -1), keepdims=True)
    my = y.mean(axis=(-2, -1), keepdims=True)
    vx = ((x - mx) ** 2).mean(axis=(-2, -1))
    vy = ((y - my) ** 2).mean(axis=(-2, -1))
    cov = ((x - mx) * (y - my)).mean(axis=(-2, -1))
    mx, my = mx[..., 0, 0], my[..., 0, 0]
    return (((2 * mx * my + c1) * (2 * cov + c2))
            / ((mx * mx + my * my + c1) * (vx + vy + c2))).mean(axis=-1)


def svim_of_ssim(s, sigma: float = DEFAULT_SVIM_SIGMA):
    """Gaussian transform exp(-(s - 0.5)^2 / (2 sigma^2)), peaking at s = 0.5."""
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    return np.exp(-((s - 0.5) ** 2) / (2.0 * sigma * sigma))


def svim(x: np.ndarray, y: np.ndarray, sigma: float = DEFAULT_SVIM_SIGMA):
    """Gaussian transform of SSIM peaking at SSIM = 0.5."""
    return svim_of_ssim(ssim(x, y), sigma)


def mdd(x: np.ndarray, y: np.ndarray):
    """Mean Difference Divergence: sum_k ((x_k - y_k)/2) ln(x_k / y_k).

    Sums over the last axis; leading axes broadcast. Entries are clamped
    to [1e-12, 1] before the logs. Equal to the symmetric KL divergence
    (KL(x,y) + KL(y,x)) / 2 in nats.
    """
    x, y = (np.clip(np.asarray(a, dtype=np.float64), PROB_FLOOR, 1.0)
            for a in (x, y))
    if x.shape[-1:] != y.shape[-1:]:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    # log(x) - log(y) rather than log(x/y): exact negation under argument
    # swap, which makes MDD (and MDS) bit-exactly symmetric
    return np.sum((x - y) / 2.0 * (np.log(x) - np.log(y)), axis=-1)


def mds(x: np.ndarray, y: np.ndarray):
    """Mean Difference Similarity: 1 - MDD, clamped to [0, 1]."""
    return np.clip(1.0 - mdd(x, y), 0.0, 1.0)


def perturbation_weight(image: np.ndarray, perturbed: np.ndarray,
                        probs: np.ndarray, probs_perturbed: np.ndarray,
                        sigma: float = DEFAULT_SVIM_SIGMA):
    """Geometric mean of SVIM(image, perturbed) and MDS(probs, probs').

    Leading axes broadcast: one image and its [n,C,H,W] perturbations with
    their [n,K] probabilities give the [n] weights.
    """
    return np.sqrt(svim(image, perturbed, sigma) * mds(probs, probs_perturbed))


def threshold_heatmap(h: np.ndarray, frac: float = DEFAULT_THRESHOLD_FRAC) -> np.ndarray:
    """Binary mask: 1 where h >= frac * max(h); all-zero maps give zeros."""
    h = np.asarray(h, dtype=np.float64)
    if not 0.0 < frac < 1.0:
        raise ValueError(f"frac must be in (0,1), got {frac}")
    peak = h.max()
    if peak <= 0.0:
        return np.zeros(h.shape, dtype=np.uint8)
    return (h >= frac * peak).astype(np.uint8)


def iou(a: np.ndarray, b: np.ndarray) -> float:
    """Intersection over union of two binary masks; 0 on empty union."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    a = a != 0
    b = b != 0
    union = np.logical_or(a, b).sum()
    if union == 0:
        return 0.0
    return float(np.logical_and(a, b).sum() / union)


def saliency_score(h: np.ndarray, bbox_mask: np.ndarray) -> float:
    """Fraction of heatmap mass inside the box mask; 0 when the map is empty."""
    h = np.asarray(h, dtype=np.float64)
    bbox_mask = np.asarray(bbox_mask)
    if h.shape != bbox_mask.shape:
        raise ValueError(f"shape mismatch: {h.shape} vs {bbox_mask.shape}")
    total = h.sum()
    if total == 0.0:
        return 0.0
    return float((h * (bbox_mask != 0)).sum() / total)
