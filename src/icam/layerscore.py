"""Per-layer importance scoring, redundant-layer filtering, layer weights.

A layer's score is the perturbation-weighted L2 distance between the
input-gradient saliency magnitude map and the layer's gradient-weighted
activation magnitude map (upsampled to input resolution). Scoring reads
one trace of [image; perturbations]: the image's input gradient and the
probability gradients of rows 1..n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ForwardTrace
from .render import bilinear_resize

DEFAULT_THRESHOLD = 0.95


class NoInformativeLayersError(ValueError):
    """Every layer scored zero (a saturated softmax has zero gradients)."""


@dataclass
class LayerScoreReport:
    scores: dict          # layer name -> S_l, in declaration order
    perturbation_weights: np.ndarray  # [n], one per perturbation
    selected: list        # ordered subset of layer names
    layer_weights: dict   # layer name -> W_l over the selection
    threshold: float

    def to_json_dict(self, n, alpha, seed):
        return {
            "scores": {k: float(v) for k, v in self.scores.items()},
            "selected": list(self.selected),
            "weights": {k: float(v) for k, v in self.layer_weights.items()},
            "threshold": self.threshold,
            "n": n,
            "alpha": alpha,
            "seed": seed,
        }


def phi(trace: ForwardTrace, layer: str) -> np.ndarray:
    """Gradient-weighted activation relu(A * G) at a scoring point."""
    return np.maximum(trace.activations[layer] * trace.gradients[layer], 0.0)


def channel_norm_map(t: np.ndarray) -> np.ndarray:
    """Per-pixel Euclidean magnitude across the channel axis (-3)."""
    t = np.asarray(t, dtype=np.float64)
    return np.sqrt((t * t).sum(axis=-3))


def layer_importance(trace: ForwardTrace, weights) -> dict:
    """Importance score per scoring point.

    S_l = sum_i w_i * || R - up(P_{i,l}) ||_2 over pixels, where R is the
    channel magnitude of I * dY^c/dI for the image (row 0) and P_{i,l} the
    channel magnitude of phi for perturbation row i (i = 1..n) at layer l.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if len(weights) < 1 or len(weights) != len(trace.image) - 1:
        raise ValueError(f"need one weight per perturbed row, at least one: "
                         f"got {len(trace.image) - 1} rows, {len(weights)} weights")

    ref = channel_norm_map(trace.image[0] * trace.input_gradient)
    out_h, out_w = ref.shape
    scores = {}
    for layer in trace.activations:
        p = bilinear_resize(channel_norm_map(phi(trace, layer)[1:]),
                            out_h, out_w)
        s = 0.0
        # accumulate in perturbation-index order for bit-exact determinism
        for w_i, p_i in zip(weights.tolist(), p):
            s += w_i * float(np.sqrt(((ref - p_i) ** 2).sum()))
        scores[layer] = s
    return scores


def filter_layers(scores: dict, threshold: float = DEFAULT_THRESHOLD) -> list:
    """Minimal descending-score prefix whose cumulative sum reaches T * total.

    Ties sort stably by declaration order of the scores mapping.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0,1], got {threshold}")
    names = list(scores)
    total = sum(scores[n] for n in names)
    if total <= 0.0:
        raise NoInformativeLayersError("no informative layers: all scores "
                                       "are zero; name the layers to map")
    ranked = sorted(names, key=lambda n: -scores[n])  # stable for ties
    selected = []
    cum = 0.0
    for name in ranked:
        selected.append(name)
        cum += scores[name]
        if cum >= threshold * total:
            break
    return selected


def layer_weights(scores: dict, selected) -> dict:
    """W_l = S_l / sum of selected scores, over the selection."""
    if not selected:
        raise ValueError("empty selection")
    total = sum(scores[n] for n in selected)
    if total <= 0.0:
        raise NoInformativeLayersError("selected scores sum to zero")
    return {n: scores[n] / total for n in selected}


def score_layers(trace: ForwardTrace, weights,
                 threshold: float = DEFAULT_THRESHOLD) -> LayerScoreReport:
    """Score, filter and weight the layers of an image's perturbation trace."""
    scores = layer_importance(trace, weights)
    selected = filter_layers(scores, threshold)
    return LayerScoreReport(
        scores=scores,
        perturbation_weights=np.asarray(weights, dtype=np.float64),
        selected=selected,
        layer_weights=layer_weights(scores, selected),
        threshold=threshold,
    )
