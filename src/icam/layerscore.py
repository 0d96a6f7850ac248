"""Per-layer importance scoring, redundant-layer filtering, layer weights.

A layer's score is the perturbation-weighted L2 distance between the
input-gradient saliency magnitude map and the layer's gradient-weighted
activation magnitude map (upsampled to input resolution).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .model import ForwardTrace
from .render import bilinear_resize

DEFAULT_THRESHOLD = 0.95


@dataclass
class LayerScoreReport:
    scores: dict          # layer name -> S_l, in declaration order
    perturbation_weights: list
    selected: list        # ordered subset of layer names
    layer_weights: dict   # layer name -> W_l over the selection
    threshold: float

    def to_json_dict(self, n=None, alpha=None, seed=None):
        out = {
            "scores": {k: float(v) for k, v in self.scores.items()},
            "selected": list(self.selected),
            "weights": {k: float(v) for k, v in self.layer_weights.items()},
            "threshold": self.threshold,
        }
        if n is not None:
            out["n"] = n
        if alpha is not None:
            out["alpha"] = alpha
        if seed is not None:
            out["seed"] = seed
        return out

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_json_dict(**kwargs), sort_keys=True, indent=2)


def phi(trace: ForwardTrace, layer: str) -> np.ndarray:
    """Gradient-weighted activation relu(A * G) at a scoring point."""
    if layer not in trace.activations:
        raise KeyError(f"unknown scoring point {layer!r}")
    return np.maximum(trace.activations[layer] * trace.gradients[layer], 0.0)


def channel_norm_map(t: np.ndarray) -> np.ndarray:
    """Per-pixel Euclidean magnitude across the channel dimension."""
    t = np.asarray(t, dtype=np.float64)
    return np.sqrt((t * t).sum(axis=0))


def layer_importance(trace_orig: ForwardTrace, traces_pert, weights) -> dict:
    """Importance score per scoring point.

    S_l = sum_i w_i * || R - up(P_{i,l}) ||_2 over pixels, where R is the
    channel magnitude of I * dO/dI and P_{i,l} the channel magnitude of
    phi for perturbed trace i at layer l.
    """
    if len(traces_pert) != len(weights):
        raise ValueError(
            f"length mismatch: {len(traces_pert)} traces vs {len(weights)} weights")
    if len(traces_pert) < 1:
        raise ValueError("need at least one perturbed trace")

    ref = channel_norm_map(trace_orig.image * trace_orig.input_gradient)
    out_h, out_w = ref.shape
    scores = {}
    for layer in trace_orig.activations:
        p = np.stack([channel_norm_map(phi(tr, layer)) for tr in traces_pert])
        if p.shape[1:] != ref.shape:
            p = bilinear_resize(p, out_h, out_w)
        s = 0.0
        # accumulate in perturbation-index order for bit-exact determinism
        for w_i, p_i in zip(weights, p):
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
        raise ValueError("no informative layers: all scores are zero")
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
        raise ValueError("selected scores sum to zero")
    return {n: scores[n] / total for n in selected}


def score_layers(trace_orig: ForwardTrace, traces_pert, weights,
                 threshold: float = DEFAULT_THRESHOLD) -> LayerScoreReport:
    scores = layer_importance(trace_orig, traces_pert, weights)
    selected = filter_layers(scores, threshold)
    return LayerScoreReport(
        scores=scores,
        perturbation_weights=list(weights),
        selected=selected,
        layer_weights=layer_weights(scores, selected),
        threshold=threshold,
    )
