"""Per-layer importance scoring and the layer plan: selection and weights.

A layer's score is the perturbation-weighted L2 distance between the
input-gradient saliency magnitude map and the layer's gradient-weighted
activation magnitude map (upsampled to input resolution). Scoring reads
the image's saliency I * dY^c/dI, which the pipeline walks from the
image's trace, and each perturbation's map, made from its block's trace as
the block is traced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cam import SCORER_DEFAULTS, CamRequest
from .model import ForwardTrace
from .render import bilinear_resize


class NoInformativeLayersError(ValueError):
    """Every layer scored zero: a saturated softmax has zero gradients, and
    all-zero perturbation weights (MDS clamped to 0) zero every score."""


@dataclass
class LayerScoreReport:
    scores: dict          # layer name -> S_l, in declaration order
    perturbation_weights: np.ndarray  # [n], one per perturbation
    layer_weights: dict   # selected layer name -> W_l, in selection order
    request: CamRequest   # the scoring request that made the report

    def to_json_dict(self):
        return {
            "scores": {k: float(v) for k, v in self.scores.items()},
            "selected": list(self.layer_weights),
            "weights": {k: float(v) for k, v in self.layer_weights.items()},
            **{k: getattr(self.request, k) for k in SCORER_DEFAULTS},
        }


def phi(trace: ForwardTrace, layer: str) -> np.ndarray:
    """Gradient-weighted activation relu(A * G) at a scoring point."""
    return np.maximum(trace.activations[layer] * trace.gradients[layer], 0.0)


def channel_norm_map(t: np.ndarray) -> np.ndarray:
    """Per-pixel Euclidean magnitude across the channel axis (-3)."""
    t = np.asarray(t, dtype=np.float64)
    return np.sqrt((t * t).sum(axis=-3))


def perturbation_maps(trace: ForwardTrace) -> dict:
    """The [B,H_l,W_l] channel magnitude of phi at every scoring point of a
    block of perturbation rows."""
    return {layer: channel_norm_map(phi(trace, layer))
            for layer in trace.activations}


def layer_importance(saliency: np.ndarray, maps: dict, weights) -> dict:
    """Importance score per scoring point.

    S_l = sum_i w_i * || R - up(P_{i,l}) ||_2 over pixels, where R is the
    channel magnitude of the image's [C,H,W] `saliency` I * dY^c/dI and
    maps[l] stacks the [n,H_l,W_l] maps P_{i,l} of the perturbations
    i = 1..n. Each layer's distances are summed over the whole stack in one
    call, so the scores do not depend on how the perturbations were traced.
    """
    weights = np.asarray(weights, dtype=np.float64)
    rows = {len(p) for p in maps.values()}
    if len(weights) < 1 or rows != {len(weights)}:
        raise ValueError(f"need one weight per perturbed row, at least one: "
                         f"got {sorted(rows)} rows, {len(weights)} weights")

    ref = channel_norm_map(saliency)
    scores = {}
    for layer, p in maps.items():
        p = bilinear_resize(p, *ref.shape)
        scores[layer] = float(weights @ np.sqrt(((ref - p) ** 2).sum(axis=(1, 2))))
    return scores


def select_layers(scores: dict, threshold: float) -> dict:
    """The layer plan {name: W_l = S_l / cum} over the minimal descending-score
    prefix whose cumulative sum `cum` reaches T * total, in selection order.
    Ties sort stably by declaration order of the scores mapping. The
    threshold's (0,1] range is checked by CamRequest."""
    total = sum(scores.values())
    if total <= 0.0:
        raise NoInformativeLayersError("no informative layers: all scores "
                                       "are zero; name the layers to map")
    ranked = sorted(scores, key=lambda n: -scores[n])  # stable for ties
    selected = []
    cum = 0.0
    for name in ranked:
        selected.append(name)
        cum += scores[name]
        if cum >= threshold * total:
            break
    return {n: scores[n] / cum for n in selected}


def score_layers(saliency: np.ndarray, maps: dict, weights,
                 request: CamRequest) -> LayerScoreReport:
    """Score, select and weigh the layers from an image's `saliency` and its
    perturbations' stacked `maps`, made with the scoring `request`, at its
    threshold."""
    if not np.any(weights):   # every score would be zero: score nothing
        raise NoInformativeLayersError(
            "no informative layers: every perturbation weight is zero (MDS "
            "clamps to 0 once a perturbation moves the prediction by >= 1 "
            "nat); name the layers to map")
    scores = layer_importance(saliency, maps, weights)
    return LayerScoreReport(
        scores=scores,
        perturbation_weights=np.asarray(weights, dtype=np.float64),
        layer_weights=select_layers(scores, request.threshold),
        request=request,
    )
