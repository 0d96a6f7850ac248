"""End-to-end orchestration: explain one image, evaluate a manifest.

This is the glue the CLI calls; everything here is a thin composition of
the model, perturbation, scoring, and CAM modules.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import cam, layerscore, metrics
from .model import Model, forward, forward_trace
from .perturb import PerturbationConfig, generate_set


@dataclass
class ExplainResult:
    heatmap: cam.Heatmap           # input resolution, min-max normalized
    class_index: int
    probability: float
    report: layerscore.LayerScoreReport  # None unless automatic icam
    layers: list                   # scoring points that fed the map


def image_from_rgb(rgb: np.ndarray) -> np.ndarray:
    """uint8 [H,W,3] -> float64 [3,H,W] in [0,1]."""
    return np.transpose(rgb.astype(np.float64) / 255.0, (2, 0, 1))


def _resolve_layers(model: Model, layers):
    points = model.spec.scoring_points
    if layers is None:
        return None
    resolved = []
    for name in layers:
        if name == "final":
            name = points[-1]
        if name not in points:
            raise KeyError(f"unknown scoring point {name!r} "
                           f"(available: {', '.join(points)})")
        resolved.append(name)
    return resolved


def explain(model: Model, image: np.ndarray, request: cam.CamRequest,
            perturb_config: PerturbationConfig = None,
            threshold: float = layerscore.DEFAULT_THRESHOLD,
            class_index=None) -> ExplainResult:
    """Compute the normalized input-resolution heatmap for one image.

    I-CAM without an explicit layer list runs the full perturbation +
    layer-scoring pipeline; every other configuration maps the requested
    layers (default: the final scoring point) and fuses them with equal
    weights when there is more than one.
    """
    image = np.asarray(image, dtype=np.float64)
    _, in_h, in_w = model.spec.input_shape
    trace = forward_trace(model, image, class_index=class_index,
                          scalar_kind="logit")
    c = trace.class_index

    layers = _resolve_layers(model, request.layers)
    report = None
    if request.method == "icam" and layers is None:
        if perturb_config is None:
            perturb_config = PerturbationConfig()
        perturbed = generate_set(image, perturb_config)
        prob_trace, *traces = forward_trace(
            model, np.concatenate([image[None], perturbed]), class_index=c,
            scalar_kind="probability")
        weights = [
            metrics.perturbation_weight(image, p, prob_trace.probabilities,
                                        tr.probabilities)
            for p, tr in zip(perturbed, traces)
        ]
        report = layerscore.score_layers(prob_trace, traces, weights,
                                         threshold)
        layers = report.selected
        weights = report.layer_weights
    else:
        if layers is None:
            layers = [model.spec.scoring_points[-1]]
        weights = {name: 1.0 / len(layers) for name in layers}

    maps = {name: cam.single_layer_map(trace, request.method, name,
                                       request.effective_smooth, request.bias)
            for name in layers}
    fused = cam.fuse(maps, weights, in_h, in_w)
    prob = float(trace.probabilities[c])
    return ExplainResult(fused, c, prob, report, list(layers))


def sidecar_dict(result: ExplainResult, request: cam.CamRequest,
                 perturb_config: PerturbationConfig,
                 threshold: float) -> dict:
    out = {
        "class": result.class_index,
        "probability": result.probability,
        "method": request.method,
        "smooth": request.effective_smooth,
        "bias": request.bias,
        "layers": result.layers,
    }
    if result.report is not None:
        out["layer_scores"] = result.report.to_json_dict(
            n=perturb_config.n, alpha=perturb_config.alpha,
            seed=perturb_config.seed)
    return out


# ---------------------------------------------------------------------------
# manifest evaluation
# ---------------------------------------------------------------------------

class ManifestError(ValueError):
    pass


def parse_manifest(path, input_shape, num_classes) -> list:
    """JSON-lines records {"image": path, "bbox": [x0,y0,x1,y1], "label": int}."""
    _, in_h, in_w = input_shape
    records = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                image, bbox, label = rec["image"], rec["bbox"], rec["label"]
                x0, y0, x1, y1 = (int(v) for v in bbox)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ManifestError(f"malformed manifest line {lineno}: {exc}") from exc
            if not (0 <= x0 <= x1 < in_w and 0 <= y0 <= y1 < in_h):
                raise ManifestError(
                    f"malformed manifest line {lineno}: bbox {bbox} out of bounds")
            if not 0 <= int(label) < num_classes:
                raise ManifestError(
                    f"malformed manifest line {lineno}: label {label} out of range")
            records.append({"image": image, "bbox": (x0, y0, x1, y1),
                            "label": int(label)})
    if not records:
        raise ManifestError("empty manifest")
    return records


def bbox_mask(bbox, h, w) -> np.ndarray:
    x0, y0, x1, y1 = bbox
    mask = np.zeros((h, w), dtype=np.uint8)
    mask[y0:y1 + 1, x0:x1 + 1] = 1
    return mask


def evaluate_manifest(model: Model, records, request: cam.CamRequest,
                      perturb_config: PerturbationConfig,
                      threshold: float = layerscore.DEFAULT_THRESHOLD,
                      iou_threshold_frac: float = metrics.DEFAULT_THRESHOLD_FRAC,
                      load_image=None) -> dict:
    """Mean IoU and saliency over correct predictions, plus accuracy.

    IoU and saliency are computed only where argmax == label, matching the
    weak-localization protocol.
    """
    if load_image is None:
        from .render import read_ppm

        def load_image(p):
            return image_from_rgb(read_ppm(p))

    _, in_h, in_w = model.spec.input_shape

    def process(rec):
        image = load_image(rec["image"])
        pred = int(np.argmax(forward(model, image)))
        if pred != rec["label"]:
            return {"correct": False}
        result = explain(model, image, request, perturb_config, threshold,
                         class_index=pred)
        mask = metrics.threshold_heatmap(result.heatmap.values,
                                         iou_threshold_frac)
        truth = bbox_mask(rec["bbox"], in_h, in_w)
        return {
            "correct": True,
            "iou": metrics.iou(mask, truth),
            "saliency": metrics.saliency_score(result.heatmap.values, truth),
        }

    outcomes = [process(r) for r in records]

    correct = [o for o in outcomes if o["correct"]]
    n_total, n_correct = len(outcomes), len(correct)
    return {
        "records": n_total,
        "correct": n_correct,
        "accuracy": n_correct / n_total,
        "mean_iou": (sum(o["iou"] for o in correct) / n_correct
                     if n_correct else 0.0),
        "mean_saliency": (sum(o["saliency"] for o in correct) / n_correct
                          if n_correct else 0.0),
        "iou_threshold_frac": iou_threshold_frac,
    }
