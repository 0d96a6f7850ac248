"""End-to-end orchestration: explain one image, evaluate a manifest.

This is the glue the CLI calls; everything here is a thin composition of
the model, perturbation, scoring, and CAM modules.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import cam, layerscore, metrics
from .model import Model, check_images, forward, forward_trace
from .perturb import PerturbationConfig, generate_set
from .render import read_ppm


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


class UnknownLayerError(KeyError):
    """A requested layer is not one of the model's scoring points."""

    def __str__(self):
        return str(self.args[0])   # KeyError's own str would quote it


def _resolve_layers(model: Model, layers):
    points = model.spec.scoring_points
    if layers is None:
        return None
    resolved = []
    for name in layers:
        if name == "final":
            name = points[-1]
        if name not in points:
            raise UnknownLayerError(f"unknown scoring point {name!r} "
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
    weights when there is more than one. Either way the engine runs once.
    """
    layers = _resolve_layers(model, request.layers)
    image = check_images(model, image, ndims=(3,))
    _, in_h, in_w = model.spec.input_shape
    report = None
    if request.method == "icam" and layers is None:
        if perturb_config is None:
            perturb_config = PerturbationConfig()
        perturbed = generate_set(image, perturb_config)
        # row 0 is the image, rows 1..n its perturbations
        trace = forward_trace(model, np.concatenate([image[None], perturbed]),
                              class_index=class_index)
        y = trace.probabilities
        weights = metrics.perturbation_weight(image, perturbed, y[0], y[1:])
        report = layerscore.score_layers(trace, weights, threshold)
        layers, weights = report.selected, report.layer_weights
    else:
        trace = forward_trace(model, image, class_index=class_index)
        if layers is None:
            layers = [model.spec.scoring_points[-1]]
        weights = {name: 1.0 / len(layers) for name in layers}

    c = trace.class_index
    maps = {name: cam.single_layer_map(trace, request.method, name,
                                       request.effective_smooth, request.bias)
            for name in layers}
    fused = cam.fuse(maps, weights, in_h, in_w)
    return ExplainResult(fused, c, float(trace.probabilities[0, c]), report,
                         list(layers))


def sidecar_dict(result: ExplainResult, request: cam.CamRequest,
                 perturb_config: PerturbationConfig) -> dict:
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
                      ) -> dict:
    """Mean IoU and saliency over correct predictions, plus accuracy.

    IoU and saliency are computed only where argmax == label, matching the
    weak-localization protocol.
    """
    _, in_h, in_w = model.spec.input_shape
    _resolve_layers(model, request.layers)   # fail before any record is read
    ious, saliencies = [], []   # one entry per correct prediction
    for rec in records:
        image = image_from_rgb(read_ppm(rec["image"]))
        pred = int(np.argmax(forward(model, image)))
        if pred != rec["label"]:
            continue
        heat = explain(model, image, request, perturb_config, threshold,
                       class_index=pred).heatmap.values
        truth = bbox_mask(rec["bbox"], in_h, in_w)
        ious.append(metrics.iou(
            metrics.threshold_heatmap(heat, iou_threshold_frac), truth))
        saliencies.append(metrics.saliency_score(heat, truth))

    n_correct = len(ious)
    return {
        "records": len(records),
        "correct": n_correct,
        "accuracy": n_correct / len(records),
        "mean_iou": sum(ious) / n_correct if n_correct else 0.0,
        "mean_saliency": sum(saliencies) / n_correct if n_correct else 0.0,
        "iou_threshold_frac": iou_threshold_frac,
    }
