"""End-to-end orchestration: explain one image, evaluate a manifest.

The glue the CLI calls. An explain is the image's one trace
(`forward_trace`), then `layerscore.score_layers`, which scores the layers
for automatic I-CAM, then `explain_trace`, which maps and fuses them.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import cam, layerscore, metrics
from .model import (ForwardTrace, Model, check_images, forward, forward_trace,
                    is_integer)
from .render import read_ppm
from .tensor import ShapeError


@dataclass
class ExplainResult:
    heatmap: cam.Heatmap           # input resolution, min-max normalized
    class_index: int
    probability: float
    report: layerscore.LayerScoreReport  # None unless automatic icam
    layers: list                   # scoring points that fed the map
    zero_maps: list                # flat maps, which fuse's min-max zeroes


def image_from_rgb(rgb: np.ndarray) -> np.ndarray:
    """uint8 [H,W,3] -> float64 [3,H,W] in [0,1]."""
    return np.transpose(rgb.astype(np.float64) / 255.0, (2, 0, 1))


def read_image(model: Model, path):
    """A PPM as (uint8 [H,W,3], [C,H,W] image checked against `model`)."""
    rgb = read_ppm(path)
    try:
        return rgb, check_images(model, image_from_rgb(rgb), ndims=(3,))
    except ShapeError as exc:
        raise ShapeError(f"{path}: {exc}") from None


class UnknownLayerError(ValueError):
    """A requested layer is not one of the model's scoring points."""


def _resolve_layers(points, layers):
    """The named layers among `points`, each once ("final" = the last)."""
    if layers is None:
        return None
    resolved = []
    for name in layers:
        if name == "final":
            name = points[-1]
        if name not in points:
            raise UnknownLayerError(f"unknown scoring point {name!r} "
                                    f"(available: {', '.join(points)})")
        if name not in resolved:   # a repeat, e.g. "final", counts once
            resolved.append(name)
    return resolved


def explain(model: Model, image: np.ndarray, request: cam.CamRequest,
            class_index=None) -> ExplainResult:
    """The normalized input-resolution heatmap for one image: the layers are
    checked before `forward_trace`, then `layerscore.score_layers` and
    `explain_trace` run."""
    _resolve_layers(model.spec.scoring_points, request.layers)
    trace = forward_trace(model, image, class_index)
    return explain_trace(trace, request,
                         layerscore.score_layers(model, trace, request))


def explain_trace(trace: ForwardTrace, request: cam.CamRequest,
                  report: layerscore.LayerScoreReport = None) -> ExplainResult:
    """Map the request's layers from the image's `trace` and fuse them: for
    automatic I-CAM with `report`'s layer weights, else the named layers
    (default: the trace's last scoring point) equally, with no report."""
    if request.scores_layers:
        if report is None:
            raise ValueError("automatic I-CAM maps the layers of a report: "
                             "layerscore.score_layers makes it")
        weights = report.layer_weights
    else:
        points = list(trace.activations)
        layers = _resolve_layers(points, request.layers) or points[-1:]
        weights = {name: 1.0 / len(layers) for name in layers}
        report = None
    c = trace.class_index
    maps = {name: cam.single_layer_map(trace, request, name) for name in weights}
    fused = cam.fuse(maps, weights, *trace.image.shape[-2:])
    zero_maps = [name for name, m in maps.items() if m.max() == m.min()]
    return ExplainResult(fused, c, float(trace.probabilities[0, c]), report,
                         list(weights), zero_maps)


def sidecar_dict(result: ExplainResult, request: cam.CamRequest) -> dict:
    out = {
        "class": result.class_index,
        "probability": result.probability,
        "method": request.method,
        "smooth": request.smooth,
        "bias": request.bias,
        "layers": result.layers,
        "zero_maps": result.zero_maps,
    }
    report = result.report
    if report is not None:
        out["layer_scores"] = {
            "scores": {k: float(v) for k, v in report.scores.items()},
            "selected": list(report.layer_weights),
            "weights": {k: float(v) for k, v in report.layer_weights.items()},
            **{k: getattr(request, k) for k in cam.SCORER_DEFAULTS},
        }
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
    with open(path, "rb") as f:   # json.loads decodes each line's bytes
        for lineno, line in enumerate(f.read().splitlines(), start=1):
            if not line.strip():
                continue
            bad = f"malformed manifest line {lineno}"
            try:
                rec = json.loads(line)
                image, bbox, label = rec["image"], rec["bbox"], rec["label"]
            except (ValueError, KeyError, TypeError) as exc:
                raise ManifestError(f"{bad}: {exc}") from exc
            if not isinstance(image, str) or not image:
                raise ManifestError(
                    f"{bad}: image {image!r} is not a non-empty path string")
            if not is_integer(label):
                raise ManifestError(f"{bad}: label {label!r} is not an integer")
            if not (isinstance(bbox, list) and len(bbox) == 4
                    and all(is_integer(v) for v in bbox)):
                raise ManifestError(
                    f"{bad}: bbox {bbox!r} is not a list of 4 integers")
            x0, y0, x1, y1 = bbox
            if not (0 <= x0 <= x1 < in_w and 0 <= y0 <= y1 < in_h):
                raise ManifestError(f"{bad}: bbox {bbox} out of bounds")
            if not 0 <= label < num_classes:
                raise ManifestError(f"{bad}: label {label} out of range")
            records.append({"image": image, "bbox": (x0, y0, x1, y1),
                            "label": label})
    return records


def bbox_mask(bbox, h, w) -> np.ndarray:
    x0, y0, x1, y1 = bbox
    mask = np.zeros((h, w), dtype=np.uint8)
    mask[y0:y1 + 1, x0:x1 + 1] = 1
    return mask


def evaluate(model: Model, samples, request: cam.CamRequest,
             iou_threshold_frac: float = metrics.DEFAULT_THRESHOLD_FRAC) -> dict:
    """Accuracy over one or more (image, label, truth mask) samples, and mean
    IoU and saliency over those predicted right (weak localization): one
    `forward` each, and `explain` only where argmax == label. A correct
    sample whose scorer raises NoInformativeLayersError counts in
    no_informative_layers, not in the means. top_layers counts the layers
    that top automatic I-CAM's scores (None for any other request).
    """
    ious, saliencies = [], []   # one entry per explained sample
    records = zero_heatmaps = refused = 0
    top_layers = Counter() if request.scores_layers else None
    for records, (image, label, truth) in enumerate(samples, start=1):
        pred = int(np.argmax(forward(model, image)))
        if pred != label:
            continue
        try:
            result = explain(model, image, request, pred)
        except layerscore.NoInformativeLayersError:
            refused += 1
            continue
        heat = result.heatmap.values
        zero_heatmaps += not heat.any()
        ious.append(metrics.iou(
            metrics.threshold_heatmap(heat, iou_threshold_frac), truth))
        saliencies.append(metrics.saliency_score(heat, truth))
        if top_layers is not None:   # selection order: top score first
            top_layers[result.layers[0]] += 1
    n = len(ious)
    return {
        "records": records,
        "correct": n + refused,
        "accuracy": (n + refused) / records,
        "mean_iou": sum(ious) / n if n else 0.0,
        "mean_saliency": sum(saliencies) / n if n else 0.0,
        "iou_threshold_frac": iou_threshold_frac,
        "zero_heatmaps": zero_heatmaps,
        "no_informative_layers": refused,
        "top_layers": top_layers,
    }


def evaluate_manifest(model: Model, records, request: cam.CamRequest,
                      iou_threshold_frac: float = metrics.DEFAULT_THRESHOLD_FRAC,
                      ) -> dict:
    """`evaluate` over parsed manifest records, each truth its bbox's mask.
    The records, the fraction and an unknown layer are checked before any
    record is read, and every record's image before the first is predicted;
    each is read again in its turn, so one decoded image is held at a time.
    """
    if not records:
        raise ManifestError("empty manifest")
    metrics.check_frac(iou_threshold_frac)
    _, in_h, in_w = model.spec.input_shape
    _resolve_layers(model.spec.scoring_points, request.layers)
    for rec in records:
        read_image(model, rec["image"])
    return evaluate(model, ((read_image(model, rec["image"])[1], rec["label"],
                             bbox_mask(rec["bbox"], in_h, in_w))
                            for rec in records), request, iou_threshold_frac)
