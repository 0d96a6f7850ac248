"""Known-answer oracle: a model whose evidence is planted by construction.

`planted_model(gain)` reads class k only from pixels of color k, and each
sample holds one 8x8 square of its class's color (`tests/oracles.py`). So
a right heatmap sits on the square, and IoU at eval's 0.2 threshold
against the square's bbox measures it. The Grad-CAM family must clearly
beat a random heatmap there. I-CAM's results are pinned as they come out
today, failures included, so that a change to its bias or smooth shows
up here as a diff.
"""

import numpy as np
import pytest

from icam import cam, layerscore, metrics, pipeline
from icam.model import forward, forward_trace
from icam.prng import SplitMix64
from oracles import planted_model, planted_samples

GAINS = (60, 200)   # top probability ~0.61 and ~0.99


@pytest.fixture(scope="module")
def samples():
    return planted_samples(0, 50)


def _iou(heat, mask):
    return metrics.iou(metrics.threshold_heatmap(heat), mask)


@pytest.fixture(scope="module")
def random_iou(samples):
    rng = SplitMix64(1)
    return np.mean([_iou(rng.uniform_array(32 * 32).reshape(32, 32), mask)
                    for _, _, mask in samples])


@pytest.mark.parametrize("gain", GAINS)
def test_every_sample_is_classified(samples, gain):
    logits = forward(planted_model(gain), np.stack([s[0] for s in samples]))
    assert np.argmax(logits, axis=-1).tolist() == [s[1] for s in samples]


@pytest.mark.parametrize("method", ["gradcam", "gradcampp", "layercam"])
@pytest.mark.parametrize("gain", GAINS)
def test_gradcam_family_beats_random_heatmap(samples, random_iou, gain,
                                             method):
    model, request = planted_model(gain), cam.CamRequest(method)
    mean_iou = np.mean([
        _iou(pipeline.explain(model, image, request).heatmap.values, mask)
        for image, _, mask in samples])
    assert mean_iou >= random_iou + 0.4


# (gain, bias) -> (NoInformativeLayersError count, mean IoU over the rest),
# default softmax smooth. At gain 200 every perturbation moves the
# prediction by >= 1 nat on 20 samples, and on the other 30 the softmax's
# f'' < 0 flips alpha's sign: `none` maps are all zero, `channel` maps
# miss the square.
ICAM_PINS = {
    (60, "channel"): (0, 0.8040021338033222),
    (60, "none"): (0, 0.8040021338033222),
    (200, "channel"): (20, 0.054850260416666664),
    (200, "none"): (20, 0.0),
}


@pytest.mark.parametrize("gain, bias", sorted(ICAM_PINS))
def test_icam_pinned(samples, gain, bias):
    model, request = planted_model(gain), cam.CamRequest("icam", bias=bias)
    errors, ious = 0, []
    for image, _, mask in samples:
        try:
            heat = pipeline.explain(model, image, request).heatmap.values
        except layerscore.NoInformativeLayersError:
            errors += 1
            continue
        ious.append(_iou(heat, mask))
    pinned_errors, pinned_iou = ICAM_PINS[gain, bias]
    assert errors == pinned_errors
    assert abs(sum(ious) / len(ious) - pinned_iou) < 1e-9


# gain 60: each block holds the same evidence, blurred more at each block,
# so block1's Grad-CAM map alone finds every square
LAYER_IOU_PINS = {"block1": 1.0, "block2": 0.6955268113263995,
                  "block3": 0.5840883046097485}


def test_scorer_ranking_against_per_layer_faithfulness(samples):
    """Each block's single-layer Grad-CAM IoU, and how often the default
    scorer's top-scored layer is a block with the best of them. Pinned as
    they come out today: block2 tops the scores on 29 images, and its map
    is never the best, so the top layer is a best one on 21 of 50."""
    model = planted_model(60)
    ious = {name: [] for name in LAYER_IOU_PINS}
    tops, hits = [], 0
    for image, _, mask in samples:
        for name in LAYER_IOU_PINS:
            request = cam.CamRequest("gradcam", layers=(name,))
            heat = pipeline.explain(model, image, request).heatmap.values
            ious[name].append(_iou(heat, mask))
        report = pipeline.score(model, forward_trace(model, image),
                                cam.CamRequest("icam"))
        top = max(report.scores, key=report.scores.get)
        tops.append(top)
        hits += ious[top][-1] == max(v[-1] for v in ious.values())
    for name, pinned in LAYER_IOU_PINS.items():
        assert abs(np.mean(ious[name]) - pinned) < 1e-9
    assert hits == 21
    assert tops.count("block2") == 29
