"""Known-answer oracle whose right layer is deep: a conjunction of colors.

`conjunction_model(gain)` reads class k only where color k lies directly
left of color j = (k + 1) mod 5, and each sample holds one 8x8 square of
the two colors beside one square of each color alone (`tests/oracles.py`).
block1 sees each color alone, so it cannot tell the square from the
distractors; block2 is the first block that sees the evidence, the strip
where the two colors meet. `pipeline.evaluate`'s IoU at eval's 0.2
threshold against that strip measures a heatmap. Grad-CAM and LayerCAM at
block2 must clearly beat a random heatmap there. Each block's Grad-CAM
IoU, I-CAM's results and the scorer's top layers are pinned as they come
out today, failures included, as in `test_planted.py`.
"""

import numpy as np
import pytest

from icam import cam, pipeline
from icam.model import forward, forward_trace, input_gradient
from oracles import conjunction_model, conjunction_samples, random_heatmap_iou

GAINS = (60, 200)   # median top probability ~0.23 and ~0.31


@pytest.fixture(scope="module")
def samples():
    return conjunction_samples(0, 50)


@pytest.mark.parametrize("gain", GAINS)
def test_every_sample_is_classified(samples, gain):
    logits = forward(conjunction_model(gain), np.stack([s[0] for s in samples]))
    assert np.argmax(logits, axis=-1).tolist() == [s[1] for s in samples]


@pytest.mark.parametrize("gain", GAINS)
def test_input_gradient_lies_in_the_strip(samples, gain):
    model = conjunction_model(gain)
    for image, _, mask in samples:
        grad = input_gradient(model, forward_trace(model, image))
        support = np.abs(grad).sum(axis=0) > 0
        assert support.any()
        assert not (support & (mask == 0)).any()


@pytest.mark.parametrize("method", ["gradcam", "layercam"])
@pytest.mark.parametrize("gain", GAINS)
def test_block2_maps_beat_random_heatmap(samples, gain, method):
    summary = pipeline.evaluate(conjunction_model(gain), samples,
                                cam.CamRequest(method, layers=("block2",)))
    assert summary["mean_iou"] >= random_heatmap_iou(samples) + 0.4


# gain 60, each block's Grad-CAM map alone: block1 lights every square of
# both colors, block2 the strip, block3 the strip blurred
LAYER_IOU_PINS = {"block1": 0.16666666666666674, "block2": 0.6646052631578947,
                  "block3": 0.47411764705882303}


@pytest.mark.parametrize("layer", sorted(LAYER_IOU_PINS))
def test_single_layer_gradcam_pinned(samples, layer):
    summary = pipeline.evaluate(conjunction_model(60), samples,
                                cam.CamRequest("gradcam", layers=(layer,)))
    assert abs(summary["mean_iou"] - LAYER_IOU_PINS[layer]) < 1e-9


# (gain, smooth, bias) -> (NoInformativeLayersError count, mean IoU over the
# rest, how often each layer tops the scorer). The scorer ranks block1, which
# cannot see the evidence, first on most samples; the default request's map
# leaves the strip at gain 200, where exp/none keeps it.
ICAM_PINS = {
    (60, "softmax", "channel"): (0, 0.6646052631578948,
                                 {"block1": 46, "block2": 4}),
    (60, "exp", "none"): (0, 0.6512096908939015,
                          {"block1": 46, "block2": 4}),
    (200, "softmax", "channel"): (0, 0.21406912144702844,
                                  {"block1": 41, "block2": 9}),
    (200, "exp", "none"): (0, 0.6508648135490241,
                           {"block1": 41, "block2": 9}),
}


@pytest.mark.parametrize("gain, smooth, bias", sorted(ICAM_PINS))
def test_icam_pinned(samples, gain, smooth, bias):
    summary = pipeline.evaluate(
        conjunction_model(gain), samples,
        cam.CamRequest("icam", smooth=smooth, bias=bias))
    pinned_errors, pinned_iou, pinned_tops = ICAM_PINS[gain, smooth, bias]
    assert summary["no_informative_layers"] == pinned_errors
    assert abs(summary["mean_iou"] - pinned_iou) < 1e-9
    assert summary["top_layers"] == pinned_tops
