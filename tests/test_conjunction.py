"""Known-answer oracle whose right layer is deep: a conjunction of colors.

`conjunction_model(gain)` reads class k only where color k lies directly
left of color j = (k + 1) mod 5, and each sample holds one 8x8 square of
the two colors beside one square of each color alone (`tests/oracles.py`).
block1 sees each color alone, so it cannot tell the square from the
distractors; block2 is the first block that sees the evidence, the strip
where the two colors meet. IoU at eval's 0.2 threshold against that strip
measures a heatmap. Grad-CAM and LayerCAM at block2 must clearly beat a
random heatmap there. I-CAM's results and the scorer's top layers are
pinned as they come out today, failures included, as in `test_planted.py`.
"""

from collections import Counter

import numpy as np
import pytest

from icam import cam, layerscore, metrics, pipeline
from icam.model import forward, forward_trace, input_gradient
from icam.prng import SplitMix64
from oracles import conjunction_model, conjunction_samples

GAINS = (60, 200)   # median top probability ~0.23 and ~0.31


@pytest.fixture(scope="module")
def samples():
    return conjunction_samples(0, 50)


def _iou(heat, mask):
    return metrics.iou(metrics.threshold_heatmap(heat), mask)


@pytest.fixture(scope="module")
def random_iou(samples):
    rng = SplitMix64(1)
    return np.mean([_iou(rng.uniform_array(32 * 32).reshape(32, 32), mask)
                    for _, _, mask in samples])


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
def test_block2_maps_beat_random_heatmap(samples, random_iou, gain, method):
    model = conjunction_model(gain)
    request = cam.CamRequest(method, layers=("block2",))
    mean_iou = np.mean([
        _iou(pipeline.explain(model, image, request).heatmap.values, mask)
        for image, _, mask in samples])
    assert mean_iou >= random_iou + 0.4


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
    model = conjunction_model(gain)
    request = cam.CamRequest("icam", smooth=smooth, bias=bias)
    errors, ious, tops = 0, [], Counter()
    for image, _, mask in samples:
        try:
            result = pipeline.explain(model, image, request)
        except layerscore.NoInformativeLayersError:
            errors += 1
            continue
        ious.append(_iou(result.heatmap.values, mask))
        scores = result.report.scores
        tops[max(scores, key=scores.get)] += 1
    pinned_errors, pinned_iou, pinned_tops = ICAM_PINS[gain, smooth, bias]
    assert errors == pinned_errors
    assert abs(sum(ious) / len(ious) - pinned_iou) < 1e-9
    assert dict(tops) == pinned_tops
