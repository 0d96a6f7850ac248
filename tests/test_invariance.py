"""Implementation invariance as a metamorphic test: two networks that
compute the same function must get the same attribution (Sundararajan et
al. 2017, arXiv:1703.01365).

Permuting block l's output channels (its weight rows and bias), with block
l+1's input channels (the head's columns after the last block) to match,
leaves every logit as it was. Every method's map sums over channels, so no
heatmap may move beyond rounding: the sums only run in another order. This
holds on the seed-42 fixture and on both known-answer models, for every
block and every method.
"""

import numpy as np
import pytest

from icam import cam, pipeline
from icam.model import Model, build_fixture_model, forward
from oracles import (conjunction_model, conjunction_samples, planted_model,
                     planted_samples)

BLOCKS = build_fixture_model(42).spec.scoring_points
MODELS = {  # name -> (model, three of its images)
    "fixture": (lambda: build_fixture_model(42), lambda: [
        np.random.default_rng(s).random((3, 32, 32)) for s in range(3)]),
    "planted": (lambda: planted_model(60),
                lambda: [s[0] for s in planted_samples(0, 3)]),
    "conjunction": (lambda: conjunction_model(60),
                    lambda: [s[0] for s in conjunction_samples(0, 3)]),
}
REQUESTS = [cam.CamRequest(method, layers=(block,))
            for block in BLOCKS for method in cam.METHODS] + [
    cam.CamRequest("icam"), cam.CamRequest("icam", smooth="exp", bias="none")]


def permuted(model, block):
    """`model` with `block`'s output channels in a random order, and the
    next layer's input channels to match."""
    blocks = list(model.spec.scoring_points)
    weights = dict(model.weights)   # each permuted entry is a new array
    channels = len(weights[f"{block}.bias"])
    perm = np.random.default_rng(0).permutation(channels)
    assert (perm != np.arange(channels)).any()
    weights[f"{block}.weight"] = weights[f"{block}.weight"][perm]
    weights[f"{block}.bias"] = weights[f"{block}.bias"][perm]
    i = blocks.index(block)
    after = f"{blocks[i + 1]}.weight" if i + 1 < len(blocks) else "head.weight"
    weights[after] = weights[after][:, perm]
    return Model(model.spec, weights)


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("name", sorted(MODELS))
def test_permuting_a_blocks_channels_moves_no_heatmap(name, block):
    make_model, make_images = MODELS[name]
    model, images = make_model(), make_images()
    twin = permuted(model, block)
    logits = forward(model, np.stack(images))
    # every logit as it was, to rounding: block l+1 sums its inputs in
    # another order
    assert np.abs(forward(twin, np.stack(images)) - logits).max() <= 1e-12
    for image in images:
        for request in REQUESTS:
            heat = pipeline.explain(model, image, request).heatmap.values
            moved = pipeline.explain(twin, image, request).heatmap.values
            assert np.abs(moved - heat).max() <= 1e-9, request
