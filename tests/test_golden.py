"""Golden pin: the fixture pipeline's outputs, frozen in golden/seed42.json.

The file holds, for three seeded images on the seed-42 fixture, the
predicted class and probability, the I-CAM layer scores, selection, layer
weights and perturbation weights, and the fused heatmap of every method at
its default smooth. It was written from the code as first imported, so a
refactor that reproduces it keeps the old outputs.

Classes and selections must match exactly and floats to rtol=1e-12. A
change that legitimately moves an output regenerates the file with
`PYTHONPATH=src python tests/test_golden.py --write` and says why.
"""

import json
import pathlib
import sys

import numpy as np
import pytest

from icam import cam
from icam.model import build_fixture_model
from icam.pipeline import explain

GOLDEN = pathlib.Path(__file__).parent / "golden" / "seed42.json"
IMAGE_SEEDS = (0, 1, 2)
RTOL = 1e-12


def golden_image(seed):
    return np.random.default_rng(seed).random((3, 32, 32))


def compute_record(model, seed):
    image = golden_image(seed)
    result = explain(model, image, cam.CamRequest("icam"))
    report = result.report
    return {
        "image_seed": seed,
        "class": result.class_index,
        "probability": result.probability,
        "layer_scores": {k: float(v) for k, v in report.scores.items()},
        "selected": list(report.layer_weights),
        "layer_weights": {k: float(v)
                          for k, v in report.layer_weights.items()},
        "perturbation_weights": [float(w)
                                 for w in report.perturbation_weights],
        "heatmaps": {
            method: explain(model, image,
                            cam.CamRequest(method)).heatmap.values.tolist()
            for method in cam.METHODS
        },
    }


def compute_golden():
    model = build_fixture_model(42)
    return {"fixture_seed": 42,
            "records": [compute_record(model, s) for s in IMAGE_SEEDS]}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def model():
    return build_fixture_model(42)


def _close(got, want):
    np.testing.assert_allclose(np.asarray(got, dtype=np.float64),
                               np.asarray(want, dtype=np.float64),
                               rtol=RTOL, atol=0.0)


@pytest.mark.parametrize("index", range(len(IMAGE_SEEDS)))
def test_matches_golden(golden, model, index):
    want = golden["records"][index]
    got = compute_record(model, want["image_seed"])
    assert got["class"] == want["class"]
    assert got["selected"] == want["selected"]
    assert list(got["layer_scores"]) == list(want["layer_scores"])
    assert list(got["layer_weights"]) == list(want["layer_weights"])
    assert sorted(got["heatmaps"]) == sorted(want["heatmaps"])
    _close(got["probability"], want["probability"])
    _close(list(got["layer_scores"].values()),
           list(want["layer_scores"].values()))
    _close(list(got["layer_weights"].values()),
           list(want["layer_weights"].values()))
    _close(got["perturbation_weights"], want["perturbation_weights"])
    for method, heatmap in want["heatmaps"].items():
        _close(got["heatmaps"][method], heatmap)


def test_golden_covers_three_images_and_all_methods(golden):
    assert golden["fixture_seed"] == 42
    assert [r["image_seed"] for r in golden["records"]] == list(IMAGE_SEEDS)
    for rec in golden["records"]:
        assert sorted(rec["heatmaps"]) == sorted(cam.METHODS)
        assert len(rec["perturbation_weights"]) == 8


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute_golden(), separators=(",", ":"))
                      + "\n")
