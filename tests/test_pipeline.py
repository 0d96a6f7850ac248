import json

import numpy as np
import pytest

from icam import cam, layerscore, metrics, pipeline
from icam.model import NonFiniteImageError, build_fixture_model, forward_trace
from icam.perturb import PerturbationConfig, _draws
from icam.render import write_ppm
from icam.tensor import ShapeError


@pytest.fixture(scope="module")
def model():
    return build_fixture_model(7)


@pytest.fixture(scope="module")
def image():
    return np.random.default_rng(0).random((3, 32, 32))


def small_config():
    return PerturbationConfig(n=2, alpha=0.4, seed=42)


class TestImageFromRgb:
    def test_layout_and_scale(self):
        rgb = np.zeros((4, 5, 3), dtype=np.uint8)
        rgb[1, 2] = [255, 0, 51]
        img = pipeline.image_from_rgb(rgb)
        assert img.shape == (3, 4, 5)
        assert img[0, 1, 2] == 1.0
        assert img[1, 1, 2] == 0.0
        assert abs(img[2, 1, 2] - 51 / 255) < 1e-15


class TestExplain:
    def test_icam_automatic_pipeline(self, model, image):
        result = pipeline.explain(model, image, cam.CamRequest("icam"),
                                  small_config())
        assert result.heatmap.values.shape == (32, 32)
        assert result.report is not None
        assert result.layers == result.report.selected
        assert abs(sum(result.report.layer_weights.values()) - 1.0) < 1e-12
        assert 0.0 <= result.probability <= 1.0

    def test_deterministic(self, model, image):
        r1 = pipeline.explain(model, image, cam.CamRequest("icam"), small_config())
        r2 = pipeline.explain(model, image, cam.CamRequest("icam"), small_config())
        assert np.array_equal(r1.heatmap.values, r2.heatmap.values)
        assert r1.report.scores == r2.report.scores

    def test_explicit_layer_skips_scoring(self, model, image):
        req = cam.CamRequest("icam", layers=("block2",))
        result = pipeline.explain(model, image, req, small_config())
        assert result.report is None
        assert result.layers == ["block2"]

    def test_final_alias(self, model, image):
        req = cam.CamRequest("gradcam", layers=("final",))
        result = pipeline.explain(model, image, req)
        assert result.layers == ["block3"]

    def test_gradcam_default_layer_is_final(self, model, image):
        result = pipeline.explain(model, image, cam.CamRequest("gradcam"))
        assert result.layers == ["block3"]
        assert result.report is None

    def test_gradcam_single_layer_matches_engine(self, model, image):
        from icam.render import bilinear_resize, normalize_minmax
        result = pipeline.explain(model, image, cam.CamRequest("gradcam"))
        trace = forward_trace(model, image)
        hm = cam.gradcam_map(trace, "block3")
        ref = normalize_minmax(normalize_minmax(
            bilinear_resize(hm.values, 32, 32)))
        assert np.max(np.abs(result.heatmap.values - ref)) < 1e-12

    def test_unknown_layer(self, model, image):
        req = cam.CamRequest("gradcam", layers=("block7",))
        with pytest.raises(KeyError):
            pipeline.explain(model, image, req)

    def test_unknown_layer_error_reads_as_plain_message(self, model, image):
        req = cam.CamRequest("gradcam", layers=("block1", "block7"))
        with pytest.raises(pipeline.UnknownLayerError) as exc:
            pipeline.explain(model, image, req)
        assert str(exc.value) == ("unknown scoring point 'block7' "
                                  "(available: block1, block2, block3)")

    @pytest.mark.parametrize("method", ["gradcam", "icam"])
    def test_all_nan_image_rejected(self, model, method):
        with pytest.raises(NonFiniteImageError):
            pipeline.explain(model, np.full((3, 32, 32), np.nan),
                             cam.CamRequest(method), small_config())

    @pytest.mark.parametrize("bad, error", [
        (np.zeros((32, 32)), ShapeError),
        (np.zeros((3, 16, 16)), ShapeError),
        (np.zeros((1, 3, 32, 32)), ShapeError),
        (np.full((3, 32, 32), np.nan), NonFiniteImageError)],
        ids=["2d", "3x16x16", "batch", "nan"])
    def test_image_checked_before_perturbing(self, model, image, bad, error):
        pipeline.explain(model, image, cam.CamRequest("icam"), small_config())
        before = _draws.cache_info()
        with pytest.raises(error):
            pipeline.explain(model, bad, cam.CamRequest("icam"),
                             small_config())
        assert _draws.cache_info() == before

    def test_forced_class_index(self, model, image):
        result = pipeline.explain(model, image, cam.CamRequest("gradcam"),
                                  class_index=3)
        assert result.class_index == 3


@pytest.fixture
def engine_calls(monkeypatch):
    """Counts the engine calls made through pipeline.forward_trace."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1].shape)
        return forward_trace(*args, **kwargs)

    monkeypatch.setattr(pipeline, "forward_trace", counted)
    return calls


class TestEngineCalls:
    def test_icam_automatic_is_one_call_over_image_and_perturbations(
            self, model, image, engine_calls):
        pipeline.explain(model, image, cam.CamRequest("icam"), small_config())
        assert engine_calls == [(3, 3, 32, 32)]

    @pytest.mark.parametrize("method", cam.METHODS)
    def test_single_layer_method_is_one_call(self, model, image, method,
                                             engine_calls):
        req = cam.CamRequest(method, layers=("block1", "block3"))
        pipeline.explain(model, image, req, small_config())
        assert engine_calls == [(3, 32, 32)]


@pytest.fixture(scope="module")
def saturated_model():
    """The seed-42 fixture with its head scaled by 2000: on the `image`
    fixture the top logit is ~1494, so e^(S^c) overflows and the softmax
    saturates to exactly one-hot."""
    m = build_fixture_model(42)
    for name in ("head.weight", "head.bias"):
        m.weights[name] = 2000.0 * m.weights[name]
    return m


class TestSaturatedHead:
    @pytest.mark.parametrize("layers", [None, ("block1", "block2", "block3")],
                             ids=["auto", "explicit"])
    @pytest.mark.parametrize("smooth", cam.SMOOTHS)
    @pytest.mark.parametrize("method", cam.METHODS)
    def test_finite_map_or_named_error(self, saturated_model, image, method,
                                       smooth, layers):
        req = cam.CamRequest(method, smooth=smooth, layers=layers)
        if method == "icam" and layers is None:
            expected = layerscore.NoInformativeLayersError
        elif smooth == "exp":
            expected = cam.SmoothOverflowError
        else:
            expected = None
        if expected is not None:
            with pytest.raises(expected):
                pipeline.explain(saturated_model, image, req, small_config())
            return
        values = pipeline.explain(saturated_model, image, req,
                                  small_config()).heatmap.values
        assert np.isfinite(values).all()
        assert values.min() >= 0.0 and values.max() <= 1.0


class TestSidecar:
    def test_icam_includes_layer_scores(self, model, image):
        cfg = small_config()
        req = cam.CamRequest("icam")
        result = pipeline.explain(model, image, req, cfg)
        d = pipeline.sidecar_dict(result, req, cfg)
        assert d["method"] == "icam"
        assert d["smooth"] == "softmax"
        blob = d["layer_scores"]
        assert set(blob) == {"scores", "selected", "weights", "threshold",
                             "n", "alpha", "seed"}
        assert blob["n"] == 2 and blob["seed"] == 42

    def test_gradcam_has_no_layer_scores(self, model, image):
        req = cam.CamRequest("gradcam")
        result = pipeline.explain(model, image, req)
        d = pipeline.sidecar_dict(result, req, small_config())
        assert "layer_scores" not in d
        assert json.dumps(d)  # serializable


class TestManifest:
    def _write(self, tmp_path, lines):
        p = tmp_path / "manifest.jsonl"
        p.write_text("\n".join(lines) + "\n")
        return p

    def test_parse_valid(self, tmp_path):
        p = self._write(tmp_path, [
            json.dumps({"image": "a.ppm", "bbox": [0, 0, 31, 31], "label": 0}),
            "",
            json.dumps({"image": "b.ppm", "bbox": [4, 2, 10, 9], "label": 4}),
        ])
        recs = pipeline.parse_manifest(p, (3, 32, 32), 5)
        assert len(recs) == 2
        assert recs[1]["bbox"] == (4, 2, 10, 9)

    def test_empty_manifest(self, tmp_path):
        p = self._write(tmp_path, [""])
        with pytest.raises(pipeline.ManifestError, match="empty manifest"):
            pipeline.parse_manifest(p, (3, 32, 32), 5)

    def test_malformed_line_names_line_number(self, tmp_path):
        p = self._write(tmp_path, [
            json.dumps({"image": "a.ppm", "bbox": [0, 0, 1, 1], "label": 0}),
            "{not json",
        ])
        with pytest.raises(pipeline.ManifestError, match="line 2"):
            pipeline.parse_manifest(p, (3, 32, 32), 5)

    def test_bbox_out_of_bounds(self, tmp_path):
        p = self._write(tmp_path, [
            json.dumps({"image": "a.ppm", "bbox": [0, 0, 32, 5], "label": 0}),
        ])
        with pytest.raises(pipeline.ManifestError, match="bbox"):
            pipeline.parse_manifest(p, (3, 32, 32), 5)

    def test_label_out_of_range(self, tmp_path):
        p = self._write(tmp_path, [
            json.dumps({"image": "a.ppm", "bbox": [0, 0, 1, 1], "label": 5}),
        ])
        with pytest.raises(pipeline.ManifestError, match="label"):
            pipeline.parse_manifest(p, (3, 32, 32), 5)

    def test_bbox_mask_inclusive(self):
        mask = pipeline.bbox_mask((1, 2, 3, 4), 6, 6)
        assert mask.sum() == 3 * 3
        assert mask[2, 1] == 1 and mask[4, 3] == 1
        assert mask[1, 1] == 0 and mask[5, 3] == 0


class TestEvaluateManifest:
    def _setup(self, tmp_path, model, n_images=4):
        rng = np.random.default_rng(1)
        records = []
        images = {}
        for i in range(n_images):
            rgb = rng.integers(0, 256, size=(32, 32, 3), dtype=np.uint8)
            path = str(tmp_path / f"img{i}.ppm")
            write_ppm(rgb, path)
            img = pipeline.image_from_rgb(rgb)
            pred = forward_trace(model, img).class_index
            # alternate correct / incorrect labels
            label = pred if i % 2 == 0 else (pred + 1) % 5
            records.append({"image": path, "bbox": (4, 4, 20, 20),
                            "label": label})
            images[path] = img
        return records, images

    def test_hand_aggregated_summary(self, tmp_path, model):
        records, images = self._setup(tmp_path, model)
        req = cam.CamRequest("gradcam")
        cfg = small_config()
        summary = pipeline.evaluate_manifest(model, records, req, cfg,
                                             iou_threshold_frac=0.2)
        assert summary["records"] == 4
        assert summary["correct"] == 2
        assert summary["accuracy"] == 0.5
        assert summary["iou_threshold_frac"] == 0.2

        # aggregate independently over the records that were correct
        ious, sals = [], []
        for rec in records:
            img = images[rec["image"]]
            tr = forward_trace(model, img)
            if tr.class_index != rec["label"]:
                continue
            res = pipeline.explain(model, img, req, cfg,
                                   class_index=tr.class_index)
            truth = pipeline.bbox_mask(rec["bbox"], 32, 32)
            mask = metrics.threshold_heatmap(res.heatmap.values, 0.2)
            ious.append(metrics.iou(mask, truth))
            sals.append(metrics.saliency_score(res.heatmap.values, truth))
        assert abs(summary["mean_iou"] - np.mean(ious)) < 1e-12
        assert abs(summary["mean_saliency"] - np.mean(sals)) < 1e-12

    def test_full_image_bbox_saliency_is_one(self, tmp_path, model):
        rng = np.random.default_rng(2)
        rgb = rng.integers(0, 256, size=(32, 32, 3), dtype=np.uint8)
        path = str(tmp_path / "full.ppm")
        write_ppm(rgb, path)
        img = pipeline.image_from_rgb(rgb)
        pred = forward_trace(model, img).class_index
        records = [{"image": path, "bbox": (0, 0, 31, 31), "label": pred}]
        summary = pipeline.evaluate_manifest(model, records,
                                             cam.CamRequest("gradcam"),
                                             small_config())
        assert summary["correct"] == 1
        assert summary["mean_saliency"] == 1.0
        assert summary["mean_iou"] > 0.0

    def test_no_correct_predictions(self, tmp_path, model):
        records, _ = self._setup(tmp_path, model, n_images=1)
        records[0]["label"] = (records[0]["label"] + 2) % 5
        summary = pipeline.evaluate_manifest(model, records,
                                             cam.CamRequest("gradcam"),
                                             small_config())
        assert summary["correct"] == 0
        assert summary["mean_iou"] == 0.0 and summary["mean_saliency"] == 0.0

    def test_one_engine_call_per_correct_record(self, tmp_path, model,
                                                engine_calls):
        records, _ = self._setup(tmp_path, model)
        summary = pipeline.evaluate_manifest(model, records,
                                             cam.CamRequest("icam"),
                                             small_config())
        assert summary["correct"] == 2 and summary["records"] == 4
        assert engine_calls == [(3, 3, 32, 32)] * 2

    def test_unknown_layer_rejected_without_correct_predictions(
            self, tmp_path, model):
        records, _ = self._setup(tmp_path, model, n_images=1)
        records[0]["label"] = (records[0]["label"] + 2) % 5
        with pytest.raises(pipeline.UnknownLayerError, match="block9"):
            pipeline.evaluate_manifest(
                model, records, cam.CamRequest("gradcam", layers=("block9",)),
                small_config())
