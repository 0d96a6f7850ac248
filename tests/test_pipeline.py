import json
from dataclasses import replace

import numpy as np
import pytest

from icam import cam, layerscore, metrics, pipeline
from icam.cli import main
from icam.model import (NonFiniteImageError, build_fixture_model, forward,
                        forward_trace, save_model)
from icam.perturb import _draws
from icam.render import read_ppm, write_ppm
from icam.tensor import ShapeError
from oracles import one_batch_explain


@pytest.fixture(scope="module")
def model():
    return build_fixture_model(7)


@pytest.fixture(scope="module")
def image():
    return np.random.default_rng(0).random((3, 32, 32))


def small(method="icam", **kw):
    """cam.CamRequest(method, **kw), with 2 perturbations if it scores
    layers, which keeps the tests fast."""
    req = cam.CamRequest(method, **kw)
    return replace(req, n=2) if req.scores_layers else req


class TestImageFromRgb:
    def test_layout_and_scale(self):
        rgb = np.zeros((4, 5, 3), dtype=np.uint8)
        rgb[1, 2] = [255, 0, 51]
        img = pipeline.image_from_rgb(rgb)
        assert img.shape == (3, 4, 5)
        assert img[0, 1, 2] == 1.0
        assert img[1, 1, 2] == 0.0
        assert abs(img[2, 1, 2] - 51 / 255) < 1e-15


class TestReadImage:
    def test_pixels_and_checked_image(self, model, tmp_path):
        rgb = np.random.default_rng(1).integers(0, 256, (32, 32, 3),
                                                dtype=np.uint8)
        write_ppm(rgb, tmp_path / "x.ppm")
        got_rgb, got = pipeline.read_image(model, tmp_path / "x.ppm")
        assert np.array_equal(got_rgb, rgb)
        assert np.array_equal(got, pipeline.image_from_rgb(rgb))

    def test_wrong_size_names_the_file(self, model, tmp_path):
        path = tmp_path / "small.ppm"
        write_ppm(np.zeros((16, 16, 3), dtype=np.uint8), path)
        with pytest.raises(ShapeError, match=f"^{path}: image shape "):
            pipeline.read_image(model, path)


class TestExplain:
    def test_icam_automatic_pipeline(self, model, image):
        result = pipeline.explain(model, image, small())
        assert result.heatmap.values.shape == (32, 32)
        assert result.report is not None
        assert result.layers == list(result.report.layer_weights)
        assert abs(sum(result.report.layer_weights.values()) - 1.0) < 1e-12
        assert 0.0 <= result.probability <= 1.0

    def test_deterministic(self, model, image):
        r1 = pipeline.explain(model, image, small())
        r2 = pipeline.explain(model, image, small())
        assert np.array_equal(r1.heatmap.values, r2.heatmap.values)
        assert r1.report.scores == r2.report.scores

    def test_explicit_layer_skips_scoring(self, model, image):
        req = cam.CamRequest("icam", layers=("block2",))
        result = pipeline.explain(model, image, req)
        assert result.report is None
        assert result.layers == ["block2"]

    def test_final_alias(self, model, image):
        req = cam.CamRequest("gradcam", layers=("final",))
        result = pipeline.explain(model, image, req)
        assert result.layers == ["block3"]

    def test_repeated_layer_listed_once(self, image):
        # "final" names block3 again: each layer keeps its first place
        model = build_fixture_model(42)
        got, want = (pipeline.explain(model, image,
                                      cam.CamRequest("gradcam", layers=ls))
                     for ls in (("block3", "final", "block2"),
                                ("block3", "block2")))
        assert got.layers == want.layers == ["block3", "block2"]
        assert got.heatmap.values.tobytes() == want.heatmap.values.tobytes()

    def test_gradcam_default_layer_is_final(self, model, image):
        result = pipeline.explain(model, image, cam.CamRequest("gradcam"))
        assert result.layers == ["block3"]
        assert result.report is None

    def test_gradcam_single_layer_matches_engine(self, model, image):
        from icam.render import bilinear_resize, normalize_minmax
        result = pipeline.explain(model, image, cam.CamRequest("gradcam"))
        trace = forward_trace(model, image)
        hm = cam.single_layer_map(trace, cam.CamRequest("gradcam"), "block3")
        ref = normalize_minmax(normalize_minmax(
            bilinear_resize(hm, 32, 32)))
        assert np.max(np.abs(result.heatmap.values - ref)) < 1e-12

    def test_unknown_layer(self, model, image):
        req = cam.CamRequest("gradcam", layers=("block7",))
        with pytest.raises(pipeline.UnknownLayerError):
            pipeline.explain(model, image, req)

    def test_unknown_layer_error_reads_as_plain_message(self, model, image):
        req = cam.CamRequest("gradcam", layers=("block1", "block7"))
        with pytest.raises(pipeline.UnknownLayerError) as exc:
            pipeline.explain(model, image, req)
        assert str(exc.value) == ("unknown scoring point 'block7' "
                                  "(available: block1, block2, block3)")
        assert isinstance(exc.value, ValueError)   # a boundary error like the rest

    def test_score_reads_the_request_settings(self, model, image):
        req = cam.CamRequest("icam", n=3, alpha=0.6, seed=5, threshold=0.5)
        report = layerscore.score_layers(model, forward_trace(model, image),
                                         req)
        assert len(report.perturbation_weights) == 3
        result = pipeline.explain(model, image, req)
        assert result.report.scores == report.scores
        sidecar = pipeline.sidecar_dict(result, req)["layer_scores"]
        assert (sidecar["n"], sidecar["alpha"], sidecar["seed"],
                sidecar["threshold"]) == (3, 0.6, 5, 0.5)

    def test_score_reads_the_class_from_the_trace(self, model, image):
        # a forced class: the walk and the perturbation traces read it from
        # the trace, so scoring its trace is explaining it
        req = small()
        argmax = forward_trace(model, image).class_index
        forced = (argmax + 1) % model.spec.num_classes
        report = layerscore.score_layers(
            model, forward_trace(model, image, forced), req)
        want = pipeline.explain(model, image, req, forced).report
        assert report.scores == want.scores
        assert report.scores != pipeline.explain(model, image, req).report.scores

    @pytest.mark.parametrize("method", ["gradcam", "icam"])
    def test_all_nan_image_rejected(self, model, method):
        with pytest.raises(NonFiniteImageError):
            pipeline.explain(model, np.full((3, 32, 32), np.nan), small(method))

    @pytest.mark.parametrize("bad, error", [
        (np.zeros((32, 32)), ShapeError),
        (np.zeros((3, 16, 16)), ShapeError),
        (np.zeros((1, 3, 32, 32)), ShapeError),
        (np.full((3, 32, 32), np.nan), NonFiniteImageError)],
        ids=["2d", "3x16x16", "batch", "nan"])
    def test_image_checked_before_perturbing(self, model, image, bad, error):
        pipeline.explain(model, image, small())
        before = _draws.cache_info()
        with pytest.raises(error):
            pipeline.explain(model, bad, small())
        assert _draws.cache_info() == before

    def test_automatic_icam_trace_needs_the_scorer_report(self, model, image):
        # a trace alone does not say which layers automatic I-CAM maps
        trace = forward_trace(model, image)
        with pytest.raises(ValueError, match="^automatic I-CAM maps the layers "
                                             "of a report: layerscore.score_"
                                             "layers makes it$"):
            pipeline.explain_trace(trace, small())

    def test_forced_class_index(self, model, image):
        result = pipeline.explain(model, image, cam.CamRequest("gradcam"),
                                  class_index=3)
        assert result.class_index == 3

    @pytest.mark.parametrize("request_", [cam.CamRequest("gradcam"), small()],
                             ids=["gradcam", "icam"])
    @pytest.mark.parametrize("class_index", [2.7, True, "3"])
    def test_class_index_must_be_an_integer(self, model, image, request_,
                                            class_index):
        with pytest.raises(ValueError, match=f"^class_index must be an integer, "
                                             f"got {class_index!r}$"):
            pipeline.explain(model, image, request_, class_index)


@pytest.fixture
def engine_calls(monkeypatch):
    """The input shape of each engine call made through
    pipeline.forward_trace and layerscore.trace_perturbations."""
    calls = []

    def counting(trace):
        def counted(*args, **kwargs):
            calls.append(args[1].shape)
            return trace(*args, **kwargs)
        return counted

    for module, name in ((pipeline, "forward_trace"),
                         (layerscore, "trace_perturbations")):
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
    return calls


@pytest.fixture
def walk_calls(engine_calls, monkeypatch):
    """engine_calls, with "input_gradient" at each walk of the image's input
    gradient made through layerscore.input_gradient."""
    walk = layerscore.input_gradient

    def counted(*args):
        engine_calls.append("input_gradient")
        return walk(*args)

    monkeypatch.setattr(layerscore, "input_gradient", counted)
    return engine_calls


# automatic I-CAM's engine calls at n = 5: the image, the scorer's one walk
# of its input gradient, then the perturbations in blocks of at most
# BLOCK_ROWS (2) rows
IMAGE_WALK_THEN_5_PERTURBATIONS = [(3, 32, 32), "input_gradient",
                                   (2, 3, 32, 32), (2, 3, 32, 32),
                                   (1, 3, 32, 32)]


class TestEngineCalls:
    def test_icam_automatic_traces_the_image_then_perturbation_blocks(
            self, model, image, walk_calls):
        pipeline.explain(model, image, small())
        assert walk_calls == [(3, 32, 32), "input_gradient", (2, 3, 32, 32)]
        del walk_calls[:]
        pipeline.explain(model, image, cam.CamRequest(n=5))
        assert walk_calls == IMAGE_WALK_THEN_5_PERTURBATIONS

    @pytest.mark.parametrize("method", cam.METHODS)
    def test_single_layer_method_is_one_call(self, model, image, method,
                                             walk_calls):
        req = cam.CamRequest(method, layers=("block1", "block3"))
        pipeline.explain(model, image, req)
        assert walk_calls == [(3, 32, 32)]

    def test_compare_traces_the_image_then_perturbation_blocks(
            self, model, tmp_path, walk_calls):
        model_path, image_path = str(tmp_path / "m.icamw"), str(tmp_path / "i.ppm")
        save_model(model, model_path)
        write_ppm(np.random.default_rng(0).integers(0, 256, size=(32, 32, 3),
                                                    dtype=np.uint8), image_path)
        assert main(["compare", "--model", model_path, "--image", image_path,
                     "--n-perturb", "5", "--out-prefix",
                     str(tmp_path / "cmp")]) == 0
        assert walk_calls == IMAGE_WALK_THEN_5_PERTURBATIONS

    @pytest.mark.parametrize("method", cam.METHODS)
    def test_unknown_layer_fails_before_the_engine(self, model, image, method,
                                                   walk_calls):
        req = cam.CamRequest(method, layers=("block1", "block7"))
        with pytest.raises(pipeline.UnknownLayerError):
            pipeline.explain(model, image, req)
        assert walk_calls == []

    def test_score_traces_the_image_then_blocks_and_maps_nothing(
            self, model, image, walk_calls, monkeypatch):
        maps = []
        monkeypatch.setattr(cam, "single_layer_map",
                            lambda *args: maps.append(args[2]))
        trace = pipeline.forward_trace(model, image)
        layerscore.score_layers(model, trace, cam.CamRequest("icam", n=5))
        assert walk_calls == IMAGE_WALK_THEN_5_PERTURBATIONS
        assert maps == []

    @pytest.mark.parametrize("req", [
        *(cam.CamRequest(m) for m in ("gradcam", "gradcampp", "layercam")),
        cam.CamRequest("icam", layers=("block1",))],
        ids=["gradcam", "gradcampp", "layercam", "icam-named"])
    def test_a_request_that_scores_no_layers_walks_no_input_gradient(
            self, model, image, req, walk_calls):
        want = pipeline.explain(model, image, req).heatmap.values
        assert walk_calls == [(3, 32, 32)]
        trace = pipeline.forward_trace(model, image)
        assert layerscore.score_layers(model, trace, req) is None
        assert walk_calls == [(3, 32, 32)] * 2
        got = pipeline.explain_trace(trace, req, None).heatmap.values
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("image_seed", [0, 1])
def test_blocks_equal_one_trace_of_all_rows(n, image_seed):
    # the image and its perturbations traced as one [1+n]-row batch give the
    # same scores, weights and heatmap, bit for bit, as blocks of 2 rows
    model = build_fixture_model(42)
    img = np.random.default_rng(image_seed).random((3, 32, 32))
    req = cam.CamRequest(n=n)
    got, want = pipeline.explain(model, img, req), one_batch_explain(model,
                                                                     img, req)
    assert got.report.scores == want.report.scores
    assert got.report.layer_weights == want.report.layer_weights
    assert got.report.perturbation_weights.tobytes() \
        == want.report.perturbation_weights.tobytes()
    assert got.heatmap.values.tobytes() == want.heatmap.values.tobytes()
    assert (got.class_index, got.probability, got.layers, got.zero_maps) \
        == (want.class_index, want.probability, want.layers, want.zero_maps)


@pytest.mark.parametrize("n, limit_mib", [(8, 2.5), (32, 4.5)])
def test_explain_peak_memory(model, image, n, limit_mib):
    # perturbations are traced 2 rows at a time and reduced to their maps,
    # so the peak grows by the maps alone: ~1.6 / ~3.0 MiB at n = 8 / 32,
    # where one trace of all 1+n rows peaked at 5.0 / 18.3 MiB
    import gc
    import tracemalloc
    req = cam.CamRequest("icam", n=n)
    pipeline.explain(model, image, req)   # warm caches
    gc.collect()
    tracemalloc.start()
    try:
        pipeline.explain(model, image, req)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * (1 << 20), peak


def test_kept_results_do_not_hold_their_trace(model, image):
    # each image trace holds ~0.26 MB of activations and gradients
    import gc
    import tracemalloc
    pipeline.explain(model, image, cam.CamRequest("icam"))   # warm caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [pipeline.explain(model, image, cam.CamRequest("icam"))
                for _ in range(10)]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(kept) == 10 and held < 1 << 20


def _head_scaled_model(scale):
    m = build_fixture_model(42)
    for name in ("head.weight", "head.bias"):
        m.weights[name] = scale * m.weights[name]
    return m


@pytest.fixture(scope="module", params=[2000.0, 945.0],
                ids=["head2000", "head945"])
def saturated_model(request):
    """The seed-42 fixture with its head scaled by 2000 or 945: on the
    `image` fixture the top logit is ~1494 or ~705.9, and the softmax
    saturates to exactly one-hot. At 2000 e^(S^c) overflows; at 945 it
    fits a float64, but the exp map's f'' g^2 and sums do not."""
    return _head_scaled_model(request.param)


# only icam takes a smooth and a bias; the Grad-CAM family runs its fixed
# form, with neither
FAMILY = [m for m in cam.METHODS if m != "icam"]


class TestSaturatedHead:
    @pytest.mark.parametrize("layers", [None, ("block1", "block2", "block3")],
                             ids=["auto", "explicit"])
    @pytest.mark.parametrize("method, bias, smooth", [
        *(pytest.param(m, None, None, id=m) for m in FAMILY),
        *(pytest.param("icam", b, s, id=f"icam-{b}-{s}")
          for b in cam.BIAS_MODES for s in cam.SMOOTHS)])
    def test_finite_map_or_named_error(self, saturated_model, image, method,
                                       bias, smooth, layers):
        if method == "icam" and layers is None:
            expected = layerscore.NoInformativeLayersError
        elif method == "icam" and smooth == "exp":
            expected = cam.SmoothOverflowError   # the others are scale-free
        else:
            expected = None
        req = small(method, smooth=smooth, bias=bias, layers=layers)
        if expected is not None:
            with pytest.raises(expected):
                pipeline.explain(saturated_model, image, req)
            return
        values = pipeline.explain(saturated_model, image, req).heatmap.values
        assert np.isfinite(values).all()
        assert values.min() >= 0.0 and values.max() <= 1.0


class TestHeadScale:
    """Every head scale 10^-3..10^4 gives a finite heatmap in [0,1] or a
    named error, and only icam can overflow the exp smooth. The 10^k sweep
    steps over the window, head x938.5..x950.2 on `image`, where e^(S^c)
    fits a float64 but the exp map does not; TestSaturatedHead's x945
    covers it."""

    @pytest.mark.parametrize("scale", [10.0 ** k for k in range(-3, 5)],
                             ids=[f"1e{k}" for k in range(-3, 5)])
    @pytest.mark.parametrize("method, bias, smooth", [
        *(pytest.param(m, None, None, id=m) for m in FAMILY),
        *(pytest.param("icam", b, s, id=f"icam-{b}-{s}")
          for b in cam.BIAS_MODES for s in cam.SMOOTHS)])
    def test_finite_map_or_named_error(self, image, method, bias, smooth,
                                       scale):
        model = _head_scaled_model(scale)
        req = small(method, smooth=smooth, bias=bias)
        try:
            values = pipeline.explain(model, image, req).heatmap.values
        except (cam.SmoothOverflowError,
                layerscore.NoInformativeLayersError):
            assert method == "icam"   # the Grad-CAM family is scale-free
            return
        assert np.isfinite(values).all()
        assert values.min() >= 0.0 and values.max() <= 1.0


class TestZeroMaps:
    """The layers whose map is flat, so that it adds nothing to the fused
    heatmap; on fixture seed 7 the channel bias clears every default I-CAM
    map."""

    def test_default_icam_reports_every_layer(self, model, image):
        req = small()
        result = pipeline.explain(model, image, req)
        assert result.zero_maps == result.layers
        assert not result.heatmap.values.any()
        assert pipeline.sidecar_dict(result, req)["zero_maps"] \
            == result.layers

    def test_bias_none_reports_none(self, model, image):
        req = small(bias="none")
        result = pipeline.explain(model, image, req)
        assert result.zero_maps == []
        assert result.heatmap.values.any()
        assert pipeline.sidecar_dict(result, req)["zero_maps"] == []

    def test_lists_only_the_zero_layers(self, image):
        # on fixture seed 0 the channel bias clears block1's map alone
        req = cam.CamRequest("icam", layers=("block3", "block1", "block2"))
        result = pipeline.explain(build_fixture_model(0), image, req)
        assert result.zero_maps == ["block1"]
        assert result.heatmap.values.any()

    def test_flat_non_zero_maps_are_listed(self, image):
        # head x100: the softmax saturates, so f', f'' and f''' are 0 and
        # each map is the constant relu(bias), which fuse's min-max zeroes
        result = pipeline.explain(_head_scaled_model(100.0), image,
                                  cam.CamRequest("icam"))
        assert result.layers == ["block1", "block2", "block3"]
        assert result.zero_maps == result.layers
        assert not result.heatmap.values.any()

    @pytest.mark.parametrize("bias, zeros", [("channel", 2), ("none", 0)])
    def test_eval_counts_zero_heatmaps(self, tmp_path, model, bias, zeros):
        records, _ = TestEvaluateManifest._setup(tmp_path, model)
        summary = pipeline.evaluate_manifest(model, records, small(bias=bias))
        assert summary["correct"] == 2
        assert summary["zero_heatmaps"] == zeros


class TestSidecar:
    def test_icam_includes_layer_scores(self, model, image):
        req = small()
        result = pipeline.explain(model, image, req)
        d = pipeline.sidecar_dict(result, req)
        assert d["method"] == "icam"
        assert d["smooth"] == "softmax"
        assert d["bias"] == "channel"
        blob = d["layer_scores"]
        assert set(blob) == {"scores", "selected", "weights", "threshold",
                             "n", "alpha", "seed"}
        assert blob["n"] == 2 and blob["seed"] == 42

    def test_gradcam_has_no_layer_scores(self, model, image):
        # gradcam takes no smooth and no bias, and the sidecar names none
        req = cam.CamRequest("gradcam")
        result = pipeline.explain(model, image, req)
        d = pipeline.sidecar_dict(result, req)
        assert "layer_scores" not in d
        assert d["smooth"] is None and d["bias"] is None
        assert '"smooth": null' in json.dumps(d)

    @pytest.mark.parametrize("req", [
        *(pytest.param(small(m), id=m) for m in cam.METHODS),
        pytest.param(small(smooth="exp", bias="none"), id="icam-exp-none")])
    def test_settings_rebuild_the_request_that_ran(self, model, image, req):
        d = json.loads(json.dumps(pipeline.sidecar_dict(
            pipeline.explain(model, image, req), req)))
        scorer = d.get("layer_scores", {})
        assert cam.CamRequest(d["method"], smooth=d["smooth"], bias=d["bias"],
                              **{k: scorer[k] for k in cam.SCORER_DEFAULTS
                                 if k in scorer}) == req


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
        # a blank file holds no records; evaluate_manifest refuses an empty list
        p = self._write(tmp_path, ["", " "])
        assert pipeline.parse_manifest(p, (3, 32, 32), 5) == []
        p.write_bytes(b"")
        assert pipeline.parse_manifest(p, (3, 32, 32), 5) == []

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

    @pytest.mark.parametrize("field, value, match", [
        ("label", 2.7, "label"), ("label", True, "label"),
        ("label", "2", "label"), ("label", None, "label"),
        ("bbox", "0123", "bbox"), ("bbox", [0, 0, 3.9, 3], "bbox"),
        ("bbox", [0, 0, True, 3], "bbox"), ("bbox", [0, 0, 3], "bbox"),
        ("bbox", {"x0": 0}, "bbox"), ("image", 0, "image"),
        ("image", "", "image"), ("image", ["a.ppm"], "image")])
    def test_field_types_rejected(self, tmp_path, field, value, match):
        rec = {"image": "a.ppm", "bbox": [0, 0, 3, 3], "label": 2}
        rec[field] = value
        p = self._write(tmp_path, [
            json.dumps({"image": "a.ppm", "bbox": [0, 0, 1, 1], "label": 0}),
            json.dumps(rec)])
        with pytest.raises(pipeline.ManifestError,
                           match=f"line 2: {match}"):
            pipeline.parse_manifest(p, (3, 32, 32), 5)

    def test_label_past_the_integer_digit_limit(self, tmp_path):
        # json.loads refuses an integer of more than 4,300 digits with a
        # bare ValueError
        p = tmp_path / "m.jsonl"
        p.write_text('{"image": "a.ppm", "bbox": [0, 0, 1, 1], "label": '
                     + "9" * 5000 + "}\n")
        with pytest.raises(pipeline.ManifestError,
                           match="^malformed manifest line 1: Exceeds the "
                                 "limit"):
            pipeline.parse_manifest(p, (3, 32, 32), 5)

    def test_non_object_record_rejected(self, tmp_path):
        p = self._write(tmp_path, ["[1, 2, 3]"])
        with pytest.raises(pipeline.ManifestError, match="line 1"):
            pipeline.parse_manifest(p, (3, 32, 32), 5)

    def test_bbox_mask_inclusive(self):
        mask = pipeline.bbox_mask((1, 2, 3, 4), 6, 6)
        assert mask.sum() == 3 * 3
        assert mask[2, 1] == 1 and mask[4, 3] == 1
        assert mask[1, 1] == 0 and mask[5, 3] == 0


class TestEvaluateManifest:
    @staticmethod
    def _setup(tmp_path, model, n_images=4):
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
        summary = pipeline.evaluate_manifest(model, records, req,
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
            res = pipeline.explain(model, img, req,
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
                                             cam.CamRequest("gradcam"))
        assert summary["correct"] == 1
        assert summary["mean_saliency"] == 1.0
        assert summary["mean_iou"] > 0.0

    def test_no_correct_predictions(self, tmp_path, model):
        records, _ = self._setup(tmp_path, model, n_images=1)
        records[0]["label"] = (records[0]["label"] + 2) % 5
        summary = pipeline.evaluate_manifest(model, records,
                                             cam.CamRequest("gradcam"))
        assert summary["correct"] == 0
        assert summary["mean_iou"] == 0.0 and summary["mean_saliency"] == 0.0

    def test_one_engine_run_per_correct_record(self, tmp_path, model,
                                               engine_calls):
        records, _ = self._setup(tmp_path, model)
        summary = pipeline.evaluate_manifest(model, records, small())
        assert summary["correct"] == 2 and summary["records"] == 4
        assert engine_calls == [(3, 32, 32), (2, 3, 32, 32)] * 2

    @pytest.mark.parametrize("fault", ["missing", "wrong-size"])
    def test_every_image_checked_before_the_first_forward(
            self, tmp_path, model, engine_calls, monkeypatch, fault):
        records, _ = self._setup(tmp_path, model)
        last = tmp_path / "last.ppm"
        if fault == "wrong-size":
            write_ppm(np.zeros((16, 16, 3), dtype=np.uint8), last)
        records.append({"image": str(last), "bbox": (4, 4, 20, 20),
                        "label": 0})
        forwards = []
        monkeypatch.setattr(pipeline, "forward",
                            lambda *args: forwards.append(args))
        error, match = ((FileNotFoundError, "last.ppm") if fault == "missing"
                        else (ShapeError, f"^{last}: image shape "))
        with pytest.raises(error, match=match):
            pipeline.evaluate_manifest(model, records, small())
        assert forwards == [] and engine_calls == []

    @staticmethod
    def _per_record_summary(model, records, request, frac):
        """The summary from a loop that predicts each record on its own."""
        ious, sals, zeros = [], [], 0
        tops = {} if request.scores_layers else None
        for rec in records:
            img = pipeline.image_from_rgb(read_ppm(rec["image"]))
            pred = int(np.argmax(forward(model, img)))
            if pred != rec["label"]:
                continue
            result = pipeline.explain(model, img, request, class_index=pred)
            heat = result.heatmap.values
            zeros += not heat.any()
            if tops is not None:
                scores = result.report.scores
                top = max(scores, key=scores.get)
                tops[top] = tops.get(top, 0) + 1
            truth = pipeline.bbox_mask(rec["bbox"], 32, 32)
            ious.append(metrics.iou(metrics.threshold_heatmap(heat, frac),
                                    truth))
            sals.append(metrics.saliency_score(heat, truth))
        n = len(ious)
        return {"records": len(records), "correct": n,
                "accuracy": n / len(records),
                "mean_iou": sum(ious) / n if n else 0.0,
                "mean_saliency": sum(sals) / n if n else 0.0,
                "iou_threshold_frac": frac, "zero_heatmaps": zeros,
                "no_informative_layers": 0, "top_layers": tops}

    @pytest.mark.parametrize("method", ["icam", "gradcam"])
    def test_prediction_matches_per_record_loop(
            self, tmp_path, model, monkeypatch, method):
        records, _ = self._setup(tmp_path, model, n_images=7)
        forwards = []

        def counted(m, image):
            forwards.append(image.shape)
            return forward(m, image)

        monkeypatch.setattr(pipeline, "forward", counted)
        req = small(method)
        summary = pipeline.evaluate_manifest(model, records, req,
                                             iou_threshold_frac=0.3)
        assert forwards == [(3, 32, 32)] * 7   # one forward per record
        expected = self._per_record_summary(model, records, req, 0.3)
        assert summary["correct"] == 4
        assert summary == expected   # exact float equality

    def test_unknown_layer_rejected_without_correct_predictions(
            self, tmp_path, model):
        records, _ = self._setup(tmp_path, model, n_images=1)
        records[0]["label"] = (records[0]["label"] + 2) % 5
        with pytest.raises(pipeline.UnknownLayerError, match="block9"):
            pipeline.evaluate_manifest(
                model, records, cam.CamRequest("gradcam", layers=("block9",)))

    def test_empty_records_rejected(self, model):
        with pytest.raises(pipeline.ManifestError, match="^empty manifest$"):
            pipeline.evaluate_manifest(model, [], cam.CamRequest("gradcam"))

    @pytest.mark.parametrize("frac", [2.0, -1.0, 0.0, 1.0])
    @pytest.mark.parametrize("correct", [False, True])
    def test_bad_fraction_rejected_before_any_record_is_read(
            self, tmp_path, model, engine_calls, monkeypatch, frac, correct):
        records, _ = self._setup(tmp_path, model, n_images=1)
        if not correct:
            records[0]["label"] = (records[0]["label"] + 2) % 5
        read = []
        monkeypatch.setattr(pipeline, "read_ppm", read.append)
        with pytest.raises(ValueError, match=r"frac must be in \(0,1\)"):
            pipeline.evaluate_manifest(model, records, cam.CamRequest("gradcam"),
                                       iou_threshold_frac=frac)
        assert read == [] and engine_calls == []
