import numpy as np
import pytest

from icam import layerscore, metrics
from icam.model import (ForwardTrace, build_fixture_model, forward_trace,
                        input_gradient, trace_perturbations)
from icam.cam import CamRequest
from icam.perturb import generate_set
from oracles import naive_bilinear_resize, naive_channel_norm


def make_trace(image, activations, gradients, classes=2):
    return ForwardTrace(
        image=np.asarray(image, dtype=float),
        activations={k: np.asarray(v, dtype=float) for k, v in activations.items()},
        gradients={k: np.asarray(v, dtype=float) for k, v in gradients.items()},
        logits=np.zeros(classes),
        probabilities=np.full(classes, 1.0 / classes),
        class_index=0,
    )


def saliency_and_maps(model, img, perturbed):
    """The image's saliency I * dY^c/dI and its perturbations' stacked maps,
    traced as one block."""
    tr = forward_trace(model, img)
    block = trace_perturbations(model, perturbed, tr.class_index)
    return img * input_gradient(model, tr), layerscore.perturbation_maps(block)


class TestPhi:
    def test_zero_gradients(self):
        tr = make_trace(np.ones((1, 2, 2)), {"L": np.ones((1, 2, 2))},
                        {"L": np.zeros((1, 2, 2))})
        assert np.array_equal(layerscore.phi(tr, "L"), np.zeros((1, 2, 2)))

    def test_elementwise_product_then_relu(self):
        a = [[[1.0, -1.0], [2.0, 0.0]]]
        g = [[[1.0, 1.0], [-1.0, 1.0]]]
        tr = make_trace(np.ones((1, 2, 2)), {"L": a}, {"L": g})
        assert np.array_equal(layerscore.phi(tr, "L"),
                              [[[1.0, 0.0], [0.0, 0.0]]])

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(0)
        a, g = rng.normal(size=(3, 4, 4)), rng.normal(size=(3, 4, 4))
        tr = make_trace(np.ones((1, 4, 4)), {"L": a}, {"L": g})
        got = layerscore.phi(tr, "L")
        for k in range(3):
            for i in range(4):
                for j in range(4):
                    assert got[k, i, j] == max(a[k, i, j] * g[k, i, j], 0.0)

    def test_unknown_layer(self):
        tr = make_trace(np.ones((1, 2, 2)), {"L": np.ones((1, 2, 2))},
                        {"L": np.ones((1, 2, 2))})
        with pytest.raises(KeyError):
            layerscore.phi(tr, "missing")


class TestChannelNormMap:
    def test_single_channel_is_abs(self):
        t = np.array([[[-3.0, 2.0], [0.0, -1.0]]])
        assert np.array_equal(layerscore.channel_norm_map(t), np.abs(t[0]))

    def test_three_four_five(self):
        t = np.zeros((2, 1, 1))
        t[0, 0, 0], t[1, 0, 0] = 3.0, 4.0
        assert layerscore.channel_norm_map(t)[0, 0] == 5.0

    def test_matches_loop_oracle(self):
        t = np.random.default_rng(1).normal(size=(5, 6, 6))
        assert np.max(np.abs(layerscore.channel_norm_map(t)
                             - naive_channel_norm(t))) < 1e-14


class TestLayerImportance:
    def test_zero_weights_zero_scores(self, fixture_model):
        img = np.random.default_rng(2).random((3, 32, 32))
        saliency, maps = saliency_and_maps(fixture_model, img,
                                           np.stack([img, img]))
        scores = layerscore.layer_importance(saliency, maps, [0.0, 0.0])
        assert all(v == 0.0 for v in scores.values())

    def test_constructed_zero_distance(self):
        # a perturbation's phi map engineered to equal the image's
        # input-saliency map R
        img = np.random.default_rng(3).random((2, 4, 4))
        grad = np.random.default_rng(4).normal(size=(2, 4, 4))
        ref = layerscore.channel_norm_map(img * grad)
        block = make_trace(img[None], {"L": ref[None, None]},
                           {"L": np.ones((1, 1, 4, 4))})
        scores = layerscore.layer_importance(
            img * grad, layerscore.perturbation_maps(block), [1.0])
        assert scores["L"] == 0.0

    def test_matches_naive_pipeline_oracle(self):
        model = build_fixture_model(42)
        img = np.random.default_rng(5).random((3, 32, 32))
        c = forward_trace(model, img).class_index
        perturbed = generate_set(img, CamRequest(n=2, alpha=0.4,
                                                         seed=42))
        tr = forward_trace(model, img, c)
        block = trace_perturbations(model, perturbed, c)
        weights = [metrics.perturbation_weight(img, p, tr.probabilities[0], q)
                   for p, q in zip(perturbed, block.probabilities)]
        got = layerscore.layer_importance(
            img * input_gradient(model, tr),
            layerscore.perturbation_maps(block), weights)

        # the oracle runs the image, and each perturbation after it, through
        # the engine on its own
        orig = forward_trace(model, img)
        traces = [trace_perturbations(model, p[None], c) for p in perturbed]
        ref_map = naive_channel_norm(img * input_gradient(model, orig))
        for layer in model.spec.scoring_points:
            expected = 0.0
            for w, t in zip(weights, traces):
                p = naive_channel_norm(
                    np.maximum(t.activations[layer][0] * t.gradients[layer][0],
                               0.0))
                if p.shape != ref_map.shape:
                    p = naive_bilinear_resize(p, 32, 32)
                acc = 0.0
                for i in range(32):
                    for j in range(32):
                        acc += (ref_map[i, j] - p[i, j]) ** 2
                expected += w * np.sqrt(acc)
            assert abs(got[layer] - expected) < 1e-10

    def test_length_mismatch(self, fixture_model):
        img = np.zeros((3, 32, 32))
        saliency, maps = saliency_and_maps(fixture_model, img, img[None])
        with pytest.raises(ValueError):
            layerscore.layer_importance(saliency, maps, [1.0, 2.0])

    def test_no_perturbed_rows_rejected(self, fixture_model):
        img = np.zeros((3, 32, 32))
        saliency, maps = saliency_and_maps(fixture_model, img, img[None])
        with pytest.raises(ValueError, match="at least one"):
            layerscore.layer_importance(
                saliency, {k: v[:0] for k, v in maps.items()}, [])


def selected(scores, threshold=CamRequest().threshold):
    return list(layerscore.select_layers(scores, threshold))


class TestFilterLayers:
    """select_layers' selection: its keys, in selection order."""

    def test_worked_example(self):
        scores = {"a": 0.5, "b": 0.3, "c": 0.15, "d": 0.05}
        assert selected(scores, 0.95) == ["a", "b", "c"]

    def test_threshold_one_keeps_all_informative(self):
        # zero-score layers are never needed to reach the cumulative total
        scores = {"a": 0.5, "b": 0.3, "c": 0.0, "d": 0.2}
        assert set(selected(scores, 1.0)) == {"a", "b", "d"}

    def test_single_layer(self):
        assert selected({"only": 2.0}, 0.95) == ["only"]

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="no informative layers"):
            layerscore.select_layers({"a": 0.0, "b": 0.0}, 0.95)

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            scores = {f"l{i}": float(v)
                      for i, v in enumerate(rng.random(5) + 1e-3)}
            scaled = {k: 7.25 * v for k, v in scores.items()}
            assert selected(scores) == selected(scaled)

    def test_prefix_minimality(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            scores = {f"l{i}": float(v)
                      for i, v in enumerate(rng.random(6) + 1e-3)}
            t = float(rng.uniform(0.3, 0.99))
            sel = selected(scores, t)
            total = sum(scores.values())
            cum = sum(scores[n] for n in sel)
            assert cum >= t * total
            if len(sel) > 1:
                assert cum - scores[sel[-1]] < t * total

    def test_stable_tie_break(self):
        scores = {"first": 0.5, "second": 0.5}
        assert selected(scores, 0.4) == ["first"]

    @pytest.mark.parametrize("threshold", [0.0, -0.5, 1.0 + 1e-12, 2.0])
    def test_threshold_outside_unit_interval(self, threshold):
        # T is checked where it is set, with the scorer's other settings
        with pytest.raises(ValueError, match=r"threshold must be in \(0,1\]"):
            CamRequest(threshold=threshold)


class TestLayerWeights:
    """select_layers' weights: W_l = S_l / the selected scores' sum."""

    def test_worked_example(self):
        scores = {"a": 0.5, "b": 0.3, "c": 0.15, "d": 0.05}
        w = layerscore.select_layers(scores, 0.95)
        assert abs(w["a"] - 10 / 19) < 1e-12
        assert abs(w["b"] - 6 / 19) < 1e-12
        assert abs(w["c"] - 3 / 19) < 1e-12

    def test_single_selected(self):
        assert layerscore.select_layers({"a": 0.4, "b": 0.1}, 0.5) == \
            {"a": 1.0}

    def test_equal_scores_equal_weights(self):
        w = layerscore.select_layers({"a": 0.2, "b": 0.2}, 1.0)
        assert w["a"] == w["b"] == 0.5

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            scores = {f"l{i}": float(v)
                      for i, v in enumerate(rng.random(5) + 1e-3)}
            w = layerscore.select_layers(scores, CamRequest().threshold)
            assert abs(sum(w.values()) - 1.0) < 1e-12
            assert all(v > 0 for v in w.values())

    def test_divides_by_the_left_to_right_selected_sum(self):
        # bit for bit the division by the selected scores added in
        # selection order, one float addition at a time
        rng = np.random.default_rng(10)
        for _ in range(100):
            scores = {f"l{i}": float(v)
                      for i, v in enumerate(rng.random(6) + 1e-3)}
            w = layerscore.select_layers(scores, float(rng.uniform(0.3, 1.0)))
            total = 0.0
            for name in w:
                total += scores[name]
            assert w == {name: scores[name] / total for name in w}


class TestNoInformativeLayers:
    """The error names which cause emptied the scores."""

    def test_zero_perturbation_weights(self, fixture_model):
        img = np.random.default_rng(9).random((3, 32, 32))
        saliency, maps = saliency_and_maps(fixture_model, img,
                                           np.stack([img, img]))
        with pytest.raises(layerscore.NoInformativeLayersError,
                           match="^no informative layers: every perturbation "
                                 "weight is zero"):
            layerscore.score_layers(saliency, maps, np.zeros(2),
                                    CamRequest(n=2))

    def test_zero_perturbation_weights_score_no_layer(self, fixture_model,
                                                      monkeypatch):
        # zero weights zero every score, so the layers are not scored at all
        calls = []
        importance = layerscore.layer_importance

        def counting(*args):
            calls.append(args)
            return importance(*args)

        monkeypatch.setattr(layerscore, "layer_importance", counting)
        img = np.random.default_rng(9).random((3, 32, 32))
        saliency, maps = saliency_and_maps(fixture_model, img,
                                           np.stack([img, img]))
        with pytest.raises(layerscore.NoInformativeLayersError,
                           match="every perturbation weight is zero"):
            layerscore.score_layers(saliency, maps, np.zeros(2),
                                    CamRequest(n=2))
        assert len(calls) == 0
        layerscore.score_layers(saliency, maps, np.array([0.0, 0.5]),
                                CamRequest(n=2))
        assert len(calls) == 1

    def test_saturated_head_keeps_the_scores_message(self):
        # head scaled by 10^3: the weights are non-zero, the gradients are 0
        model = build_fixture_model(42)
        for name in ("head.weight", "head.bias"):
            model.weights[name] = 1e3 * model.weights[name]
        img = np.random.default_rng(0).random((3, 32, 32))
        perturbed = generate_set(img, CamRequest())
        tr = forward_trace(model, img)
        block = trace_perturbations(model, perturbed, tr.class_index)
        weights = metrics.perturbation_weight(img, perturbed,
                                              tr.probabilities[0],
                                              block.probabilities)
        assert weights.all()
        with pytest.raises(layerscore.NoInformativeLayersError,
                           match="^no informative layers: all scores are "
                                 "zero"):
            layerscore.score_layers(img * input_gradient(model, tr),
                                    layerscore.perturbation_maps(block),
                                    weights, CamRequest())


def test_report_json_round_trip(fixture_model):
    import json
    img = np.random.default_rng(9).random((3, 32, 32))
    saliency, maps = saliency_and_maps(fixture_model, img, img[None])
    config = CamRequest(n=1, alpha=0.4, seed=9, threshold=0.5)
    report = layerscore.score_layers(saliency, maps, [0.5], config)
    parsed = json.loads(json.dumps(report.to_json_dict()))
    assert set(parsed) == {"scores", "selected", "weights", "threshold",
                           "n", "alpha", "seed"}
    assert (parsed["n"], parsed["alpha"], parsed["seed"],
            parsed["threshold"]) == (1, 0.4, 9, 0.5)
    assert abs(sum(parsed["weights"].values()) - 1.0) < 1e-12
    # the selection in descending-score order, as select_layers made it
    assert parsed["selected"] == selected(report.scores, 0.5)
