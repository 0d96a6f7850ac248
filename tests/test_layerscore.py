import numpy as np
import pytest

from icam import layerscore, metrics
from icam.model import ForwardTrace, build_fixture_model, forward_trace
from icam.perturb import PerturbationConfig, generate_set
from oracles import naive_bilinear_resize, naive_channel_norm


def make_trace(image, input_gradient, activations, gradients, classes=2):
    return ForwardTrace(
        image=np.asarray(image, dtype=float),
        activations={k: np.asarray(v, dtype=float) for k, v in activations.items()},
        gradients={k: np.asarray(v, dtype=float) for k, v in gradients.items()},
        logits=np.zeros(classes),
        probabilities=np.full(classes, 1.0 / classes),
        input_gradient=np.asarray(input_gradient, dtype=float),
        class_index=0,
    )


class TestPhi:
    def test_zero_gradients(self):
        tr = make_trace(np.ones((1, 2, 2)), np.zeros((1, 2, 2)),
                        {"L": np.ones((1, 2, 2))}, {"L": np.zeros((1, 2, 2))})
        assert np.array_equal(layerscore.phi(tr, "L"), np.zeros((1, 2, 2)))

    def test_elementwise_product_then_relu(self):
        a = [[[1.0, -1.0], [2.0, 0.0]]]
        g = [[[1.0, 1.0], [-1.0, 1.0]]]
        tr = make_trace(np.ones((1, 2, 2)), np.zeros((1, 2, 2)),
                        {"L": a}, {"L": g})
        assert np.array_equal(layerscore.phi(tr, "L"),
                              [[[1.0, 0.0], [0.0, 0.0]]])

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(0)
        a, g = rng.normal(size=(3, 4, 4)), rng.normal(size=(3, 4, 4))
        tr = make_trace(np.ones((1, 4, 4)), np.zeros((1, 4, 4)),
                        {"L": a}, {"L": g})
        got = layerscore.phi(tr, "L")
        for k in range(3):
            for i in range(4):
                for j in range(4):
                    assert got[k, i, j] == max(a[k, i, j] * g[k, i, j], 0.0)

    def test_unknown_layer(self):
        tr = make_trace(np.ones((1, 2, 2)), np.zeros((1, 2, 2)),
                        {"L": np.ones((1, 2, 2))}, {"L": np.ones((1, 2, 2))})
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
        tr = forward_trace(fixture_model, np.stack([img, img, img]))
        scores = layerscore.layer_importance(tr, [0.0, 0.0])
        assert all(v == 0.0 for v in scores.values())

    def test_constructed_zero_distance(self):
        # row 1's phi map engineered to equal row 0's input-saliency map R
        img = np.random.default_rng(3).random((2, 4, 4))
        grad = np.random.default_rng(4).normal(size=(2, 4, 4))
        ref = layerscore.channel_norm_map(img * grad)
        tr = make_trace(np.stack([img, img]), grad,
                        {"L": np.stack([np.zeros((1, 4, 4)), ref[None]])},
                        {"L": np.stack([np.zeros((1, 4, 4)),
                                        np.ones((1, 4, 4))])})
        scores = layerscore.layer_importance(tr, [1.0])
        assert scores["L"] == 0.0

    def test_matches_naive_pipeline_oracle(self):
        model = build_fixture_model(42)
        img = np.random.default_rng(5).random((3, 32, 32))
        c = forward_trace(model, img).class_index
        perturbed = generate_set(img, PerturbationConfig(n=2, alpha=0.4,
                                                         seed=42))
        tr = forward_trace(model, np.concatenate([img[None], perturbed]),
                           class_index=c)
        weights = [metrics.perturbation_weight(img, p, tr.probabilities[0], q)
                   for p, q in zip(perturbed, tr.probabilities[1:])]
        got = layerscore.layer_importance(tr, weights)

        # the oracle runs the image, and each perturbation after it, through
        # the engine on its own
        orig = forward_trace(model, img[None])
        traces = [forward_trace(model, np.stack([img, p]), class_index=c)
                  for p in perturbed]
        ref_map = naive_channel_norm(img * orig.input_gradient)
        for layer in model.spec.scoring_points:
            expected = 0.0
            for w, t in zip(weights, traces):
                p = naive_channel_norm(
                    np.maximum(t.activations[layer][1] * t.gradients[layer][1],
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
        tr = forward_trace(fixture_model, np.stack([img, img]))
        with pytest.raises(ValueError):
            layerscore.layer_importance(tr, [1.0, 2.0])

    def test_no_perturbed_rows_rejected(self, fixture_model):
        tr = forward_trace(fixture_model, np.zeros((1, 3, 32, 32)))
        with pytest.raises(ValueError, match="at least one"):
            layerscore.layer_importance(tr, [])


class TestFilterLayers:
    def test_worked_example(self):
        scores = {"a": 0.5, "b": 0.3, "c": 0.15, "d": 0.05}
        assert layerscore.filter_layers(scores, 0.95) == ["a", "b", "c"]

    def test_threshold_one_keeps_all_informative(self):
        # zero-score layers are never needed to reach the cumulative total
        scores = {"a": 0.5, "b": 0.3, "c": 0.0, "d": 0.2}
        assert set(layerscore.filter_layers(scores, 1.0)) == {"a", "b", "d"}

    def test_single_layer(self):
        assert layerscore.filter_layers({"only": 2.0}, 0.95) == ["only"]

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="no informative layers"):
            layerscore.filter_layers({"a": 0.0, "b": 0.0}, 0.95)

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            scores = {f"l{i}": float(v)
                      for i, v in enumerate(rng.random(5) + 1e-3)}
            scaled = {k: 7.25 * v for k, v in scores.items()}
            assert layerscore.filter_layers(scores) == \
                layerscore.filter_layers(scaled)

    def test_prefix_minimality(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            scores = {f"l{i}": float(v)
                      for i, v in enumerate(rng.random(6) + 1e-3)}
            t = float(rng.uniform(0.3, 0.99))
            sel = layerscore.filter_layers(scores, t)
            total = sum(scores.values())
            cum = sum(scores[n] for n in sel)
            assert cum >= t * total
            if len(sel) > 1:
                assert cum - scores[sel[-1]] < t * total

    def test_stable_tie_break(self):
        scores = {"first": 0.5, "second": 0.5}
        assert layerscore.filter_layers(scores, 0.4) == ["first"]


class TestLayerWeights:
    def test_worked_example(self):
        scores = {"a": 0.5, "b": 0.3, "c": 0.15, "d": 0.05}
        w = layerscore.layer_weights(scores, ["a", "b", "c"])
        assert abs(w["a"] - 10 / 19) < 1e-12
        assert abs(w["b"] - 6 / 19) < 1e-12
        assert abs(w["c"] - 3 / 19) < 1e-12

    def test_single_selected(self):
        assert layerscore.layer_weights({"a": 0.4, "b": 0.1}, ["a"]) == {"a": 1.0}

    def test_equal_scores_equal_weights(self):
        w = layerscore.layer_weights({"a": 0.2, "b": 0.2}, ["a", "b"])
        assert w["a"] == w["b"] == 0.5

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            scores = {f"l{i}": float(v)
                      for i, v in enumerate(rng.random(5) + 1e-3)}
            sel = layerscore.filter_layers(scores)
            w = layerscore.layer_weights(scores, sel)
            assert abs(sum(w.values()) - 1.0) < 1e-12
            assert all(v > 0 for v in w.values())

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            layerscore.layer_weights({"a": 1.0}, [])


def test_report_json_round_trip(fixture_model):
    import json
    img = np.random.default_rng(9).random((3, 32, 32))
    tr = forward_trace(fixture_model, np.stack([img, img]))
    report = layerscore.score_layers(tr, [0.5])
    parsed = json.loads(json.dumps(report.to_json_dict(n=1, alpha=0.4,
                                                       seed=9)))
    assert set(parsed) == {"scores", "selected", "weights", "threshold",
                           "n", "alpha", "seed"}
    assert abs(sum(parsed["weights"].values()) - 1.0) < 1e-12
