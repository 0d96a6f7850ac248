import json

import numpy as np
import pytest

from icam import cam, layerscore
from icam import tensor as T
from icam.model import build_fixture_model, forward_trace
from icam.render import normalize_minmax
from oracles import (naive_bilinear_resize, naive_generalized_alpha,
                     naive_gradcam_map, naive_gradcampp_map, naive_icam_map,
                     naive_layercam_map)


@pytest.fixture(scope="module")
def logit_trace():
    model = build_fixture_model(7)
    img = np.random.default_rng(0).random((3, 32, 32))
    return forward_trace(model, img)


def layer_map(trace, layer, method, **kw):
    return cam.single_layer_map(trace, cam.CamRequest(method, **kw), layer)


def softmax_table(logits, c):
    """The softmax table at logits[c], read at the probability softmax gives."""
    return cam.smooth_table("softmax", float(logits[c]),
                            float(T.softmax(logits)[c]))


class TestSmoothTables:
    def test_identity(self):
        # the identity's f'' = f''' = 0 make alpha 0/0; it has no table
        with pytest.raises(ValueError, match="unknown smooth 'identity'"):
            cam.smooth_table("identity", 3.5, 0.5)

    def test_exp(self):
        y, f1, f2, f3 = cam.smooth_table("exp", 1.25, 0.5)
        e = np.exp(1.25)
        assert y == f1 == f2 == f3 == e

    def test_softmax_half_probability_spot(self):
        # two equal logits give Y = 0.5 and (f', f'', f''') = (0.25, 0, -0.125)
        y, f1, f2, f3 = softmax_table(np.array([2.0, 2.0]), 0)
        assert abs(y - 0.5) < 1e-15
        assert abs(f1 - 0.25) < 1e-15
        assert abs(f2) < 1e-15
        assert abs(f3 + 0.125) < 1e-15

    def test_softmax_first_derivative_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            logits = rng.normal(size=5)
            c = int(rng.integers(0, 5))
            _, f1, _, _ = softmax_table(logits, c)
            h = 1e-6
            lp, lm = logits.copy(), logits.copy()
            lp[c] += h
            lm[c] -= h
            yp = np.exp(lp - lp.max())
            ym = np.exp(lm - lm.max())
            fd = (yp[c] / yp.sum() - ym[c] / ym.sum()) / (2 * h)
            assert abs(f1 - fd) < 1e-8

    def test_softmax_higher_orders_by_differencing_lower(self):
        # f'' and f''' agree with central differences of the analytic f'
        # and f'' tables in the target logit
        rng = np.random.default_rng(2)
        h = 1e-6
        for _ in range(20):
            logits = rng.normal(size=4)
            c = int(rng.integers(0, 4))
            _, f1, f2, f3 = softmax_table(logits, c)
            lp, lm = logits.copy(), logits.copy()
            lp[c] += h
            lm[c] -= h
            _, f1p, f2p, _ = softmax_table(lp, c)
            _, f1m, f2m, _ = softmax_table(lm, c)
            assert abs(f2 - (f1p - f1m) / (2 * h)) < 1e-7
            assert abs(f3 - (f2p - f2m) / (2 * h)) < 1e-7

    def test_table_dispatch(self):
        # exp reads only the logit, softmax only the probability
        assert cam.smooth_table("softmax", 7.0, 0.75) \
            == cam.smooth_table("softmax", -3.0, 0.75)
        assert cam.smooth_table("softmax", 0.5, 0.75)[0] == 0.75
        assert cam.smooth_table("exp", -0.5, 0.1) \
            == cam.smooth_table("exp", -0.5, 0.9)
        assert cam.smooth_table("exp", -0.5, 0.1)[0] == np.exp(-0.5)
        with pytest.raises(ValueError, match="unknown smooth"):
            cam.smooth_table("nope", 0.5, 0.75)

    @pytest.mark.parametrize("rows", [1, 9])
    def test_trace_probability_is_the_lone_softmax(self, rows):
        # I-CAM reads Y from the trace: bit for bit the softmax of the
        # image's logits alone, for a lone image and after automatic I-CAM
        # scores its trace with 8 perturbations
        rng = np.random.default_rng(rows)
        for seed in (42, 7, 3):
            model = build_fixture_model(seed)
            for _ in range(5):
                image = rng.random((3, 32, 32))
                tr = forward_trace(model, image)
                if rows > 1:
                    layerscore.score_layers(model, tr,
                                            cam.CamRequest(n=rows - 1))
                e = np.exp(tr.logits[0] - tr.logits[0].max())
                c = tr.class_index
                assert tr.probabilities[0, c] == e[c] / e.sum()


class TestGradCam:
    def test_analytic_weights_on_linear_head(self):
        from conftest import make_gap_linear_model
        model = make_gap_linear_model()
        img = np.random.default_rng(3).random((4, 6, 6)) + 0.1
        tr = forward_trace(model, img, class_index=1)
        w = model.weights["head.weight"][1] / 36.0
        expected = np.maximum((w[:, None, None] * img).sum(axis=0), 0.0)
        got = layer_map(tr, "block1", "gradcam")
        assert np.max(np.abs(got - expected)) < 1e-10

    def test_zero_gradient_gives_zero_map(self, logit_trace):
        tr = logit_trace
        zeroed = type(tr)(tr.image, tr.activations,
                          {k: np.zeros_like(v) for k, v in tr.gradients.items()},
                          tr.logits, tr.probabilities, tr.class_index)
        out = layer_map(zeroed, "block2", "gradcam")
        assert np.array_equal(out, np.zeros_like(out))

    def test_matches_loop_oracle(self, logit_trace):
        a = logit_trace.activations["block2"][0]
        g = logit_trace.gradients["block2"][0]
        got = layer_map(logit_trace, "block2", "gradcam")
        k, h, w = a.shape
        ref = np.zeros((h, w))
        for i in range(h):
            for j in range(w):
                acc = 0.0
                for ch in range(k):
                    acc += g[ch].mean() * a[ch, i, j]
                ref[i, j] = max(acc, 0.0)
        assert np.max(np.abs(got - ref)) < 1e-12

    def test_unknown_layer(self, logit_trace):
        with pytest.raises(KeyError):
            layer_map(logit_trace, "block9", "gradcam")


class TestLayerCam:
    def test_matches_loop_oracle(self, logit_trace):
        a = logit_trace.activations["block3"][0]
        g = logit_trace.gradients["block3"][0]
        got = layer_map(logit_trace, "block3", "layercam")
        k, h, w = a.shape
        ref = np.zeros((h, w))
        for i in range(h):
            for j in range(w):
                acc = 0.0
                for ch in range(k):
                    acc += max(g[ch, i, j], 0.0) * a[ch, i, j]
                ref[i, j] = max(acc, 0.0)
        assert np.max(np.abs(got - ref)) < 1e-12

    def test_nonnegative_gradients_and_activations_pass_through(self):
        from icam.model import ForwardTrace
        a = np.abs(np.random.default_rng(4).normal(size=(2, 3, 3)))
        g = np.abs(np.random.default_rng(5).normal(size=(2, 3, 3)))
        tr = ForwardTrace(np.zeros((1, 1, 3, 3)), {"L": a[None]},
                          {"L": g[None]}, np.zeros((1, 2)),
                          np.full((1, 2), 0.5), 0)
        got = layer_map(tr, "L", "layercam")
        assert np.max(np.abs(got - (g * a).sum(axis=0))) < 1e-14


class TestGeneralizedAlpha:
    def test_zero_second_derivative_gives_zero(self):
        g = np.random.default_rng(6).normal(size=(2, 4, 4))
        a = np.random.default_rng(7).random((2, 4, 4))
        alpha = cam.generalized_alpha(0.0, -0.125, g, a)
        assert np.array_equal(alpha, np.zeros_like(g))

    def test_uniform_fields_hand_value(self):
        # constant A = a0, g = g0 with f'' = f''' = 1:
        # alpha = g0^2 / (2 g0^2 + N a0 g0^3) = 1 / (2 + N a0 g0)
        n, a0, g0 = 9, 0.7, 0.3
        g = np.full((1, 3, 3), g0)
        a = np.full((1, 3, 3), a0)
        alpha = cam.generalized_alpha(1.0, 1.0, g, a)
        assert np.max(np.abs(alpha - 1.0 / (2.0 + n * a0 * g0))) < 1e-14

    def test_exp_smooth_reduces_to_classic_form(self):
        # with f'' = f''' = e^s the factor cancels:
        # alpha = g^2 / (2 g^2 + sum_ij A g^3)
        rng = np.random.default_rng(8)
        g = rng.normal(size=(3, 5, 5))
        a = rng.random((3, 5, 5))
        e = float(np.exp(1.3))
        got = cam.generalized_alpha(e, e, g, a)
        num = g * g
        den = 2 * num + (a * g ** 3).sum(axis=(1, 2), keepdims=True)
        ref = np.where(np.abs(e * den) >= cam.ALPHA_EPS, num / den, 0.0)
        assert np.max(np.abs(got - ref)) < 1e-10

    def test_small_denominator_guard(self):
        g = np.zeros((1, 2, 2))
        a = np.ones((1, 2, 2))
        alpha = cam.generalized_alpha(1.0, 1.0, g, a)
        assert np.array_equal(alpha, np.zeros_like(g))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(9)
        f2, f3 = 0.21, -0.05
        g = rng.normal(size=(2, 4, 4))
        a = rng.random((2, 4, 4))
        got = cam.generalized_alpha(f2, f3, g, a)
        ref = naive_generalized_alpha(f2, f3, g, a, cam.ALPHA_EPS)
        assert np.max(np.abs(got - ref)) < 1e-12


class TestIcamWeights:
    def test_elementwise_formula(self):
        rng = np.random.default_rng(10)
        alpha = rng.normal(size=(2, 3, 3))
        g = rng.normal(size=(2, 3, 3))
        f1 = 0.2
        got = cam.icam_weights(alpha, f1, g)
        for k in range(2):
            for i in range(3):
                for j in range(3):
                    ref = np.tanh(alpha[k, i, j]) \
                        * max(f1 * g[k, i, j], 0.0)
                    assert abs(got[k, i, j] - ref) < 1e-15

    def test_negative_gradient_positions_are_zero(self):
        alpha = np.ones((1, 2, 2))
        g = -np.ones((1, 2, 2))
        assert np.array_equal(cam.icam_weights(alpha, 1.0, g),
                              np.zeros((1, 2, 2)))


class TestBiasTerm:
    def test_zero_weights_channel_bias_is_logit(self):
        a = np.random.default_rng(11).random((3, 4, 4))
        b = cam.bias_term(2.5, np.zeros_like(a), a)
        assert np.array_equal(b, np.full(3, 2.5))

    def test_channel_product_of_sums_hand_case(self):
        w = np.array([[[1.0, 2.0], [0.0, 1.0]]])   # sum = 4
        a = np.array([[[0.5, 0.5], [1.0, 1.0]]])   # sum = 3
        b = cam.bias_term(10.0, w, a)
        assert b.shape == (1,)
        assert b[0] == 10.0 - 4.0 * 3.0

    def test_bad_mode_and_shape(self):
        # the mode is checked where the request is made; bias_term takes
        # only the channel form's inputs
        with pytest.raises(ValueError, match="unknown bias mode"):
            cam.CamRequest("icam", bias="spatial")
        with pytest.raises(ValueError, match="shape mismatch"):
            cam.bias_term(0.0, np.zeros((1, 2, 2)), np.zeros((2, 2, 2)))


class TestIcamLayerMap:
    def _golden(self, tr, layer, bias_mode):
        a = tr.activations[layer][0]
        g = tr.gradients[layer][0]
        _, f1, f2, f3 = softmax_table(tr.logits[0], tr.class_index)
        alpha = cam.generalized_alpha(f2, f3, g, a)
        w = np.tanh(alpha) * np.maximum(f1 * g, 0.0)
        raw = np.zeros(a.shape[1:])
        for k in range(a.shape[0]):
            raw += w[k] * a[k]
        s_c = float(tr.logits[0][tr.class_index])
        if bias_mode == "channel":
            raw = raw + sum(s_c - w[k].sum() * a[k].sum()
                            for k in range(a.shape[0]))
        return np.maximum(raw, 0.0)

    @pytest.mark.parametrize("bias_mode", ["none", "channel"])
    def test_matches_golden_reimplementation(self, logit_trace, bias_mode):
        got = layer_map(logit_trace, "block2", "icam", bias=bias_mode)
        ref = self._golden(logit_trace, "block2", bias_mode)
        assert np.max(np.abs(got - ref)) < 1e-10

    def test_bias_changes_the_map(self):
        # mixed-sign pre-relu map so a bias shift is visible after the relu
        from icam.model import ForwardTrace
        rng = np.random.default_rng(13)
        a = rng.normal(size=(2, 4, 4))
        g = rng.normal(size=(2, 4, 4))
        tr = ForwardTrace(np.zeros((1, 1, 4, 4)), {"L": a[None]},
                          {"L": g[None]}, np.array([[2.0, -1.0]]),
                          np.array([[0.95, 0.05]]), 0)
        none = layer_map(tr, "L", "icam", bias="none")
        chan = layer_map(tr, "L", "icam", bias="channel")
        assert not np.array_equal(none, chan)

    def test_nonnegative_output(self, logit_trace):
        for layer in ("block1", "block2", "block3"):
            assert layer_map(logit_trace, layer, "icam").min() >= 0.0


class TestFuse:
    def test_single_layer_is_normalized_upsample(self, logit_trace):
        hm = layer_map(logit_trace, "block2", "gradcam")
        fused = cam.fuse({"block2": hm}, {"block2": 1.0}, 32, 32)
        ref = normalize_minmax(normalize_minmax(
            naive_bilinear_resize(hm, 32, 32)))
        assert np.max(np.abs(fused.values - ref)) < 1e-10

    def test_identical_maps_any_weights(self):
        h = np.random.default_rng(14).random((8, 8))
        f1 = cam.fuse({"a": h, "b": h}, {"a": 0.9, "b": 0.1}, 8, 8)
        f2 = cam.fuse({"a": h, "b": h}, {"a": 0.5, "b": 0.5}, 8, 8)
        assert np.max(np.abs(f1.values - f2.values)) < 1e-12

    def test_three_layer_loop_oracle(self, logit_trace):
        maps = {l: layer_map(logit_trace, l, "icam")
                for l in ("block1", "block2", "block3")}
        weights = {"block1": 0.5, "block2": 0.3, "block3": 0.2}
        got = cam.fuse(maps, weights, 32, 32).values
        acc = np.zeros((32, 32))
        for name, w_l in weights.items():
            up = naive_bilinear_resize(maps[name], 32, 32)
            acc += w_l * normalize_minmax(up)
        ref = normalize_minmax(acc)
        assert np.max(np.abs(got - ref)) < 1e-10

    def test_output_in_unit_range(self, logit_trace):
        maps = {l: layer_map(logit_trace, l, "gradcam")
                for l in ("block1", "block3")}
        out = cam.fuse(maps, {"block1": 0.6, "block3": 0.4}, 32, 32).values
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_missing_map_rejected(self):
        h = np.ones((2, 2))
        with pytest.raises(KeyError):
            cam.fuse({"a": h}, {"a": 0.5, "b": 0.5}, 4, 4)


class TestRequestAndDispatch:
    def test_default_smooths(self):
        # the request holds the values that run: icam's, or none at all
        for method in ("gradcam", "gradcampp", "layercam"):
            req = cam.CamRequest(method)
            assert (req.smooth, req.bias) == (None, None)
        req = cam.CamRequest("icam")
        assert (req.smooth, req.bias) == ("softmax", "channel")
        req = cam.CamRequest("icam", smooth="exp", bias="none")
        assert (req.smooth, req.bias) == ("exp", "none")

    def test_icam_defaults_equal_their_explicit_values(self):
        # one map, one request value: the defaults are filled in, not kept
        implicit = cam.CamRequest("icam")
        explicit = cam.CamRequest("icam", smooth="softmax", bias="channel")
        assert implicit == explicit and hash(implicit) == hash(explicit)
        assert cam.CamRequest("icam", smooth="exp") \
            == cam.CamRequest("icam", smooth="exp", bias="channel")
        assert cam.CamRequest("icam", bias="none") \
            != cam.CamRequest("icam", bias="channel")

    def test_validation(self):
        with pytest.raises(ValueError):
            cam.CamRequest("fancycam")
        with pytest.raises(ValueError, match="unknown smooth"):
            cam.CamRequest("icam", smooth="log")
        with pytest.raises(ValueError):
            cam.CamRequest("icam", bias="edge")

    @pytest.mark.parametrize("method, layers", [
        ("gradcampp", None), ("gradcampp", ("block3",)), ("icam", None),
        ("icam", ("block1", "block3"))])
    def test_identity_smooth_rejected_where_alpha_is_undefined(self, method,
                                                               layers):
        # Grad-CAM++ takes no smooth, and I-CAM none whose alpha is 0/0
        match = ("unknown smooth 'identity'" if method == "icam"
                 else "icam only")
        for bias in cam.BIAS_MODES:
            with pytest.raises(ValueError, match=match):
                cam.CamRequest(method, smooth="identity", bias=bias,
                               layers=layers)

    @pytest.mark.parametrize("method", ["gradcam", "layercam"])
    def test_identity_smooth_kept_where_alpha_is_unused(self, method):
        # their fixed form is the identity's f' = 1; the request names no
        # smooth for it, and refuses the identity by name
        req = cam.CamRequest(method)
        assert req.smooth is None
        with pytest.raises(ValueError, match="icam only"):
            cam.CamRequest(method, smooth="identity")

    @pytest.mark.parametrize("method", ["gradcam", "gradcampp", "layercam"])
    def test_smooth_is_icam_only(self, method):
        for smooth in cam.SMOOTHS:
            with pytest.raises(ValueError, match="icam only"):
                cam.CamRequest(method, smooth=smooth)

    def test_methods_give_distinct_maps(self, logit_trace):
        outs = [layer_map(logit_trace, "block3", m) for m in cam.METHODS]
        for i in range(len(outs)):
            for j in range(i + 1, len(outs)):
                assert not np.allclose(outs[i], outs[j])

    @pytest.mark.parametrize("layers", [(), [], "block3", 5, (None,)])
    def test_layers_must_be_a_nonempty_sequence(self, layers):
        with pytest.raises(ValueError, match="^layers must be None or a "
                                             "non-empty sequence of layer names"):
            cam.CamRequest("gradcam", layers=layers)

    def test_list_of_layers_equals_the_tuple_request(self):
        assert cam.CamRequest("gradcam", layers=["block1", "block3"]) \
            == cam.CamRequest("gradcam", layers=("block1", "block3"))

    def test_list_of_layers_request_hashes(self):
        assert hash(cam.CamRequest("icam", layers=["block2"])) \
            == hash(cam.CamRequest("icam", layers=("block2",)))


class TestScorerSettings:
    """n, alpha, seed and T belong to automatic I-CAM, the one request that
    runs the layer scorer: it fills in their defaults and checks them, and
    every other request refuses them."""

    @pytest.mark.parametrize("name, value", [
        ("n", 2), ("alpha", 0.3), ("seed", 5), ("threshold", 0.5)])
    @pytest.mark.parametrize("method, layers", [
        ("gradcam", None), ("gradcampp", None), ("layercam", None),
        ("icam", ("block2",))],
        ids=["gradcam", "gradcampp", "layercam", "icam-named"])
    def test_refused_where_no_layers_are_scored(self, method, layers, name,
                                                value):
        with pytest.raises(ValueError) as exc:
            cam.CamRequest(method, layers=layers, **{name: value})
        assert str(exc.value) == (f"{name} applies to automatic icam only "
                                  f"(method icam, no layers named)")

    @pytest.mark.parametrize("method, layers", [
        ("gradcam", None), ("icam", ("block2",))])
    def test_non_scoring_requests_hold_none(self, method, layers):
        req = cam.CamRequest(method, layers=layers)
        assert not req.scores_layers
        assert (req.n, req.alpha, req.seed, req.threshold) == (None,) * 4

    def test_automatic_icam_fills_in_the_defaults(self):
        req = cam.CamRequest("icam")
        assert req.scores_layers
        assert (req.n, req.alpha, req.seed, req.threshold) == (8, 0.4, 42, 0.95)
        explicit = cam.CamRequest("icam", n=8, alpha=0.4, seed=42,
                                  threshold=0.95)
        assert req == explicit and hash(req) == hash(explicit)
        assert cam.CamRequest("icam", n=3) != req

    @pytest.mark.parametrize("kwargs, message", [
        ({"n": 0}, "n must be an integer >= 1, got 0"),
        ({"n": 2.0}, "n must be an integer >= 1, got 2.0"),
        ({"n": True}, "n must be an integer >= 1, got True"),
        ({"n": "2"}, "n must be an integer >= 1, got '2'"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": False}, "seed must be an integer, got False"),
        ({"alpha": -0.1}, "alpha must be in [0,1], got -0.1"),
        ({"alpha": float("nan")}, "alpha must be in [0,1], got nan"),
        ({"alpha": "x"}, "alpha must be in [0,1], got 'x'"),
        ({"alpha": True}, "alpha must be in [0,1], got True"),
        ({"threshold": 0.0}, "threshold must be in (0,1], got 0.0"),
        ({"threshold": 1.01}, "threshold must be in (0,1], got 1.01"),
        ({"threshold": True}, "threshold must be in (0,1], got True")],
        ids=["n-0", "n-float", "n-bool", "n-str", "seed-float", "seed-bool",
             "alpha-negative", "alpha-nan", "alpha-str", "alpha-bool",
             "threshold-0", "threshold-above-1", "threshold-bool"])
    def test_ill_typed_or_out_of_range_values_name_the_field(self, kwargs,
                                                             message):
        with pytest.raises(ValueError) as exc:
            cam.CamRequest("icam", **kwargs)
        assert str(exc.value) == message

    def test_numpy_scalars_run_as_python_numbers(self):
        # the sidecar's JSON writes them; an int alpha or T becomes a float
        req = cam.CamRequest("icam", n=np.int64(2), alpha=np.float32(0.5),
                             seed=np.uint64(5), threshold=1)
        assert [type(v) for v in (req.n, req.alpha, req.seed, req.threshold)] \
            == [int, float, int, float]
        assert req == cam.CamRequest("icam", n=2, alpha=0.5, seed=5,
                                     threshold=1.0)
        assert json.dumps([req.n, req.alpha, req.seed, req.threshold]) \
            == "[2, 0.5, 5, 1.0]"


class TestSingleLayerMap:
    """One formula, relu(sum_k w_k A_k + b), against per-method loops."""

    @pytest.mark.parametrize("layer", ["block1", "block2", "block3"])
    @pytest.mark.parametrize("method, bias", [
        *(pytest.param(m, None, id=m)
          for m in ("gradcam", "layercam", "gradcampp")),
        ("icam", "none"), ("icam", "channel")])
    def test_matches_loop_oracle(self, logit_trace, method, bias, layer):
        tr = logit_trace
        req = cam.CamRequest(method, bias=bias)
        a, g = tr.activations[layer][0], tr.gradients[layer][0]
        s_c = float(tr.logits[0, tr.class_index])
        # only icam reads a smooth's table; the others' forms have f' = f''
        # = f''' = 1 (Grad-CAM++'s exp closed form)
        f1 = f2 = f3 = 1.0
        if method == "icam":
            _, f1, f2, f3 = cam.smooth_table(
                req.smooth, s_c, float(T.softmax(tr.logits[0])[tr.class_index]))
        ref = {
            "gradcam": lambda: naive_gradcam_map(a, g, f1),
            "layercam": lambda: naive_layercam_map(a, g, f1),
            "gradcampp": lambda: naive_gradcampp_map(a, g, f1, f2, f3,
                                                     cam.ALPHA_EPS),
            "icam": lambda: naive_icam_map(a, g, f1, f2, f3, s_c, bias,
                                           cam.ALPHA_EPS),
        }[method]()
        got = cam.single_layer_map(tr, req, layer)
        assert got.shape == a.shape[1:]
        assert np.max(np.abs(got - ref)) < 1e-12

    def test_bias_applies_to_icam_only(self, logit_trace):
        # the Grad-CAM family adds no bias term, so it refuses every mode
        for method in ("gradcam", "gradcampp", "layercam"):
            for b in cam.BIAS_MODES:
                with pytest.raises(ValueError, match=f"^bias applies to icam "
                                                     f"only; {method} has a "
                                                     f"fixed form$"):
                    layer_map(logit_trace, "block2", method, bias=b)
            assert cam.CamRequest(method).bias is None
