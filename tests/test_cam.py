import numpy as np
import pytest

from icam import cam
from icam.model import build_fixture_model, forward_trace
from icam.render import normalize_minmax
from oracles import naive_bilinear_resize


@pytest.fixture(scope="module")
def logit_trace():
    model = build_fixture_model(7)
    img = np.random.default_rng(0).random((3, 32, 32))
    return forward_trace(model, img)


class TestSmoothTables:
    def test_identity(self):
        assert cam.smooth_identity(3.5) == (3.5, 1.0, 0.0, 0.0)

    def test_exp(self):
        y, f1, f2, f3 = cam.smooth_exp(1.25)
        e = np.exp(1.25)
        assert y == f1 == f2 == f3 == e

    def test_softmax_half_probability_spot(self):
        # two equal logits give Y = 0.5 and (f', f'', f''') = (0.25, 0, -0.125)
        y, f1, f2, f3 = cam.smooth_softmax(np.array([2.0, 2.0]), 0)
        assert abs(y - 0.5) < 1e-15
        assert abs(f1 - 0.25) < 1e-15
        assert abs(f2) < 1e-15
        assert abs(f3 + 0.125) < 1e-15

    def test_softmax_first_derivative_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            logits = rng.normal(size=5)
            c = int(rng.integers(0, 5))
            _, f1, _, _ = cam.smooth_softmax(logits, c)
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
            _, f1, f2, f3 = cam.smooth_softmax(logits, c)
            lp, lm = logits.copy(), logits.copy()
            lp[c] += h
            lm[c] -= h
            _, f1p, f2p, _ = cam.smooth_softmax(lp, c)
            _, f1m, f2m, _ = cam.smooth_softmax(lm, c)
            assert abs(f2 - (f1p - f1m) / (2 * h)) < 1e-7
            assert abs(f3 - (f2p - f2m) / (2 * h)) < 1e-7

    def test_table_dispatch(self):
        logits = np.array([0.5, -0.5])
        assert cam.smooth_table("identity", logits, 0) == (0.5, 1.0, 0.0, 0.0)
        assert cam.smooth_table("exp", logits, 1)[0] == np.exp(-0.5)
        with pytest.raises(ValueError):
            cam.smooth_table("nope", logits, 0)
        with pytest.raises(IndexError):
            cam.smooth_softmax(logits, 2)


class TestGradCam:
    def test_analytic_weights_on_linear_head(self):
        from conftest import make_gap_linear_model
        model = make_gap_linear_model()
        img = np.random.default_rng(3).random((4, 6, 6)) + 0.1
        tr = forward_trace(model, img, class_index=1)
        w = model.weights["head.weight"][1] / 36.0
        expected = np.maximum((w[:, None, None] * img).sum(axis=0), 0.0)
        got = cam.gradcam_map(tr, "block1").values
        assert np.max(np.abs(got - expected)) < 1e-10

    def test_zero_gradient_gives_zero_map(self, logit_trace):
        tr = logit_trace
        zeroed = type(tr)(tr.image, tr.activations,
                          {k: np.zeros_like(v) for k, v in tr.gradients.items()},
                          tr.logits, tr.probabilities, tr.input_gradient,
                          tr.class_index)
        out = cam.gradcam_map(zeroed, "block2").values
        assert np.array_equal(out, np.zeros_like(out))

    def test_matches_loop_oracle(self, logit_trace):
        a = logit_trace.activations["block2"][0]
        g = logit_trace.gradients["block2"][0]
        got = cam.gradcam_map(logit_trace, "block2").values
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
            cam.gradcam_map(logit_trace, "block9")


class TestLayerCam:
    def test_matches_loop_oracle(self, logit_trace):
        a = logit_trace.activations["block3"][0]
        g = logit_trace.gradients["block3"][0]
        got = cam.layercam_map(logit_trace, "block3").values
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
                          np.full((1, 2), 0.5), None, 0)
        got = cam.layercam_map(tr, "L").values
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
        for k in range(2):
            s = 0.0
            for i in range(4):
                for j in range(4):
                    s += a[k, i, j] * f3 * g[k, i, j] ** 3
            for i in range(4):
                for j in range(4):
                    num = f2 * g[k, i, j] ** 2
                    den = 2 * num + s
                    ref = num / den if abs(den) >= cam.ALPHA_EPS else 0.0
                    assert abs(got[k, i, j] - ref) < 1e-12


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
        b = cam.bias_term("channel", 2.5, np.zeros_like(a), a)
        assert np.array_equal(b, np.full(3, 2.5))

    def test_channel_product_of_sums_hand_case(self):
        w = np.array([[[1.0, 2.0], [0.0, 1.0]]])   # sum = 4
        a = np.array([[[0.5, 0.5], [1.0, 1.0]]])   # sum = 3
        b = cam.bias_term("channel", 10.0, w, a)
        assert b.shape == (1,)
        assert b[0] == 10.0 - 4.0 * 3.0

    def test_spatial_matches_formula(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=(2, 3, 3))
        a = rng.random((2, 3, 3))
        b = cam.bias_term("spatial", 1.5, w, a)
        for k in range(2):
            for i in range(3):
                for j in range(3):
                    assert abs(b[k, i, j]
                               - (1.5 - w[k, i, j] * a[k].sum())) < 1e-14

    def test_modes_coincide_on_1x1_maps(self):
        w = np.array([[[0.4]], [[0.7]]])
        a = np.array([[[2.0]], [[3.0]]])
        bc = cam.bias_term("channel", 1.0, w, a)
        bs = cam.bias_term("spatial", 1.0, w, a)
        assert np.max(np.abs(bc - bs[:, 0, 0])) < 1e-15

    def test_bad_mode_and_shape(self):
        with pytest.raises(ValueError):
            cam.bias_term("diag", 0.0, np.zeros((1, 2, 2)), np.zeros((1, 2, 2)))
        with pytest.raises(ValueError):
            cam.bias_term("channel", 0.0, np.zeros((1, 2, 2)), np.zeros((2, 2, 2)))


class TestIcamLayerMap:
    def _golden(self, tr, layer, bias_mode):
        a = tr.activations[layer][0]
        g = tr.gradients[layer][0]
        _, f1, f2, f3 = cam.smooth_softmax(tr.logits[0], tr.class_index)
        alpha = cam.generalized_alpha(f2, f3, g, a)
        w = np.tanh(alpha) * np.maximum(f1 * g, 0.0)
        raw = np.zeros(a.shape[1:])
        for k in range(a.shape[0]):
            raw += w[k] * a[k]
        s_c = float(tr.logits[0][tr.class_index])
        if bias_mode == "channel":
            raw = raw + sum(s_c - w[k].sum() * a[k].sum()
                            for k in range(a.shape[0]))
        elif bias_mode == "spatial":
            for k in range(a.shape[0]):
                raw = raw + (s_c - w[k] * a[k].sum())
        return np.maximum(raw, 0.0)

    @pytest.mark.parametrize("bias_mode", ["none", "channel", "spatial"])
    def test_matches_golden_reimplementation(self, logit_trace, bias_mode):
        got = cam.icam_layer_map(logit_trace, "block2",
                                 bias_mode=bias_mode).values
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
                          np.array([[0.95, 0.05]]), None, 0)
        none = cam.icam_layer_map(tr, "L", bias_mode="none").values
        chan = cam.icam_layer_map(tr, "L", bias_mode="channel").values
        assert not np.array_equal(none, chan)

    def test_nonnegative_output(self, logit_trace):
        for layer in ("block1", "block2", "block3"):
            assert cam.icam_layer_map(logit_trace, layer).values.min() >= 0.0


class TestFuse:
    def test_single_layer_is_normalized_upsample(self, logit_trace):
        hm = cam.gradcam_map(logit_trace, "block2")
        fused = cam.fuse({"block2": hm}, {"block2": 1.0}, 32, 32)
        ref = normalize_minmax(normalize_minmax(
            naive_bilinear_resize(hm.values, 32, 32)))
        assert np.max(np.abs(fused.values - ref)) < 1e-10

    def test_identical_maps_any_weights(self):
        vals = np.random.default_rng(14).random((8, 8))
        h = cam.Heatmap(vals)
        f1 = cam.fuse({"a": h, "b": h}, {"a": 0.9, "b": 0.1}, 8, 8)
        f2 = cam.fuse({"a": h, "b": h}, {"a": 0.5, "b": 0.5}, 8, 8)
        assert np.max(np.abs(f1.values - f2.values)) < 1e-12

    def test_three_layer_loop_oracle(self, logit_trace):
        maps = {l: cam.icam_layer_map(logit_trace, l)
                for l in ("block1", "block2", "block3")}
        weights = {"block1": 0.5, "block2": 0.3, "block3": 0.2}
        got = cam.fuse(maps, weights, 32, 32).values
        acc = np.zeros((32, 32))
        for name, w_l in weights.items():
            up = naive_bilinear_resize(maps[name].values, 32, 32)
            acc += w_l * normalize_minmax(up)
        ref = normalize_minmax(acc)
        assert np.max(np.abs(got - ref)) < 1e-10

    def test_output_in_unit_range(self, logit_trace):
        maps = {l: cam.gradcam_map(logit_trace, l)
                for l in ("block1", "block3")}
        out = cam.fuse(maps, {"block1": 0.6, "block3": 0.4}, 32, 32).values
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_missing_map_rejected(self):
        h = cam.Heatmap(np.ones((2, 2)))
        with pytest.raises(KeyError):
            cam.fuse({"a": h}, {"a": 0.5, "b": 0.5}, 4, 4)


class TestRequestAndDispatch:
    def test_default_smooths(self):
        assert cam.CamRequest("gradcam").effective_smooth == "identity"
        assert cam.CamRequest("gradcampp").effective_smooth == "exp"
        assert cam.CamRequest("layercam").effective_smooth == "identity"
        assert cam.CamRequest("icam").effective_smooth == "softmax"
        assert cam.CamRequest("icam", smooth="exp").effective_smooth == "exp"

    def test_validation(self):
        with pytest.raises(ValueError):
            cam.CamRequest("fancycam")
        with pytest.raises(ValueError):
            cam.CamRequest("icam", smooth="log")
        with pytest.raises(ValueError):
            cam.CamRequest("icam", bias="edge")

    def test_methods_give_distinct_maps(self, logit_trace):
        outs = [cam.single_layer_map(logit_trace, m, "block3").values
                for m in cam.METHODS]
        for i in range(len(outs)):
            for j in range(i + 1, len(outs)):
                assert not np.allclose(outs[i], outs[j])

    def test_unknown_method_in_dispatch(self, logit_trace):
        with pytest.raises(ValueError):
            cam.single_layer_map(logit_trace, "nope", "block1")
