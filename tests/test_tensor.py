import numpy as np
import pytest

from icam import cam
from icam import tensor as T
from oracles import central_diff_grad, naive_conv2d, naive_generalized_alpha


class TestConv2d:
    def test_scalar_kernel_scales(self):
        out = T.conv2d(np.ones((1, 3, 3)), np.full((1, 1, 1, 1), 2.0),
                       np.zeros(1))
        assert np.array_equal(out, np.full((1, 3, 3), 2.0))

    def test_full_window_sum(self):
        out = T.conv2d(np.array([[[1.0, 2.0], [3.0, 4.0]]]),
                       np.ones((1, 1, 2, 2)), np.zeros(1))
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 10.0

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_matches_naive_reference(self, stride, padding):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 8, 8))
        k = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out = T.conv2d(x, k, b, stride=stride, padding=padding)
        ref = naive_conv2d(x, k, b, stride, padding)
        assert np.max(np.abs(out - ref)) < 1e-12

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_batch_matches_naive_reference_per_row(self, stride, padding):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 3, 8, 7))
        k = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out = T.conv2d(x, k, b, stride=stride, padding=padding)
        for idx in np.ndindex(2, 3):
            ref = naive_conv2d(x[idx], k, b, stride, padding)
            assert np.max(np.abs(out[idx] - ref)) < 1e-12
            assert np.array_equal(out[idx], T.conv2d(x[idx], k, b, stride,
                                                     padding))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(T.ShapeError):
            T.conv2d(np.ones((3, 4, 4)), np.ones((2, 4, 3, 3)), np.zeros(2))

    def test_output_shape_formula(self):
        out = T.conv2d(np.ones((2, 9, 7)), np.ones((1, 2, 3, 3)), np.zeros(1),
                       stride=2, padding=1)
        assert out.shape == (1, (9 + 2 - 3) // 2 + 1, (7 + 2 - 3) // 2 + 1)


class TestRelu:
    def test_forward(self):
        assert np.array_equal(T.relu(np.array([-1.0, 0.0, 2.0])),
                              [0.0, 0.0, 2.0])

    def test_subgradient_at_zero_is_zero(self):
        y = T.relu(np.array([-1.0, 0.0, 2.0]))
        assert np.array_equal(T.relu_grad(np.ones(3), y), [0.0, 0.0, 1.0])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=10)
        x[np.abs(x) < 0.1] += 0.5  # stay away from the kink
        g = T.relu_grad(np.ones(10), T.relu(x))

        def f(v):
            return float(np.maximum(v, 0).sum())

        for idx, fd in central_diff_grad(f, x, range(10), h=1e-6).items():
            assert abs(g[idx] - fd) < 1e-6


class TestLinear:
    def test_identity(self):
        out = T.linear(np.array([1.0, 2.0, 3.0]), np.eye(3), np.zeros(3))
        assert np.array_equal(out, [1.0, 2.0, 3.0])

    def test_hand_arithmetic(self):
        out = T.linear(np.array([1.0, 2.0]), np.array([[3.0, 4.0]]),
                       np.array([5.0]))
        assert np.array_equal(out, [16.0])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        x, w, b = rng.normal(size=4), rng.normal(size=(3, 4)), rng.normal(size=3)
        p = rng.normal(size=3)  # random projection makes the output scalar
        g = T.linear_grad(p, w)
        fd = central_diff_grad(lambda v: float(p @ T.linear(v, w, b)), x,
                               range(x.size))
        for idx, val in fd.items():
            assert abs(g[idx] - val) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.linear(np.array([1.0, 2.0]), np.eye(3), np.zeros(3))


class TestGlobalAvgPool:
    def test_constant_channel(self):
        out = T.global_avg_pool(np.full((2, 4, 4), 3.5))
        assert np.array_equal(out, [3.5, 3.5])

    def test_hand_value(self):
        assert T.global_avg_pool(np.array([[[1.0, 2.0], [3.0, 4.0]]]))[0] == 2.5

    def test_backward_is_uniform(self):
        g = T.global_avg_pool_grad(np.array([0.0, 1.0]), (2, 2))
        assert np.array_equal(g[0], np.zeros((2, 2)))
        assert np.array_equal(g[1], np.full((2, 2), 0.25))


class TestSoftmax:
    def test_symmetry(self):
        assert np.array_equal(T.softmax(np.array([0.0, 0.0])), [0.5, 0.5])
        assert np.allclose(T.softmax(np.full(3, 2.0)), 1 / 3, atol=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            assert abs(T.softmax(rng.normal(size=6) * 10).sum() - 1.0) < 1e-12

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=5)
        for c in range(5):
            g = T.softmax_grad(np.eye(5)[c], T.softmax(v))

            def f(x, c=c):
                e = np.exp(x - x.max())
                return float(e[c] / e.sum())

            for idx, fd in central_diff_grad(f, v, range(5)).items():
                assert abs(g[idx] - fd) < 1e-6


class TestBackward:
    """Kernels chained by hand, the way model.forward_trace chains them."""

    def test_toy_net_input_gradient(self):
        rng = np.random.default_rng(5)
        x = rng.random((2, 3, 3))
        wl = rng.normal(size=(4, 2))
        b = rng.normal(size=4)
        y = T.softmax(T.linear(T.global_avg_pool(x), wl, b))
        g = T.global_avg_pool_grad(
            T.linear_grad(T.softmax_grad(np.eye(4)[2], y), wl), (3, 3))

        def f(v):
            logits = wl @ v.mean(axis=(1, 2)) + b
            e = np.exp(logits - logits.max())
            return float(e[2] / e.sum())

        fd = central_diff_grad(f, x, range(x.size))
        for idx, val in fd.items():
            assert abs(g.ravel()[idx] - val) < 1e-5

    def test_repeated_calls_identical(self):
        rng = np.random.default_rng(6)
        g, k = rng.normal(size=(2, 4, 3, 3)), rng.normal(size=(4, 2, 3, 3))
        d1 = T.conv2d_input_grad(g, k, (6, 6), stride=2, padding=1)
        d2 = T.conv2d_input_grad(g, k, (6, 6), stride=2, padding=1)
        assert d1.shape == (2, 2, 6, 6)
        assert np.array_equal(d1, d2)


def _count_gathers(monkeypatch):
    """Count the calls conv2d_input_grad makes to the shared correlation."""
    calls = []
    real = T._correlate
    monkeypatch.setattr(T, "_correlate",
                        lambda *args: calls.append(1) or real(*args))
    return calls


class TestConv2dInputGrad:
    """The adjoint of conv2d in both forms: gather (stride 1, C_in >= C_out,
    padding < k) and scatter (every other case)."""

    COUT = 4

    @pytest.mark.parametrize("lead", [(), (2,), (2, 3)], ids=str)
    @pytest.mark.parametrize("cin", [1, 3, 16])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_dot_product_adjoint(self, monkeypatch, stride, padding, k, cin,
                                 lead):
        # <conv2d(x, k, 0), g> == <x, conv2d_input_grad(g, k)>
        rng = np.random.default_rng([stride, padding, k, cin, len(lead)])
        x = rng.normal(size=(*lead, cin, 7, 6))
        kernel = rng.normal(size=(self.COUT, cin, k, k))
        out = T.conv2d(x, kernel, np.zeros(self.COUT), stride, padding)
        g = rng.normal(size=out.shape)
        gathers = _count_gathers(monkeypatch)
        dx = T.conv2d_input_grad(g, kernel, (7, 6), stride, padding)
        assert len(gathers) == (stride == 1 and cin >= self.COUT
                                and padding < k)
        assert dx.shape == x.shape
        lhs, rhs = float((out * g).sum()), float((x * dx).sum())
        assert abs(lhs - rhs) <= 1e-12 * float(np.abs(out * g).sum())

    @pytest.mark.parametrize("cin, cout, stride, gathers", [
        (16, 16, 1, 1), (16, 4, 1, 1), (3, 8, 1, 0), (8, 16, 2, 0),
        (16, 16, 2, 0)])
    def test_rows_independent(self, monkeypatch, cin, cout, stride, gathers):
        rng = np.random.default_rng(cin * cout + stride)
        kernel = rng.normal(size=(cout, cin, 3, 3))
        oh = (9 + 2 - 3) // stride + 1
        g = rng.normal(size=(2, 3, cout, oh, oh))
        calls = _count_gathers(monkeypatch)
        batched = T.conv2d_input_grad(g, kernel, (9, 9), stride, 1)
        assert len(calls) == gathers
        for idx in np.ndindex(2, 3):
            alone = T.conv2d_input_grad(g[idx], kernel, (9, 9), stride, 1)
            assert np.array_equal(batched[idx], alone)
            assert np.array_equal(batched[idx][None],
                                  T.conv2d_input_grad(g[idx][None], kernel,
                                                      (9, 9), stride, 1))


class TestGeneralizedAlphaBlockSized:
    """generalized_alpha against the loop oracle on block1 and block3
    shapes, with dead gradients and a dead channel to hit the eps guard."""

    @pytest.mark.parametrize("shape", [(8, 32, 32), (16, 16, 16)])
    @pytest.mark.parametrize("table", ["softmax", "exp"])
    def test_matches_loop_oracle(self, shape, table):
        rng = np.random.default_rng(len(shape) + shape[0])
        g = 0.05 * rng.normal(size=shape)
        g[rng.random(shape) < 0.3] = 0.0
        g[1] = 0.0
        a = np.maximum(rng.normal(size=shape), 0.0)
        logits = rng.normal(size=5)
        _, _, f2, f3 = cam.smooth_table(table, float(logits[2]),
                                        float(T.softmax(logits)[2]))
        got = cam.generalized_alpha(f2, f3, g, a)
        ref = naive_generalized_alpha(f2, f3, g, a, cam.ALPHA_EPS)
        # the channel sum's order differs: bound the error by how much the
        # denominator cancels
        num = np.abs(f2 * g * g)
        spread = 2 * num + np.abs(a * f3 * g ** 3).sum(axis=(1, 2),
                                                      keepdims=True)
        den = np.abs(2 * f2 * g * g + (a * f3 * g ** 3).sum(
            axis=(1, 2), keepdims=True))
        bound = 1e-12 * np.abs(ref) * spread / np.maximum(den, 1e-300)
        assert np.all(np.abs(got - ref) <= bound)
        assert np.array_equal(got == 0.0, ref == 0.0)
        assert np.all(got[1] == 0.0)


class TestBackwardFiniteDifferenceProperty:
    """Every kernel's input-gradient rule vs central differences, 100 random
    instances each (step 1e-5, rel err < 1e-4)."""

    N = 100
    REL = 1e-4
    H = 1e-5

    def _check(self, g, make_ref, x):
        idx = np.random.default_rng(int(abs(x).sum() * 1e6) % 2 ** 31)
        picks = idx.integers(0, x.size, size=min(4, x.size))
        for i, fd in central_diff_grad(make_ref, x, picks, h=self.H).items():
            denom = max(abs(fd), 1e-6)
            assert abs(g.ravel()[i] - fd) / denom < self.REL

    def test_relu(self):
        rng = np.random.default_rng(10)
        for _ in range(self.N):
            x = rng.normal(size=8)
            x[np.abs(x) < 1e-3] += 0.1
            p = rng.normal(size=8)
            self._check(T.relu_grad(p, T.relu(x)),
                        lambda v: float(p @ np.maximum(v, 0)), x)

    def test_conv2d_input(self):
        rng = np.random.default_rng(11)
        for n in range(self.N):
            stride = 1 + n % 2
            x = rng.normal(size=(2, 5, 5))
            k = rng.normal(size=(3, 2, 3, 3))
            b = rng.normal(size=3)
            p = rng.normal(size=naive_conv2d(x, k, b, stride, 1).shape)
            self._check(
                T.conv2d_input_grad(p, k, (5, 5), stride=stride, padding=1),
                lambda v: float((p * naive_conv2d(v, k, b, stride, 1)).sum()),
                x)

    def test_gap(self):
        rng = np.random.default_rng(12)
        for _ in range(self.N):
            x = rng.normal(size=(3, 4, 4))
            p = rng.normal(size=3)
            self._check(T.global_avg_pool_grad(p, (4, 4)),
                        lambda v: float(p @ v.mean(axis=(1, 2))), x)

    def test_softmax(self):
        rng = np.random.default_rng(13)
        for _ in range(self.N):
            x = rng.normal(size=5)
            c = int(rng.integers(0, 5))

            def ref(v, c=c):
                e = np.exp(v - v.max())
                return float(e[c] / e.sum())

            self._check(T.softmax_grad(np.eye(5)[c], T.softmax(x)), ref, x)

    def test_linear(self):
        rng = np.random.default_rng(14)
        for _ in range(self.N):
            x = rng.normal(size=6)
            w = rng.normal(size=(2, 6))
            b = rng.normal(size=2)
            self._check(T.linear_grad(np.array([0.0, 1.0]), w),
                        lambda v: float(w[1] @ v + b[1]), x)


def _image_and_perturbation_traces(model, imgs):
    """Row 0 traced with its input gradient, the other rows as one block of
    perturbations, as an explain and layerscore.score_layers trace them."""
    from icam.model import forward_trace, input_gradient, trace_perturbations
    tr = forward_trace(model, imgs[0])
    return (tr, trace_perturbations(model, imgs[1:], tr.class_index),
            input_gradient(model, tr))


def test_forward_backward_deterministic(fixture_model):
    img = np.random.default_rng(20).random((3, 3, 32, 32))
    *t1, grad1 = _image_and_perturbation_traces(fixture_model, img)
    *t2, grad2 = _image_and_perturbation_traces(fixture_model, img)
    assert np.array_equal(grad1, grad2)
    for a, b in zip(t1, t2):
        assert np.array_equal(a.logits, b.logits)
        for name in a.gradients:
            assert np.array_equal(a.gradients[name], b.gradients[name])


def test_forward_values_finite(fixture_model):
    img = np.random.default_rng(21).random((3, 3, 32, 32))
    *traces, grad = _image_and_perturbation_traces(fixture_model, img)
    for tr in traces:
        for arr in [tr.logits, tr.probabilities,
                    *tr.activations.values(), *tr.gradients.values()]:
            assert np.all(np.isfinite(arr))
    assert np.all(np.isfinite(grad))
