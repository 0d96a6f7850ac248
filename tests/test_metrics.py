import numpy as np
import pytest

from icam import metrics
from oracles import kl, naive_iou, naive_saliency, naive_ssim


class TestSsim:
    def test_self_similarity_is_one(self):
        x = np.random.default_rng(0).random((3, 8, 8))
        assert metrics.ssim(x, x) == 1.0

    def test_constant_shift(self):
        # sigma terms vanish; value is the luminance term of the formula
        x = np.full((4, 4), 0.2)
        y = np.full((4, 4), 0.7)
        c1, c2 = metrics.DEFAULT_C1, metrics.DEFAULT_C2
        expected = ((2 * 0.2 * 0.7 + c1) * c2) \
            / ((0.2 ** 2 + 0.7 ** 2 + c1) * c2)
        assert abs(metrics.ssim(x, y) - expected) < 1e-15
        assert metrics.ssim(x, y) < 1.0

    def test_inverted_image_negative_covariance(self):
        rng = np.random.default_rng(1)
        x = rng.random((8, 8))
        x = x - x.mean() + 0.5  # symmetric around 0.5 so 1-x has same variance
        y = 1.0 - x
        mx, my = x.mean(), y.mean()
        vx = ((x - mx) ** 2).mean()
        cov = ((x - mx) * (y - my)).mean()
        assert abs(cov + vx) < 1e-12  # cov = -var
        c1, c2 = metrics.DEFAULT_C1, metrics.DEFAULT_C2
        expected = ((2 * mx * my + c1) * (2 * cov + c2)) \
            / ((mx ** 2 + my ** 2 + c1) * (2 * vx + c2))
        assert abs(metrics.ssim(x, y) - expected) < 1e-14

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            metrics.ssim(np.ones((2, 2)), np.ones((3, 3)))


class TestSvim:
    def test_peak_at_half(self):
        assert metrics.svim_of_ssim(0.5) == 1.0

    def test_extremes(self):
        expected = np.exp(-0.25 / 0.045)
        assert abs(metrics.svim_of_ssim(0.0) - expected) < 1e-12
        assert abs(metrics.svim_of_ssim(1.0) - expected) < 1e-12
        assert expected < 0.005

    def test_self_svim(self):
        x = np.random.default_rng(2).random((3, 6, 6))
        assert abs(metrics.svim(x, x) - np.exp(-0.25 / 0.045)) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            x, y = rng.random((4, 4)), rng.random((4, 4))
            assert metrics.svim(x, y) == metrics.svim(y, x)

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            metrics.svim_of_ssim(0.5, sigma=0.0)


class TestMddMds:
    def test_self_divergence_zero(self):
        x = np.array([0.2, 0.3, 0.5])
        assert metrics.mdd(x, x) == 0.0
        assert metrics.mds(x, x) == 1.0

    def test_worked_value(self):
        got = metrics.mdd(np.array([0.7, 0.3]), np.array([0.5, 0.5]))
        expected = 0.1 * np.log(1.4) - 0.1 * np.log(0.6)
        assert abs(got - expected) < 1e-15
        assert abs(got - 0.084730) < 1e-6
        assert abs(metrics.mds(np.array([0.7, 0.3]), np.array([0.5, 0.5]))
                   - 0.915270) < 1e-6

    def test_symmetric(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.random(5) + 0.01
            y = rng.random(5) + 0.01
            x, y = x / x.sum(), y / y.sum()
            assert metrics.mdd(x, y) == metrics.mdd(y, x)
            assert metrics.mds(x, y) == metrics.mds(y, x)

    def test_equals_symmetric_kl(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            size = int(rng.integers(2, 11))
            x = rng.random(size) + 1e-3
            y = rng.random(size) + 1e-3
            x, y = x / x.sum(), y / y.sum()
            sym = 0.5 * (kl(x, y) + kl(y, x))
            assert abs(metrics.mdd(x, y) - sym) < 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            x = rng.random(4) + 1e-3
            y = rng.random(4) + 1e-3
            assert metrics.mdd(x / x.sum(), y / y.sum()) >= 0.0

    def test_mds_clamped_for_far_distributions(self):
        eps = 1e-6
        x = np.array([1 - eps, eps])
        y = np.array([eps, 1 - eps])
        raw = 1.0 - metrics.mdd(x, y)
        assert raw < 0.0  # MDD > 1 here
        assert metrics.mds(x, y) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            metrics.mdd(np.ones(2) / 2, np.ones(3) / 3)


class TestPerturbationWeight:
    def test_geometric_mean_combination(self, monkeypatch):
        monkeypatch.setattr(metrics, "svim", lambda *a, **k: 0.25)
        monkeypatch.setattr(metrics, "mds", lambda *a, **k: 0.81)
        w = metrics.perturbation_weight(None, None, None, None)
        assert abs(w - 0.45) < 1e-15

    def test_identical_inputs(self):
        img = np.random.default_rng(7).random((3, 5, 5))
        probs = np.array([0.2, 0.8])
        w = metrics.perturbation_weight(img, img, probs, probs)
        assert abs(w - np.sqrt(np.exp(-0.25 / 0.045))) < 1e-12

    def test_zero_mds_gives_zero_weight(self):
        img = np.random.default_rng(8).random((3, 5, 5))
        eps = 1e-6
        w = metrics.perturbation_weight(img, img, np.array([1 - eps, eps]),
                                        np.array([eps, 1 - eps]))
        assert w == 0.0


class TestBatchedRows:
    """Leading axes broadcast: each row equals the single-pair call bitwise."""

    @staticmethod
    def _batch(seed, n=6):
        rng = np.random.default_rng(seed)
        image = rng.random((3, 8, 8))
        noisy = 1.5 * rng.random((n - 1, 3, 8, 8)) - 0.2
        perturbed = np.concatenate([image[None], noisy])
        probs = rng.random((n + 1, 5)) + 1e-3
        probs /= probs.sum(axis=-1, keepdims=True)
        probs[-1] = [1 - 4e-6, 1e-6, 1e-6, 1e-6, 1e-6]  # MDS clamps to 0
        return image, perturbed, probs[0], probs[1:]

    def test_ssim_and_svim_rows(self):
        image, perturbed, _, _ = self._batch(0)
        got = metrics.ssim(image, perturbed)
        got_svim = metrics.svim(image, perturbed)
        assert got.shape == got_svim.shape == (len(perturbed),)
        for r, p in enumerate(perturbed):
            assert got[r] == metrics.ssim(image, p)
            assert got_svim[r] == metrics.svim(image, p)
        both = metrics.ssim(perturbed, perturbed[::-1])
        for r in range(len(perturbed)):
            assert both[r] == metrics.ssim(perturbed[r], perturbed[-1 - r])

    def test_mdd_and_mds_rows(self):
        _, _, probs, probs_pert = self._batch(1)
        got_mdd = metrics.mdd(probs, probs_pert)
        got_mds = metrics.mds(probs, probs_pert)
        assert got_mdd.shape == got_mds.shape == (len(probs_pert),)
        for r, q in enumerate(probs_pert):
            assert got_mdd[r] == metrics.mdd(probs, q)
            assert got_mds[r] == metrics.mds(probs, q)
        assert got_mds[-1] == 0.0

    def test_perturbation_weight_rows(self):
        image, perturbed, probs, probs_pert = self._batch(2)
        got = metrics.perturbation_weight(image, perturbed, probs, probs_pert)
        assert got.shape == (len(perturbed),)
        for r, (p, q) in enumerate(zip(perturbed, probs_pert)):
            assert got[r] == metrics.perturbation_weight(image, p, probs, q)

    def test_single_pair_gives_scalar(self):
        image, perturbed, probs, probs_pert = self._batch(3)
        for v in (metrics.ssim(image, perturbed[1]),
                  metrics.ssim(image[0], perturbed[1, 0]),
                  metrics.mds(probs, probs_pert[0]), metrics.svim_of_ssim(0.3),
                  metrics.perturbation_weight(image, perturbed[1], probs,
                                              probs_pert[0])):
            assert np.ndim(v) == 0 and isinstance(v, float)

    def test_ssim_matches_channel_loop_oracle(self):
        image, perturbed, _, _ = self._batch(6)
        c1, c2 = metrics.DEFAULT_C1, metrics.DEFAULT_C2
        got = metrics.ssim(image, perturbed)
        for r, p in enumerate(perturbed):
            assert got[r] == naive_ssim(image, p, c1, c2)

    def test_layout_does_not_change_ssim(self):
        # image_from_rgb gives a transposed, non-contiguous [C,H,W] view
        rgb = np.random.default_rng(4).random((8, 8, 3))
        image = np.transpose(rgb, (2, 0, 1))
        _, perturbed, _, _ = self._batch(5)
        want = metrics.ssim(np.ascontiguousarray(image), perturbed)
        assert metrics.ssim(image, perturbed).tobytes() == want.tobytes()
        c1, c2 = metrics.DEFAULT_C1, metrics.DEFAULT_C2
        for r, p in enumerate(perturbed):
            assert metrics.ssim(image, p) == want[r]
            assert want[r] == naive_ssim(image, p, c1, c2)

    def test_image_axes_must_match(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            metrics.ssim(np.ones((3, 4, 4)), np.ones((2, 2, 4, 4)))


class TestThresholdHeatmap:
    def test_constant_map(self):
        assert np.array_equal(metrics.threshold_heatmap(np.ones((3, 3)), 0.2),
                              np.ones((3, 3), dtype=np.uint8))

    def test_hand_case(self):
        h = np.array([[1.0, 0.1], [0.3, 0.0]])
        assert np.array_equal(metrics.threshold_heatmap(h, 0.2),
                              np.array([[1, 0], [1, 0]], dtype=np.uint8))

    def test_all_zero_map(self):
        assert np.array_equal(metrics.threshold_heatmap(np.zeros((2, 2)), 0.2),
                              np.zeros((2, 2), dtype=np.uint8))

    def test_matches_naive_comparison(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            h = rng.random((8, 8))
            frac = float(rng.uniform(0.05, 0.95))
            got = metrics.threshold_heatmap(h, frac)
            cut = frac * h.max()
            for i in range(8):
                for j in range(8):
                    assert got[i, j] == (1 if h[i, j] >= cut else 0)


class TestIou:
    def test_identical(self):
        m = np.random.default_rng(10).integers(0, 2, size=(6, 6))
        assert metrics.iou(m, m) == (1.0 if m.any() else 0.0)

    def test_one_third(self):
        a = np.zeros((2, 2), dtype=int)
        b = np.zeros((2, 2), dtype=int)
        a[0, 0] = a[0, 1] = 1
        b[0, 1] = b[1, 1] = 1
        assert abs(metrics.iou(a, b) - 1 / 3) < 1e-15

    def test_empty_union(self):
        z = np.zeros((3, 3), dtype=int)
        assert metrics.iou(z, z) == 0.0

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = rng.integers(0, 2, size=(8, 8))
            b = rng.integers(0, 2, size=(8, 8))
            assert metrics.iou(a, b) == naive_iou(a, b)

    def test_transposition_invariance(self):
        rng = np.random.default_rng(12)
        a = rng.integers(0, 2, size=(5, 7))
        b = rng.integers(0, 2, size=(5, 7))
        assert metrics.iou(a, b) == metrics.iou(a.T, b.T)


class TestSaliencyScore:
    def test_uniform_half(self):
        h = np.ones((4, 4))
        mask = np.zeros((4, 4), dtype=int)
        mask[:2] = 1
        assert metrics.saliency_score(h, mask) == 0.5

    def test_entirely_inside(self):
        h = np.zeros((4, 4))
        h[1, 1] = 3.0
        mask = np.ones((4, 4), dtype=int)
        assert metrics.saliency_score(h, mask) == 1.0

    def test_empty_heatmap(self):
        assert metrics.saliency_score(np.zeros((3, 3)), np.ones((3, 3))) == 0.0

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            h = rng.random((8, 8))
            mask = rng.integers(0, 2, size=(8, 8))
            assert abs(metrics.saliency_score(h, mask)
                       - naive_saliency(h, mask)) < 1e-15

    def test_transposition_invariance(self):
        rng = np.random.default_rng(14)
        h = rng.random((5, 7))
        mask = rng.integers(0, 2, size=(5, 7))
        assert metrics.saliency_score(h, mask) == \
            metrics.saliency_score(h.T, mask.T)
