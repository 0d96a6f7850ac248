"""End-to-end acceptance gate.

Each test covers one numbered acceptance criterion and prints a single
pass line on success (run with `pytest -s` or `-rA` to see them). All
criteria run against the built-in fixture model and synthetic images.
"""

import hashlib
import json

import numpy as np
import pytest

from icam import cam, metrics, pipeline, verify
from icam.cli import main
from icam.model import _run, build_fixture_model, forward_trace
from icam.perturb import generate_set
from icam.render import read_pgm, read_ppm, write_pgm, write_ppm
from conftest import make_gap_linear_model
from oracles import (mdd_symmetric_kl_suite, naive_iou, naive_saliency,
                     softmax_polynomial_suite)


def _report(num, text):
    print(f"[PASS] criterion {num}: {text}")


def test_01_derivative_identity():
    checks = verify.derivative_identity_suite(build_fixture_model(7),
                                              trials=20)
    for c in checks:
        assert c.passed, f"{c.name}: worst {c.worst_error} >= tol {c.tolerance}"
    worst = max(c.worst_error for c in checks)
    _report(1, f"analytic f''(S^c) g^2 / f'''(S^c) g^3 match nested finite "
               f"differences (worst rel err {worst:.2e})")


def test_02_softmax_derivative_polynomials():
    checks = softmax_polynomial_suite(trials=100)
    for c in checks:
        assert c.passed, f"{c.name}: worst {c.worst_error} >= tol {c.tolerance}"
    y, f1, f2, f3 = cam.smooth_table("softmax", 0.0, 0.5)
    assert (y, f1, f2) == (0.5, 0.25, 0.0)
    assert abs(f3 + 0.125) < 1e-15
    worst = max(c.worst_error for c in checks[:3])
    _report(2, f"softmax f', f'', f''' polynomials match high-precision "
               f"finite differences (worst rel err {worst:.2e}); "
               f"Y=0.5 spot values (0.25, 0, -0.125) exact")


def test_03_mdd_equals_symmetric_kl():
    checks = mdd_symmetric_kl_suite()
    for c in checks:
        assert c.passed, f"{c.name}: worst {c.worst_error} >= tol {c.tolerance}"
    x = np.array([0.3, 0.7])
    assert metrics.mdd(x, x) == 0.0
    worked = metrics.mdd(np.array([0.7, 0.3]), np.array([0.5, 0.5]))
    assert abs(worked - 0.084730) < 1e-6
    worst = checks[0].worst_error
    _report(3, f"MDD equals symmetric KL on 1000 random pairs "
               f"(worst |diff| {worst:.2e}); MDD(X,X)=0; "
               f"worked value 0.084730 within 1e-6")


def test_04_svim_shape():
    assert metrics.svim_of_ssim(0.5) == 1.0
    edge = np.exp(-0.25 / 0.045)
    assert abs(metrics.svim_of_ssim(0.0) - edge) < 1e-15
    assert abs(metrics.svim_of_ssim(1.0) - edge) < 1e-15
    assert abs(edge - 0.003866) < 1e-6
    x = np.random.default_rng(0).random((3, 8, 8))
    assert metrics.ssim(x, x) == 1.0
    _report(4, "SVIM peaks at SSIM=0.5, equals exp(-0.25/0.045)=0.003866 "
               "at the extremes; SSIM(x,x)=1 exactly")


def test_05_gradcam_analytic_oracle():
    model = make_gap_linear_model(c=6, h=5, w=5, classes=4, seed=3)
    img = np.random.default_rng(1).random((6, 5, 5)) + 0.1
    worst = 0.0
    for c in range(4):
        trace = forward_trace(model, img, class_index=c)
        got = (1.0 * trace.gradients["block1"][0]).mean(axis=(1, 2))
        expected = model.weights["head.weight"][c] / 25.0
        worst = max(worst, float(np.max(np.abs(got - expected))))
    assert worst < 1e-10
    _report(5, f"Grad-CAM channel weights equal w^c_k/(H*W) on a GAP+linear "
               f"model for every channel and class (worst abs err {worst:.2e})")


def test_06_gradcampp_alpha_vs_finite_differences():
    model = build_fixture_model(7)
    layer = model.spec.scoring_points[-1]
    img = np.random.default_rng(2).random((3, 32, 32))
    trace = forward_trace(model, img)
    c = trace.class_index
    a = trace.activations[layer][0]
    g = trace.gradients[layer][0]
    s_c = float(trace.logits[0, c])
    e = float(np.exp(s_c))
    analytic = cam.generalized_alpha(e, e, g, a)

    def y_of(act):
        # layer is the last block, so only the head follows it
        return float(np.exp(_run(model, act, ())[1][c]))

    def fd(pos, order):
        gp = abs(g[pos])
        h = 1e-3 / max(gp, 1e-8)

        def f(t):
            ap = a.copy()
            ap[pos] += t
            return y_of(ap)

        return verify._central_diff(f, 0.0, order, h)

    rng = np.random.default_rng(3)
    worst = 0.0
    # denominator third derivatives are shared per channel; cache them
    d3_by_channel = {}
    for _ in range(10):
        k = int(rng.integers(0, a.shape[0]))
        i = int(rng.integers(0, a.shape[1]))
        j = int(rng.integers(0, a.shape[2]))
        if k not in d3_by_channel:
            d3_by_channel[k] = sum(
                a[k, ii, jj] * fd((k, ii, jj), 3)
                for ii in range(a.shape[1]) for jj in range(a.shape[2]))
        d2 = fd((k, i, j), 2)
        den = 2.0 * d2 + d3_by_channel[k]
        if abs(den) < cam.ALPHA_EPS:
            continue
        ref = d2 / den
        rel = abs(analytic[k, i, j] - ref) / max(abs(ref), 1e-300)
        worst = max(worst, rel)
    assert worst < 1e-3
    _report(6, f"generalized alpha with smooth=exp matches alphas built from "
               f"finite-difference 2nd/3rd derivatives (worst rel err "
               f"{worst:.2e})")


def test_07_layer_filtering():
    from icam import layerscore
    scores = {"a": 0.5, "b": 0.3, "c": 0.15, "d": 0.05}
    w = layerscore.select_layers(scores, 0.95)
    assert len(w) == 3
    assert abs(w["a"] - 10 / 19) < 1e-12
    assert abs(w["b"] - 6 / 19) < 1e-12
    assert abs(w["c"] - 3 / 19) < 1e-12

    rng = np.random.default_rng(4)
    for _ in range(100):
        sc = {f"l{i}": float(v) for i, v in enumerate(rng.random(6) + 1e-3)}
        t = float(rng.uniform(0.3, 0.99))
        ws = layerscore.select_layers(sc, t)
        assert abs(sum(ws.values()) - 1.0) < 1e-12
        scale = float(rng.uniform(0.1, 50.0))
        assert list(layerscore.select_layers(
            {k: scale * v for k, v in sc.items()}, t)) == list(ws)
    _report(7, "threshold filtering selects {a,b,c} with weights "
               "{10/19, 6/19, 3/19}; weights sum to 1 and selection is "
               "rescale-invariant on 100 random score vectors")


def test_08_perturbation_statistics():
    img = np.random.default_rng(5).random((1, 100, 100))

    def one(alpha, seed):
        cfg = cam.CamRequest(n=1, alpha=alpha, seed=seed)
        return generate_set(img, cfg)[0]

    assert np.array_equal(one(0.0, 1), img)
    assert np.array_equal(one(1.0, 1), np.zeros_like(img))
    out = one(0.4, 42)
    frac = float((out == 0.0).mean())
    assert 0.39 <= frac <= 0.41
    _report(8, f"alpha=0 identity, alpha=1 zeros, alpha=0.4 masks "
               f"{frac:.4f} of 10^4 pixels (within [0.39, 0.41])")


def test_09_mask_and_score_oracles():
    rng = np.random.default_rng(6)
    for _ in range(100):
        a = rng.integers(0, 2, size=(8, 8))
        b = rng.integers(0, 2, size=(8, 8))
        assert metrics.iou(a, b) == naive_iou(a, b)
        h = rng.random((8, 8))
        assert abs(metrics.saliency_score(h, b) - naive_saliency(h, b)) < 1e-15
    a = np.zeros((2, 2), dtype=int)
    b = np.zeros((2, 2), dtype=int)
    a[0, 0] = a[0, 1] = 1
    b[0, 1] = b[1, 1] = 1
    assert abs(metrics.iou(a, b) - 1 / 3) < 1e-15
    half_mask = np.zeros((4, 4), dtype=int)
    half_mask[:2] = 1
    assert metrics.saliency_score(np.ones((4, 4)), half_mask) == 0.5
    _report(9, "IoU and saliency match brute-force counting oracles on 100 "
               "random 8x8 instances; worked values 1/3 and 0.5 pass")


def test_10_end_to_end_determinism(tmp_path, capsys):
    model_path = str(tmp_path / "model.icamw")
    assert main(["make-fixture", "--seed", "42", "--out", model_path]) == 0
    rgb = np.random.default_rng(7).integers(0, 256, size=(32, 32, 3),
                                            dtype=np.uint8)
    image_path = str(tmp_path / "img.ppm")
    write_ppm(rgb, image_path)

    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        rc = main(["explain", "--model", model_path, "--image", image_path,
                   "--out-prefix", str(tmp_path / run / "out")])
        assert rc == 0
    for suffix in ("out.pgm", "out_overlay.ppm", "out.json"):
        assert (tmp_path / "a" / suffix).read_bytes() == \
            (tmp_path / "b" / suffix).read_bytes()

    rc = main(["compare", "--model", model_path, "--image", image_path,
               "--out-prefix", str(tmp_path / "cmp")])
    assert rc == 0
    digests = {hashlib.sha256(
        (tmp_path / f"cmp_{m}.pgm").read_bytes()).hexdigest()
        for m in ("gradcam", "gradcampp", "layercam", "icam")}
    assert len(digests) == 4

    assert main(["verify", "--model", model_path]) == 0
    capsys.readouterr()
    _report(10, "explain is byte-identical across runs; the four compare "
                "heatmaps are pairwise distinct; verify passes")


def test_11_file_format_round_trips(tmp_path):
    from icam.model import ModelFormatError, load_model, save_model
    from icam.render import ImageFormatError

    # weight file: save -> load -> save is byte-identical
    p1, p2 = tmp_path / "m1.icamw", tmp_path / "m2.icamw"
    save_model(build_fixture_model(42), p1)
    save_model(load_model(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()

    # image round trips
    rng = np.random.default_rng(8)
    rgb = rng.integers(0, 256, size=(9, 7, 3), dtype=np.uint8)
    gray = rng.integers(0, 256, size=(6, 11), dtype=np.uint8)
    write_ppm(rgb, tmp_path / "x.ppm")
    write_pgm(gray, tmp_path / "x.pgm")
    assert np.array_equal(read_ppm(tmp_path / "x.ppm"), rgb)
    assert np.array_equal(read_pgm(tmp_path / "x.pgm"), gray)

    # named corruption errors
    blob = bytearray(p1.read_bytes())
    blob[:8] = b"NOTMAGIC"
    (tmp_path / "bad.icamw").write_bytes(bytes(blob))
    with pytest.raises(ModelFormatError, match="bad magic"):
        load_model(tmp_path / "bad.icamw")
    (tmp_path / "short.icamw").write_bytes(p1.read_bytes()[:-32])
    with pytest.raises(ModelFormatError, match="truncated payload"):
        load_model(tmp_path / "short.icamw")
    (tmp_path / "bad.ppm").write_bytes(b"P3 2 2 255\n" + b"\x00" * 12)
    with pytest.raises(ImageFormatError, match="wrong magic"):
        read_ppm(tmp_path / "bad.ppm")
    full = (tmp_path / "x.ppm").read_bytes()
    (tmp_path / "short.ppm").write_bytes(full[:-4])
    with pytest.raises(ImageFormatError, match="truncated pixel data"):
        read_ppm(tmp_path / "short.ppm")
    (tmp_path / "deep.pgm").write_bytes(b"P5 2 2 65535\n" + b"\x00" * 8)
    with pytest.raises(ImageFormatError, match="maxval"):
        read_pgm(tmp_path / "deep.pgm")
    _report(11, "ICAMW001 and PPM/PGM round trips are byte-identical; each "
                "documented corruption raises its named error")
