import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from icam import cam, pipeline
from icam.cli import main
from icam.model import forward_trace, load_model, save_model
from icam.perturb import PerturbationConfig
from icam.render import read_pgm, read_ppm, write_ppm

FIXTURE_SHA256 = \
    "dc06edbf5f16f8aad53aab99130feca52e95d125dea1b11086c687f67e229657"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Fixture model file plus one test image, shared by the CLI tests."""
    d = tmp_path_factory.mktemp("cli")
    model_path = str(d / "model.icamw")
    assert main(["make-fixture", "--seed", "42", "--out", model_path]) == 0
    rgb = np.random.default_rng(0).integers(0, 256, size=(32, 32, 3),
                                            dtype=np.uint8)
    image_path = str(d / "img.ppm")
    write_ppm(rgb, image_path)
    return d, model_path, image_path


class TestMakeFixture:
    def test_deterministic_and_frozen_bytes(self, workspace, tmp_path):
        _, model_path, _ = workspace
        other = str(tmp_path / "again.icamw")
        assert main(["make-fixture", "--seed", "42", "--out", other]) == 0
        blob = Path(model_path).read_bytes()
        assert blob == Path(other).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == FIXTURE_SHA256

    def test_loadable(self, workspace):
        _, model_path, _ = workspace
        model = load_model(model_path)
        assert model.spec.num_classes == 5


class TestExplain:
    def _run(self, workspace, tmp_path, extra=()):
        _, model_path, image_path = workspace
        prefix = str(tmp_path / "out")
        rc = main(["explain", "--model", model_path, "--image", image_path,
                   "--n-perturb", "2", "--out-prefix", prefix, *extra])
        assert rc == 0
        return prefix

    def test_outputs_exist_and_parse(self, workspace, tmp_path):
        prefix = self._run(workspace, tmp_path)
        heat = read_pgm(prefix + ".pgm")
        over = read_ppm(prefix + "_overlay.ppm")
        assert heat.shape == (32, 32)
        assert over.shape == (32, 32, 3)
        sidecar = json.loads(Path(prefix + ".json").read_text())
        assert sidecar["method"] == "icam"
        assert abs(sum(sidecar["layer_scores"]["weights"].values()) - 1.0) < 1e-12

    def test_byte_identical_reruns(self, workspace, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        p1 = self._run(workspace, tmp_path / "a")
        p2 = self._run(workspace, tmp_path / "b")
        for suffix in (".pgm", "_overlay.ppm", ".json"):
            assert Path(p1 + suffix).read_bytes() == \
                Path(p2 + suffix).read_bytes()

    def test_gradcam_final_layer_has_no_scores(self, workspace, tmp_path):
        prefix = self._run(workspace, tmp_path,
                           ["--method", "gradcam", "--layer", "final"])
        sidecar = json.loads(Path(prefix + ".json").read_text())
        assert "layer_scores" not in sidecar
        assert sidecar["layers"] == ["block3"]

    def test_matches_library_result(self, workspace, tmp_path):
        prefix = self._run(workspace, tmp_path)
        _, model_path, image_path = workspace
        model = load_model(model_path)
        image = pipeline.image_from_rgb(read_ppm(image_path))
        result = pipeline.explain(model, image, cam.CamRequest("icam"),
                                  PerturbationConfig(n=2))
        expected = np.clip(np.rint(result.heatmap.values * 255), 0,
                           255).astype(np.uint8)
        assert np.array_equal(read_pgm(prefix + ".pgm"), expected)


class TestScoreLayers:
    def test_report_and_table(self, workspace, tmp_path, capsys):
        _, model_path, image_path = workspace
        out = str(tmp_path / "scores.json")
        rc = main(["score-layers", "--model", model_path, "--image", image_path,
                   "--n-perturb", "1", "--out", out])
        assert rc == 0
        table = capsys.readouterr().out
        blob = json.loads(Path(out).read_text())
        assert set(blob["scores"]) == {"block1", "block2", "block3"}
        for name in blob["selected"]:
            assert name in table
        assert blob["n"] == 1

    def test_matches_library_scores(self, workspace, tmp_path):
        _, model_path, image_path = workspace
        out = str(tmp_path / "scores.json")
        main(["score-layers", "--model", model_path, "--image", image_path,
              "--n-perturb", "1", "--out", out])
        blob = json.loads(Path(out).read_text())

        model = load_model(model_path)
        image = pipeline.image_from_rgb(read_ppm(image_path))
        result = pipeline.explain(model, image, cam.CamRequest("icam"),
                                  PerturbationConfig(n=1))
        for name, score in result.report.scores.items():
            assert abs(blob["scores"][name] - score) < 1e-12

    def test_threshold_one_selects_all_informative(self, workspace, tmp_path):
        _, model_path, image_path = workspace
        out = str(tmp_path / "scores.json")
        main(["score-layers", "--model", model_path, "--image", image_path,
              "--n-perturb", "1", "--threshold", "1.0", "--out", out])
        blob = json.loads(Path(out).read_text())
        informative = [n for n, s in blob["scores"].items() if s > 0]
        assert sorted(blob["selected"]) == sorted(informative)


class TestCompare:
    def test_outputs_and_strip(self, workspace, tmp_path):
        _, model_path, image_path = workspace
        prefix = str(tmp_path / "cmp")
        rc = main(["compare", "--model", model_path, "--image", image_path,
                   "--n-perturb", "2", "--out-prefix", prefix])
        assert rc == 0
        digests = set()
        for method in ("gradcam", "gradcampp", "layercam", "icam"):
            heat = Path(f"{prefix}_{method}.pgm").read_bytes()
            digests.add(hashlib.sha256(heat).hexdigest())
            assert read_ppm(f"{prefix}_{method}_overlay.ppm").shape \
                == (32, 32, 3)
        assert len(digests) == 4  # the four methods genuinely differ
        strip = read_ppm(f"{prefix}_strip.ppm")
        assert strip.shape == (32, 4 * 32, 3)


class TestEval:
    def test_summary_round_trip(self, workspace, tmp_path, capsys):
        d, model_path, _ = workspace
        model = load_model(model_path)
        rng = np.random.default_rng(1)
        lines = []
        for i in range(3):
            rgb = rng.integers(0, 256, size=(32, 32, 3), dtype=np.uint8)
            path = str(tmp_path / f"e{i}.ppm")
            write_ppm(rgb, path)
            pred = forward_trace(model, pipeline.image_from_rgb(rgb)).class_index
            label = pred if i < 2 else (pred + 1) % 5
            lines.append(json.dumps({"image": path, "bbox": [2, 2, 29, 29],
                                     "label": int(label)}))
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "eval.json")
        rc = main(["eval", "--model", model_path, "--manifest", str(manifest),
                   "--method", "gradcam", "--n-perturb", "2", "--out", out])
        assert rc == 0
        summary = json.loads(Path(out).read_text())
        assert summary["records"] == 3
        assert summary["correct"] == 2
        assert abs(summary["accuracy"] - 2 / 3) < 1e-12
        assert 0.0 <= summary["mean_iou"] <= 1.0
        assert 0.0 < summary["mean_saliency"] <= 1.0
        printed = json.loads(capsys.readouterr().out)
        assert printed == summary

    def test_empty_manifest_fails(self, workspace, tmp_path):
        _, model_path, _ = workspace
        manifest = tmp_path / "empty.jsonl"
        manifest.write_text("\n")
        with pytest.raises(SystemExit, match="empty manifest"):
            main(["eval", "--model", model_path, "--manifest", str(manifest)])

    def test_malformed_line_names_line_number(self, workspace, tmp_path):
        _, model_path, _ = workspace
        manifest = tmp_path / "bad.jsonl"
        manifest.write_text('{"image": "x.ppm"}\n')
        with pytest.raises(SystemExit, match="line 1"):
            main(["eval", "--model", model_path, "--manifest", str(manifest)])


class TestVerify:
    def test_passes_and_prints_every_check(self, capsys):
        rc = main(["verify"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[PASS]" in out and "[FAIL]" not in out
        for suite in ("derivative-identity", "softmax-polynomials",
                      "mdd-symmetric-kl"):
            assert suite in out


class TestArgumentErrors:
    def test_missing_model_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["explain", "--model", str(tmp_path / "nope.icamw"),
                  "--image", str(tmp_path / "nope.ppm")])

    def test_unknown_method_rejected(self, workspace, capsys):
        _, model_path, image_path = workspace
        with pytest.raises(SystemExit):
            main(["explain", "--model", model_path, "--image", image_path,
                  "--method", "fancycam"])
        assert "invalid choice" in capsys.readouterr().err

    def test_no_command(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("flag, value", [
        ("--n-perturb", "0"), ("--n-perturb", "1.5"), ("--alpha", "-0.1"),
        ("--alpha", "nan"), ("--threshold", "0"), ("--threshold", "1.01"),
        ("--blend", "3")])
    def test_bad_flag_exits_at_parse_time(self, workspace, tmp_path, capsys,
                                          flag, value):
        _, model_path, image_path = workspace
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(SystemExit) as exc:
            main(["explain", "--model", model_path, "--image", image_path,
                  "--out-prefix", str(out / "x"), flag, value])
        assert exc.value.code == 2   # argparse's usage error
        assert f"argument {flag}" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("value", ["0", "1", "x"])
    def test_bad_iou_threshold_frac(self, workspace, tmp_path, capsys, value):
        _, model_path, _ = workspace
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--model", model_path, "--manifest", "none.jsonl",
                  "--iou-threshold-frac", value])
        assert exc.value.code == 2
        assert "argument --iou-threshold-frac" in capsys.readouterr().err


def _resaved_model(path, mutate_header):
    """Copy the workspace fixture to `path` with its JSON header edited."""
    blob = Path(path).read_bytes()
    hlen = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16:16 + hlen])
    mutate_header(header)
    hdr = json.dumps(header).encode()
    return blob[:8] + len(hdr).to_bytes(8, "little") + hdr + blob[16 + hlen:]


class TestUserErrors:
    """Each named error reaches the user as one "error: ..." line, exit 1."""

    def _explain_fails(self, workspace, tmp_path, model=None, image=None):
        _, model_path, image_path = workspace
        with pytest.raises(SystemExit) as exc:
            main(["explain", "--model", model or model_path,
                  "--image", image or image_path, "--n-perturb", "2",
                  "--out-prefix", str(tmp_path / "out")])
        assert isinstance(exc.value.code, str)
        assert exc.value.code.startswith("error: ")
        assert not list(tmp_path.glob("out*"))
        return exc.value.code

    def test_os_error(self, workspace, tmp_path):
        msg = self._explain_fails(workspace, tmp_path,
                                  model=str(tmp_path / "nope.icamw"))
        assert "nope.icamw" in msg

    def test_model_format_error_bad_magic(self, workspace, tmp_path):
        bad = tmp_path / "bad.icamw"
        bad.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        assert "bad magic" in self._explain_fails(workspace, tmp_path,
                                                  model=str(bad))

    def test_model_format_error_bad_meta(self, workspace, tmp_path):
        def stride_zero(header):
            header["__meta__"]["blocks"][1]["stride"] = 0
        bad = tmp_path / "stride0.icamw"
        bad.write_bytes(_resaved_model(workspace[1], stride_zero))
        assert "stride" in self._explain_fails(workspace, tmp_path,
                                               model=str(bad))

    def test_model_format_error_non_finite_weight(self, workspace, tmp_path):
        model = load_model(workspace[1])
        model.weights["head.bias"][2] = np.nan
        bad = tmp_path / "nan.icamw"
        save_model(model, bad)
        msg = self._explain_fails(workspace, tmp_path, model=str(bad))
        assert "'head.bias'" in msg and "NaN or infinite" in msg

    def test_eval_unknown_layer(self, workspace, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(json.dumps({"image": workspace[2],
                                        "bbox": [0, 0, 3, 3], "label": 0}))
        out = tmp_path / "eval.json"
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--model", workspace[1], "--manifest", str(manifest),
                  "--layer", "block9", "--out", str(out)])
        assert exc.value.code.startswith("error: unknown scoring point")
        assert not out.exists()

    def test_image_format_error_names_file(self, workspace, tmp_path):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P3 2 2 255\n" + b"\x00" * 12)
        msg = self._explain_fails(workspace, tmp_path, image=str(bad))
        assert "bad.ppm" in msg and "wrong magic" in msg

    def test_shape_error(self, workspace, tmp_path):
        wrong = tmp_path / "wide.ppm"
        write_ppm(np.zeros((40, 48, 3), dtype=np.uint8), wrong)
        assert "(3, 40, 48)" in self._explain_fails(workspace, tmp_path,
                                                    image=str(wrong))

    def test_non_finite_image_error(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "image_from_rgb",
                            lambda rgb: np.full((3, 32, 32), np.nan))
        assert "non-finite" in self._explain_fails(workspace, tmp_path)

    def test_manifest_error(self, workspace, tmp_path):
        manifest = tmp_path / "bad.jsonl"
        manifest.write_text('{"image": "x.ppm"}\n')
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--model", workspace[1], "--manifest", str(manifest)])
        assert exc.value.code.startswith("error: malformed manifest line 1")

    def test_eval_record_image_missing(self, workspace, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(json.dumps({"image": str(tmp_path / "gone.ppm"),
                                        "bbox": [0, 0, 3, 3], "label": 0}))
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--model", workspace[1], "--manifest", str(manifest)])
        assert exc.value.code.startswith("error: ") \
            and "gone.ppm" in exc.value.code

    @staticmethod
    def _run_explain(workspace, tmp_path, *args, model=None):
        import os
        import subprocess
        import sys
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(pipeline.__file__)))
        return subprocess.run(
            [sys.executable, "-m", "icam.cli", "explain", "--model",
             model or workspace[1], "--out-prefix", str(tmp_path / "out"),
             *args], capture_output=True, text=True, env=env)

    def test_process_prints_message_without_traceback(self, workspace,
                                                      tmp_path):
        wrong = tmp_path / "wide.ppm"
        write_ppm(np.zeros((40, 48, 3), dtype=np.uint8), wrong)
        proc = self._run_explain(workspace, tmp_path, "--image", str(wrong))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: image shape (3, 40, 48)")
        assert "Traceback" not in proc.stderr

    def test_process_unknown_layer_without_traceback(self, workspace,
                                                     tmp_path):
        proc = self._run_explain(workspace, tmp_path, "--image", workspace[2],
                                 "--layer", "block9")
        assert proc.returncode == 1
        assert proc.stderr == ("error: unknown scoring point 'block9' "
                               "(available: block1, block2, block3)\n")
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("args, message", [
        (("--method", "gradcampp"), "error: exp smooth overflows at logit"),
        (("--method", "icam", "--smooth", "exp"),
         "error: no informative layers"),
        (("--method", "icam", "--layer", "block2", "--smooth", "exp"),
         "error: exp smooth overflows at logit")])
    def test_process_saturated_head_without_traceback(self, workspace,
                                                      tmp_path, args,
                                                      message):
        # the fixture with its head scaled by 2000: top logit ~1494
        model = load_model(workspace[1])
        for name in ("head.weight", "head.bias"):
            model.weights[name] = 2000.0 * model.weights[name]
        saturated = tmp_path / "saturated.icamw"
        save_model(model, saturated)
        proc = self._run_explain(workspace, tmp_path, "--image", workspace[2],
                                 *args, model=str(saturated))
        assert proc.returncode == 1
        assert proc.stderr.startswith(message)
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert not list(tmp_path.glob("out*"))
