import hashlib
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from icam import cam, cli, pipeline
from icam.cli import main
from icam.model import build_fixture_model, forward_trace, load_model, save_model
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


def _readme_block(heading, lang):
    """The first `lang` code block under README.md's `## heading`."""
    readme = (Path(__file__).resolve().parents[1] / "README.md"
              ).read_text(encoding="utf-8")
    return readme.split(f"\n## {heading}\n", 1)[1] \
        .split(f"```{lang}\n", 1)[1].split("\n```", 1)[0]


def test_console_script_is_cli_main():
    # `pip install .` puts an `icam` command on PATH that calls this target
    import importlib
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["icam"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is main


class TestParser:
    def test_built_once_per_process(self, tmp_path, monkeypatch):
        import argparse
        assert main(["make-fixture", "--out", str(tmp_path / "a.icamw")]) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(["make-fixture", "--out", str(tmp_path / "b.icamw")]) == 0
        assert built == []

    def test_reuse_keeps_no_state_between_parses(self):
        from icam.cli import build_parser
        common = ["explain", "--model", "m", "--image", "i"]
        first = build_parser().parse_args(common + ["--layer", "block1"])
        second = build_parser().parse_args(common + ["--layer", "block2"])
        third = build_parser().parse_args(common)
        assert (first.layers, second.layers, third.layers) \
            == (["block1"], ["block2"], None)

    def test_readme_cli_block_parses(self, capsys):
        # every documented command line names only flags the CLI still has;
        # it is parsed, not run
        block = _readme_block("CLI", "sh")
        lines = [line for line in block.replace("\\\n", " ").splitlines()
                 if line.startswith("icam ")]
        assert len(lines) >= 6
        for line in lines:
            try:
                cli.build_parser().parse_args(shlex.split(line)[1:])
            except SystemExit:
                pytest.fail(f"README line does not parse: {line}\n"
                            f"{capsys.readouterr().err}")

    def test_readme_library_block_runs(self):
        # the documented library use runs as written, in a fresh process
        proc = _run_python(_readme_block("Library use", "python"))
        assert proc.returncode == 0, proc.stderr


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
    def _run(self, workspace, tmp_path, extra=("--n-perturb", "2")):
        _, model_path, image_path = workspace
        prefix = str(tmp_path / "out")
        rc = main(["explain", "--model", model_path, "--image", image_path,
                   "--out-prefix", prefix, *extra])
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
        # the sidecar names only settings that ran: gradcam takes neither
        assert sidecar["smooth"] is None and sidecar["bias"] is None

    def test_matches_library_result(self, workspace, tmp_path):
        prefix = self._run(workspace, tmp_path)
        _, model_path, image_path = workspace
        model = load_model(model_path)
        image = pipeline.image_from_rgb(read_ppm(image_path))
        result = pipeline.explain(model, image, cam.CamRequest("icam", n=2))
        expected = np.clip(np.rint(result.heatmap.values * 255), 0,
                           255).astype(np.uint8)
        assert np.array_equal(read_pgm(prefix + ".pgm"), expected)


class TestLayerReport:
    """The layer scorer's report is the `layer_scores` of explain's sidecar."""

    def _layer_scores(self, workspace, tmp_path, *flags):
        _, model_path, image_path = workspace
        prefix = str(tmp_path / "ex")
        assert main(["explain", "--model", model_path, "--image", image_path,
                     "--out-prefix", prefix, *flags]) == 0
        return json.loads(Path(prefix + ".json").read_text())["layer_scores"]

    def test_scores_every_block(self, workspace, tmp_path):
        blob = self._layer_scores(workspace, tmp_path, "--n-perturb", "1")
        assert set(blob["scores"]) == {"block1", "block2", "block3"}
        assert blob["n"] == 1

    def test_matches_library_scores(self, workspace, tmp_path):
        blob = self._layer_scores(workspace, tmp_path, "--n-perturb", "1")
        _, model_path, image_path = workspace
        model = load_model(model_path)
        image = pipeline.image_from_rgb(read_ppm(image_path))
        result = pipeline.explain(model, image, cam.CamRequest("icam", n=1))
        for name, score in result.report.scores.items():
            assert abs(blob["scores"][name] - score) < 1e-12

    @pytest.mark.parametrize("flags", [(), ("--n-perturb", "3", "--alpha",
                                            "0.6", "--seed", "5",
                                            "--threshold", "0.5")],
                             ids=["defaults", "custom"])
    def test_carries_the_scorer_flags(self, workspace, tmp_path, flags):
        # one request carries all four flags, or all four defaults
        blob = self._layer_scores(workspace, tmp_path, *flags)
        expected = (dict(n=3, alpha=0.6, seed=5, threshold=0.5) if flags
                    else cam.SCORER_DEFAULTS)
        assert {k: blob[k] for k in cam.SCORER_DEFAULTS} == expected

    def test_threshold_one_selects_all_informative(self, workspace, tmp_path):
        blob = self._layer_scores(workspace, tmp_path, "--n-perturb", "1",
                                  "--threshold", "1.0")
        informative = [n for n, s in blob["scores"].items() if s > 0]
        assert sorted(blob["selected"]) == sorted(informative)

    def test_score_layers_is_not_a_command(self, workspace, tmp_path, capsys,
                                           monkeypatch):
        # explain's sidecar is the one door to the report
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["score-layers", "--model", workspace[1],
                  "--image", workspace[2]])
        assert exc.value.code == 2
        assert "invalid choice: 'score-layers'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


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

    @pytest.mark.parametrize("bias", cam.BIAS_MODES)
    @pytest.mark.parametrize("seed", [42, 7, 3])
    def test_each_map_equals_its_own_explain(self, tmp_path, monkeypatch,
                                             seed, bias):
        # compare maps gradcam, gradcampp and layercam from row 0 of icam's
        # trace; a separate explain per method, with its own one-image
        # trace, is the oracle, and the float heatmaps must match bit for bit
        model_path, image_path = str(tmp_path / "m.icamw"), str(tmp_path / "i.ppm")
        save_model(build_fixture_model(seed), model_path)
        model = load_model(model_path)   # the weights as the file rounds them
        rgb = np.random.default_rng(seed).integers(0, 256, size=(32, 32, 3),
                                                   dtype=np.uint8)
        write_ppm(rgb, image_path)
        written = {}
        write_heatmap = cli._write_heatmap

        def recording(rgb, heatmap, prefix, blend):
            written[prefix.rsplit("_", 1)[1]] = heatmap.values
            return write_heatmap(rgb, heatmap, prefix, blend)

        monkeypatch.setattr(cli, "_write_heatmap", recording)
        assert main(["compare", "--model", model_path, "--image", image_path,
                     "--n-perturb", "3", "--bias", bias,
                     "--out-prefix", str(tmp_path / "cmp")]) == 0
        image = pipeline.image_from_rgb(rgb)
        # --bias and --n-perturb are icam's; the Grad-CAM family takes neither
        requests = {m: cam.CamRequest(m) for m in cam.METHODS}
        requests["icam"] = cam.CamRequest("icam", bias=bias, n=3)
        for method, request in requests.items():
            oracle = pipeline.explain(model, image, request)
            assert written[method].tobytes() == oracle.heatmap.values.tobytes()
        assert list(written) == list(cam.METHODS)


    def test_takes_all_four_scorer_flags(self, workspace, tmp_path):
        # its icam map is explain's at the same flags, byte for byte
        _, model_path, image_path = workspace
        flags = ["--n-perturb", "3", "--alpha", "0.6", "--seed", "5",
                 "--threshold", "0.5"]
        assert main(["compare", "--model", model_path, "--image", image_path,
                     *flags, "--out-prefix", str(tmp_path / "cmp")]) == 0
        assert main(["explain", "--model", model_path, "--image", image_path,
                     *flags, "--out-prefix", str(tmp_path / "ex")]) == 0
        for suffix in (".pgm", "_overlay.ppm"):
            assert (tmp_path / f"cmp_icam{suffix}").read_bytes() == \
                (tmp_path / f"ex{suffix}").read_bytes()


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
                   "--method", "gradcam", "--out", out])
        assert rc == 0
        summary = json.loads(Path(out).read_text())
        assert summary["records"] == 3
        assert summary["correct"] == 2
        assert abs(summary["accuracy"] - 2 / 3) < 1e-12
        assert 0.0 <= summary["mean_iou"] <= 1.0
        assert 0.0 < summary["mean_saliency"] <= 1.0
        assert 0 <= summary["zero_heatmaps"] <= summary["correct"]
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
    def test_passes_and_prints_every_check(self, tmp_path, capsys):
        seed7 = str(tmp_path / "seed7.icamw")
        assert main(["make-fixture", "--seed", "7", "--out", seed7]) == 0
        capsys.readouterr()
        rc = main(["verify", "--model", seed7])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        # the model's four checks alone: the library's suites run in tests/
        assert [line.split("  ")[0] for line in lines[:-1]] == [
            f"[PASS] derivative-identity: {s} n={n}"
            for s in ("exp", "softmax") for n in (2, 3)]
        assert lines[-1] == "4/4 checks passed"

    def test_model_is_required(self, capsys):
        # make-fixture is the one way to build a fixture to check
        with pytest.raises(SystemExit) as exc:
            main(["verify"])
        assert exc.value.code == 2   # argparse's usage error
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: icam verify ")
        assert captured.err.endswith("icam verify: error: the following "
                                     "arguments are required: --model\n")

    def test_seed_is_an_unrecognized_argument(self, workspace, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--model", workspace[1], "--seed", "3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("icam: error: unrecognized arguments: "
                                     "--seed 3\n")

    def test_zero_head_fails_derivative_identity(self, workspace, tmp_path,
                                                 capsys):
        # no final-layer gradient: no trial reaches the identity, so all
        # four checks fail instead of passing at worst = 0
        model = load_model(workspace[1])
        model.weights["head.weight"][:] = 0.0
        zero_head = str(tmp_path / "zero_head.icamw")
        save_model(model, zero_head)
        assert main(["verify", "--model", zero_head]) == 1
        lines = capsys.readouterr().out.splitlines()
        failed = [line for line in lines if line.startswith("[FAIL]")]
        assert [line.split("  ")[0] for line in failed] == [
            f"[FAIL] derivative-identity: {s} n={n}"
            for s in ("exp", "softmax") for n in (2, 3)]
        assert lines[-1] == "0/4 checks passed"

    @pytest.mark.parametrize("scale", [100.0, 2000.0])
    def test_saturated_head(self, workspace, tmp_path, capsys, scale):
        # exp is differentiated as e^(s - S^c), so a top logit of ~1500 does
        # not overflow it; the softmax rounds to 1, where both sides of
        # each trial are 0, so no trial counts and its checks fail at nan
        model = load_model(workspace[1])
        for name in ("head.weight", "head.bias"):
            model.weights[name] = scale * model.weights[name]
        saturated = str(tmp_path / "saturated.icamw")
        save_model(model, saturated)
        assert main(["verify", "--model", saturated]) == 1
        lines = capsys.readouterr().out.splitlines()
        identity = [line.split(" tol=")[0] for line in lines[:-1]]
        assert [line.split("  ")[0] for line in identity] == [
            "[PASS] derivative-identity: exp n=2",
            "[PASS] derivative-identity: exp n=3",
            "[FAIL] derivative-identity: softmax n=2",
            "[FAIL] derivative-identity: softmax n=3"]
        assert all(line.endswith("worst=nan") for line in identity[2:])
        assert lines[-1] == "2/4 checks passed"


class _BlockMpmath:
    """A sys.meta_path finder for which mpmath is not installed."""

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "mpmath":
            raise ModuleNotFoundError("No module named 'mpmath'",
                                      name="mpmath")
        return None


def _run_python(code):
    import os
    import subprocess
    import sys
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(pipeline.__file__)))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)


class TestImportGraph:
    """No command, verify included, loads decimal or needs mpmath: the
    60-digit decimal oracle is a test's."""

    def test_importing_cli_loads_neither_decimal_nor_mpmath(self):
        proc = _run_python(
            "import sys\n"
            "import icam.cli\n"
            "print(sorted(m for m in ('mpmath', 'decimal')"
            " if m in sys.modules))\n")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_every_command_runs_without_mpmath(self, tmp_path):
        import inspect
        model, image = tmp_path / "m.icamw", tmp_path / "img.ppm"
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(json.dumps(
            {"image": str(image), "bbox": [2, 2, 20, 20], "label": 0}) + "\n")
        write_ppm(np.random.default_rng(0).integers(
            0, 256, size=(32, 32, 3), dtype=np.uint8), image)
        commands = [
            ["make-fixture", "--out", str(model)],
            ["explain", "--model", str(model), "--image", str(image),
             "--out-prefix", str(tmp_path / "ex")],
            ["compare", "--model", str(model), "--image", str(image),
             "--out-prefix", str(tmp_path / "cmp")],
            ["eval", "--model", str(model), "--manifest", str(manifest),
             "--out", str(tmp_path / "eval.json")],
            ["verify", "--model", str(model)],
        ]
        proc = _run_python(
            "import sys\n"
            + inspect.getsource(_BlockMpmath)
            + "sys.meta_path.insert(0, _BlockMpmath())\n"
            "from icam.cli import main\n"
            f"for argv in {commands!r}:\n"
            "    assert main(argv) == 0, argv\n"
            "assert 'mpmath' not in sys.modules\n"
            "assert 'decimal' not in sys.modules\n")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith("\n4/4 checks passed\n")
        for name in ("ex.pgm", "ex.json", "cmp_strip.ppm", "eval.json"):
            assert (tmp_path / name).is_file()


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
        err = capsys.readouterr().err
        assert err.startswith("usage: icam explain ")
        # argparse converts each flag; its owner checks the value's range
        assert {("--n-perturb", "0"): "error: n must be an integer >= 1, got 0",
                ("--n-perturb", "1.5"):
                    "error: argument --n-perturb: invalid int value: '1.5'",
                ("--alpha", "-0.1"): "error: alpha must be in [0,1], got -0.1",
                ("--alpha", "nan"): "error: alpha must be in [0,1], got nan",
                ("--threshold", "0"):
                    "error: threshold must be in (0,1], got 0.0",
                ("--threshold", "1.01"):
                    "error: threshold must be in (0,1], got 1.01",
                ("--blend", "3"): "error: blend must be in [0,1], got 3.0",
                }[flag, value] in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command, args, name", [
        ("explain", ("--method", "gradcam", "--n-perturb", "2"), "n"),
        ("explain", ("--layer", "block2", "--seed", "5"), "seed"),
        ("explain", ("--method", "gradcampp", "--threshold", "0.5"),
         "threshold"),
        ("eval", ("--method", "layercam", "--alpha", "0.3"), "alpha"),
        ("eval", ("--layer", "final", "--n-perturb", "2"), "n")],
        ids=["explain-gradcam-n", "explain-named-seed",
             "explain-gradcampp-threshold", "eval-layercam-alpha",
             "eval-named-n"])
    def test_scorer_flag_outside_automatic_icam(self, workspace, tmp_path,
                                                capsys, command, args, name):
        # n, alpha, seed and T only run in automatic icam; elsewhere each is
        # refused under the subcommand's usage line, before any file is read
        _, model_path, image_path = workspace
        out = tmp_path / "out"
        out.mkdir()
        io = (("--image", image_path, "--out-prefix", str(out / "x"))
              if command == "explain" else
              ("--manifest", str(tmp_path / "none.jsonl"),
               "--out", str(out / "x.json")))
        with pytest.raises(SystemExit) as exc:
            main([command, "--model", model_path, *io, *args])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: icam {command} ")
        assert err.endswith(f"icam {command}: error: {name} applies to "
                            f"automatic icam only (method icam, no layers "
                            f"named)\n")
        assert list(out.iterdir()) == []

    def test_compare_checks_the_scorer_ranges(self, workspace, tmp_path,
                                              capsys):
        _, model_path, image_path = workspace
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--model", model_path, "--image", image_path,
                  "--n-perturb", "0", "--out-prefix", str(tmp_path / "x")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: icam compare ")
        assert err.endswith("icam compare: error: n must be an integer "
                            ">= 1, got 0\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["0", "1", "x"])
    def test_bad_iou_threshold_frac(self, workspace, tmp_path, capsys, value):
        _, model_path, _ = workspace
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--model", model_path, "--manifest", "none.jsonl",
                  "--iou-threshold-frac", value])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith({
            "0": "error: frac must be in (0,1), got 0.0\n",
            "1": "error: frac must be in (0,1), got 1.0\n",
            "x": "error: argument --iou-threshold-frac: invalid float value: "
                 "'x'\n"}[value])

    @pytest.mark.parametrize("model", ["fixture", "missing"])
    @pytest.mark.parametrize("command, flag, value, message", [
        *(pytest.param(command, "--blend", value,
                       f"blend must be in [0,1], got {shown}",
                       id=f"{command}-blend-{value}")
          for command in ("explain", "compare")
          for value, shown in (("3", "3.0"), ("-0.1", "-0.1"), ("nan", "nan"))),
        *(pytest.param("eval", "--iou-threshold-frac", value,
                       f"frac must be in (0,1), got {shown}",
                       id=f"eval-frac-{value}")
          for value, shown in (("0", "0.0"), ("1", "1.0"), ("nan", "nan")))])
    def test_range_checked_by_its_owner_before_any_file_is_read(
            self, workspace, tmp_path, capsys, model, command, flag, value,
            message):
        # render.check_blend and metrics.check_frac refuse the value under the
        # subcommand's usage line; a model file that does not exist is never
        # opened
        _, model_path, image_path = workspace
        if model == "missing":
            model_path = str(tmp_path / "missing.icamw")
        out = tmp_path / "out"
        out.mkdir()
        io = (("--manifest", str(tmp_path / "none.jsonl"),
               "--out", str(out / "x.json")) if command == "eval" else
              ("--image", image_path, "--out-prefix", str(out / "x")))
        with pytest.raises(SystemExit) as exc:
            main([command, "--model", model_path, *io, flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: icam {command} ")
        assert err.endswith(f"icam {command}: error: {message}\n")
        assert list(out.iterdir()) == []


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

    @pytest.mark.parametrize("command", ["explain", "compare"])
    def test_image_size_names_file(self, workspace, tmp_path, command):
        # every command reads its image through pipeline.read_image
        wrong = tmp_path / "wide.ppm"
        write_ppm(np.zeros((40, 48, 3), dtype=np.uint8), wrong)
        with pytest.raises(SystemExit) as exc:
            main([command, "--model", workspace[1], "--image", str(wrong),
                  "--n-perturb", "2", "--out-prefix", str(tmp_path / "out")])
        assert exc.value.code == (f"error: {wrong}: image shape (3, 40, 48) "
                                  f"!= model input (3, 32, 32)")
        assert not list(tmp_path.glob("out*"))

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

    @pytest.mark.parametrize("blob, lineno", [
        (b'\xff\xfe{"image": "x.ppm", "bbox": [0, 0, 3, 3], "label": 0}\n', 1),
        (b'{"image": "x.ppm", "bbox": [0, 0, 3, 3], "label": 0}\n'
         b'{"image": "\xff.ppm", "bbox": [0, 0, 3, 3], "label": 0}\n', 2)],
        ids=["utf16-bom", "bad-byte"])
    def test_manifest_not_utf8(self, workspace, tmp_path, blob, lineno):
        manifest = tmp_path / "bad.jsonl"
        manifest.write_bytes(blob)
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--model", workspace[1], "--manifest", str(manifest)])
        assert exc.value.code.startswith(
            f"error: malformed manifest line {lineno}: ")

    def test_compare_icam_failure_writes_no_file(self, workspace, tmp_path):
        # head scaled by 10^3: the softmax saturates and every gradient is 0
        model = load_model(workspace[1])
        for name in ("head.weight", "head.bias"):
            model.weights[name] = 1e3 * model.weights[name]
        scaled = str(tmp_path / "scaled.icamw")
        save_model(model, scaled)
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--model", scaled, "--image", workspace[2],
                  "--out-prefix", str(tmp_path / "cmp")])
        assert exc.value.code.startswith("error: no informative layers")
        assert not list(tmp_path.glob("cmp*"))

    @pytest.mark.parametrize("error", [ValueError, OverflowError,
                                       MemoryError])
    def test_standard_error_class_is_a_user_error(self, workspace, tmp_path,
                                                   monkeypatch, error):
        def fails(*args):
            raise error("raised inside the command")
        monkeypatch.setattr(pipeline, "explain", fails)
        assert self._explain_fails(workspace, tmp_path) \
            == "error: raised inside the command"

    @pytest.mark.parametrize("error", [RuntimeError, TypeError, ImportError])
    def test_bug_class_still_raises(self, workspace, tmp_path, monkeypatch,
                                    error):
        def fails(*args):
            raise error("a bug")
        monkeypatch.setattr(pipeline, "explain", fails)
        with pytest.raises(error, match="a bug"):
            main(["explain", "--model", workspace[1], "--image", workspace[2],
                  "--out-prefix", str(tmp_path / "out")])

    def test_eval_record_image_missing(self, workspace, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(json.dumps({"image": str(tmp_path / "gone.ppm"),
                                        "bbox": [0, 0, 3, 3], "label": 0}))
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--model", workspace[1], "--manifest", str(manifest)])
        assert exc.value.code.startswith("error: ") \
            and "gone.ppm" in exc.value.code

    @staticmethod
    def _run_process(*args):
        import os
        import subprocess
        import sys
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(pipeline.__file__)))
        return subprocess.run([sys.executable, "-m", "icam.cli", *args],
                              capture_output=True, text=True, env=env)

    @classmethod
    def _run_explain(cls, workspace, tmp_path, *args, model=None):
        return cls._run_process("explain", "--model", model or workspace[1],
                                "--out-prefix", str(tmp_path / "out"), *args)

    @pytest.mark.parametrize("sizes", [(32, 16), (16,)],
                             ids=["mixed", "small"])
    def test_process_eval_image_size_names_file(self, workspace, tmp_path,
                                                sizes):
        lines = []
        for i, size in enumerate(sizes):
            path = str(tmp_path / f"r{i}_{size}.ppm")
            write_ppm(np.zeros((size, size, 3), dtype=np.uint8), path)
            lines.append(json.dumps({"image": path, "bbox": [0, 0, 3, 3],
                                     "label": 0}))
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("\n".join(lines) + "\n")
        out = tmp_path / "eval.json"
        proc = self._run_process("eval", "--model", workspace[1], "--manifest",
                                 str(manifest), "--out", str(out))
        small = tmp_path / f"r{len(sizes) - 1}_16.ppm"
        assert proc.returncode == 1
        assert proc.stderr == (f"error: {small}: image shape (3, 16, 16) != "
                               f"model input (3, 32, 32)\n")
        assert not out.exists()

    def test_process_prints_message_without_traceback(self, workspace,
                                                      tmp_path):
        wrong = tmp_path / "wide.ppm"
        write_ppm(np.zeros((40, 48, 3), dtype=np.uint8), wrong)
        proc = self._run_explain(workspace, tmp_path, "--image", str(wrong))
        assert proc.returncode == 1
        assert proc.stderr == (f"error: {wrong}: image shape (3, 40, 48) != "
                               f"model input (3, 32, 32)\n")
        assert "Traceback" not in proc.stderr

    def test_process_underscore_header_field_without_traceback(
            self, workspace, tmp_path):
        # int() would read "3_2" as 32; a PPM header field is ASCII digits
        bad = tmp_path / "underscore.ppm"
        bad.write_bytes(b"P6 3_2 32 255\n" + bytes(3072))
        proc = self._run_explain(workspace, tmp_path, "--image", str(bad))
        assert proc.returncode == 1
        assert proc.stderr == (f"error: {bad}: non-numeric header field "
                               f"b'3_2': must be ASCII decimal digits\n")
        assert "Traceback" not in proc.stderr
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("args", [(), ("--layer", "7")],
                             ids=["automatic", "named"])
    def test_process_integer_block_name_without_traceback(
            self, workspace, tmp_path, args):
        def rename(header):
            header["__meta__"]["blocks"][0]["name"] = 7
            for part in ("weight", "bias"):
                header[f"7.{part}"] = header.pop(f"block1.{part}")
        bad = tmp_path / "named7.icamw"
        bad.write_bytes(_resaved_model(workspace[1], rename))
        proc = self._run_explain(workspace, tmp_path, "--image", workspace[2],
                                 *args, model=str(bad))
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: bad __meta__ entry: block names")
        assert "Traceback" not in proc.stderr
        assert not list(tmp_path.glob("out*"))

    def test_process_unknown_layer_without_traceback(self, workspace,
                                                     tmp_path):
        proc = self._run_explain(workspace, tmp_path, "--image", workspace[2],
                                 "--layer", "block9")
        assert proc.returncode == 1
        assert proc.stderr == ("error: unknown scoring point 'block9' "
                               "(available: block1, block2, block3)\n")
        assert not list(tmp_path.glob("out*"))

    def test_process_too_many_perturbations_without_traceback(
            self, workspace, tmp_path):
        # numpy refuses this shape before it allocates anything
        n = 10**30
        proc = self._run_explain(workspace, tmp_path, "--image", workspace[2],
                                 "--n-perturb", str(n))
        assert proc.returncode == 1
        assert proc.stderr == (f"error: n = {n} perturbations of a 3x32x32 "
                               f"image do not fit in memory\n")
        assert "Traceback" not in proc.stderr
        assert not list(tmp_path.glob("out*"))

    def test_process_removed_bias_mode_is_a_usage_error(self, workspace,
                                                        tmp_path):
        proc = self._run_explain(workspace, tmp_path, "--image", workspace[2],
                                 "--bias", "spatial")
        assert proc.returncode == 2   # argparse's usage error
        assert "argument --bias: invalid choice: 'spatial'" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("args", [
        ("--method", "gradcampp", "--smooth", "identity"),
        ("--method", "icam", "--smooth", "identity"),
        ("--method", "icam", "--layer", "block3", "--smooth", "identity")])
    def test_process_identity_smooth_without_alpha(self, workspace, tmp_path,
                                                   args):
        proc = self._run_explain(workspace, tmp_path, "--image", workspace[2],
                                 *args)
        assert proc.returncode == 2   # argparse's usage error
        assert "argument --smooth: invalid choice: 'identity'" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("command", ["explain", "eval"])
    @pytest.mark.parametrize("method", ["gradcam", "gradcampp", "layercam"])
    def test_process_smooth_outside_icam_is_a_usage_error(self, workspace,
                                                          tmp_path, method,
                                                          command):
        if command == "explain":
            io = ("--image", workspace[2], "--out-prefix",
                  str(tmp_path / "out"))
        else:
            manifest = tmp_path / "m.jsonl"
            manifest.write_text(json.dumps({"image": workspace[2],
                                            "bbox": [0, 0, 7, 7],
                                            "label": 0}) + "\n")
            io = ("--manifest", str(manifest), "--out",
                  str(tmp_path / "out.json"))
        # the subcommand's usage, as argparse prints it for its own errors
        own = self._run_process(command, "--model", workspace[1], *io,
                                "--bias", "spatial").stderr
        usage = own[:own.index(f"icam {command}: error: ")]
        assert usage.startswith(f"usage: icam {command} [-h] --model MODEL")
        # --bias is icam's too, so every mode of it is refused like --smooth
        for name, value in (("smooth", "exp"), ("bias", "none"),
                            ("bias", "channel")):
            proc = self._run_process(command, "--model", workspace[1], *io,
                                     "--method", method, f"--{name}", value)
            assert proc.returncode == 2   # argparse's usage error
            assert proc.stderr == (f"{usage}icam {command}: error: {name} "
                                   f"applies to icam only; {method} has a "
                                   f"fixed form\n")
            assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("args, message", [
        (("--method", "gradcampp"), None),   # scale-free: a heatmap, exit 0
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
        if message is None:
            assert proc.returncode == 0 and proc.stderr == ""
            assert (tmp_path / "out.pgm").exists()
            return
        assert proc.returncode == 1
        assert proc.stderr.startswith(message)
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert not list(tmp_path.glob("out*"))

    def test_process_exp_map_overflow_below_the_exp_limit(self, workspace,
                                                          tmp_path):
        # head x945 on this image: S^c ~705.9, so e^(S^c) fits a float64,
        # but f'' g^2 and the sums built on it do not
        model = load_model(workspace[1])
        for name in ("head.weight", "head.bias"):
            model.weights[name] = 945.0 * model.weights[name]
        saturated = tmp_path / "saturated.icamw"
        save_model(model, saturated)
        image = np.random.default_rng(0).random((3, 32, 32))
        rgb = np.round(np.transpose(image, (1, 2, 0)) * 255).astype(np.uint8)
        write_ppm(rgb, tmp_path / "image.ppm")
        proc = self._run_explain(workspace, tmp_path, "--image",
                                 str(tmp_path / "image.ppm"), "--smooth",
                                 "exp", "--bias", "none", "--layer", "block3",
                                 model=str(saturated))
        assert proc.returncode == 1
        assert re.fullmatch(r"error: exp smooth overflows at logit "
                            r"S\^c = 705\.\d+; use the softmax smooth\n",
                            proc.stderr)
        assert not list(tmp_path.glob("out*"))


def test_every_named_error_reaches_the_handler():
    """Every exception an icam module defines ends a command with one
    `error: ...` line, not a traceback."""
    import importlib
    import inspect
    import pkgutil

    import icam
    errors = []
    for info in pkgutil.iter_modules(icam.__path__):
        module = importlib.import_module(f"icam.{info.name}")
        errors += [c for _, c in inspect.getmembers(module, inspect.isclass)
                   if c.__module__ == module.__name__
                   and issubclass(c, Exception)]
    assert "NoInformativeLayersError" in [e.__name__ for e in errors]
    assert [e.__name__ for e in errors
            if not issubclass(e, cli._USER_ERRORS)] == []
