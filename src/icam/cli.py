"""Command-line entry point.

Subcommands:
  explain       heatmap + overlay + JSON sidecar for one image
  score-layers  per-layer importance report
  eval          IoU / saliency metrics over a JSON-lines manifest
  compare       all four CAM methods side by side
  verify        derivative and divergence self-checks
  make-fixture  write the deterministic fixture model
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import cam, metrics, pipeline, render, verify
from .layerscore import DEFAULT_THRESHOLD, NoInformativeLayersError
from .model import (ModelFormatError, NonFiniteImageError, build_fixture_model,
                    load_model, save_model)
from .perturb import DEFAULT_ALPHA, DEFAULT_N, PerturbationConfig
from .tensor import ShapeError

DEFAULT_BLEND = 0.5

# what main() reports as "error: ..." with exit status 1, without a traceback
_USER_ERRORS = (OSError, ModelFormatError, render.ImageFormatError,
               pipeline.ManifestError, pipeline.UnknownLayerError, ShapeError,
               NonFiniteImageError, cam.SmoothOverflowError,
               NoInformativeLayersError)


def _bounded(convert, accept, bounds):
    """argparse type: convert the text, then require it to lie in bounds."""
    def parse(text):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(
                f"must be in {bounds}, got {text}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


_AT_LEAST_ONE = _bounded(int, lambda v: v >= 1, "[1, inf)")
_UNIT_CLOSED = _bounded(float, lambda v: 0.0 <= v <= 1.0, "[0,1]")
_UNIT_OPEN = _bounded(float, lambda v: 0.0 < v < 1.0, "(0,1)")
_UNIT_HALF_OPEN = _bounded(float, lambda v: 0.0 < v <= 1.0, "(0,1]")


def _add_common(p, with_method=True):
    p.add_argument("--model", required=True, help="ICAMW001 weight file")
    if with_method:
        p.add_argument("--method", choices=cam.METHODS, default="icam")
        p.add_argument("--smooth", choices=cam.SMOOTHS, default=None,
                       help="override the method's default smooth function")
        p.add_argument("--bias", choices=cam.BIAS_MODES, default="channel")
        p.add_argument("--layer", action="append", dest="layers", default=None,
                       help="explicit scoring point ('final' = last); repeatable")
    p.add_argument("--n-perturb", type=_AT_LEAST_ONE, default=DEFAULT_N)
    p.add_argument("--alpha", type=_UNIT_CLOSED, default=DEFAULT_ALPHA)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--threshold", type=_UNIT_HALF_OPEN,
                   default=DEFAULT_THRESHOLD,
                   help="cumulative layer-score threshold T")


def _heatmap_to_pgm(values):
    return np.clip(np.rint(values * 255.0), 0, 255).astype(np.uint8)


def _write_json(obj, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")


def _request(args):
    return cam.CamRequest(method=args.method, smooth=args.smooth,
                          bias=args.bias,
                          layers=tuple(args.layers) if args.layers else None)


def _perturb_config(args):
    return PerturbationConfig(n=args.n_perturb, alpha=args.alpha, seed=args.seed)


def cmd_explain(args):
    model = load_model(args.model)
    rgb = render.read_ppm(args.image)
    image = pipeline.image_from_rgb(rgb)
    request = _request(args)
    config = _perturb_config(args)
    result = pipeline.explain(model, image, request, config, args.threshold)

    render.write_pgm(_heatmap_to_pgm(result.heatmap.values),
                     f"{args.out_prefix}.pgm")
    render.write_ppm(render.overlay(rgb, result.heatmap.values, args.blend),
                     f"{args.out_prefix}_overlay.ppm")
    _write_json(pipeline.sidecar_dict(result, request, config),
                f"{args.out_prefix}.json")
    print(f"class {result.class_index}  probability {result.probability:.6f}  "
          f"layers {','.join(result.layers)}")
    return 0


def cmd_score_layers(args):
    model = load_model(args.model)
    image = pipeline.image_from_rgb(render.read_ppm(args.image))
    config = _perturb_config(args)
    result = pipeline.explain(model, image, cam.CamRequest(method="icam"),
                              config, args.threshold)
    report = result.report
    _write_json(report.to_json_dict(n=config.n, alpha=config.alpha,
                                    seed=config.seed), args.out)

    print(f"{'layer':<12}{'score':>14}{'selected':>10}{'weight':>12}")
    ranked = sorted(report.scores, key=lambda n: -report.scores[n])
    for name in ranked:
        sel = name in report.layer_weights
        w = f"{report.layer_weights[name]:.6f}" if sel else "-"
        print(f"{name:<12}{report.scores[name]:>14.6f}"
              f"{'yes' if sel else 'no':>10}{w:>12}")
    return 0


def cmd_eval(args):
    model = load_model(args.model)
    records = pipeline.parse_manifest(args.manifest, model.spec.input_shape,
                                      model.spec.num_classes)
    summary = pipeline.evaluate_manifest(
        model, records, _request(args), _perturb_config(args),
        args.threshold, args.iou_threshold_frac)
    _write_json(summary, args.out)
    print(json.dumps(summary, sort_keys=True, indent=2))
    return 0


def cmd_compare(args):
    model = load_model(args.model)
    rgb = render.read_ppm(args.image)
    image = pipeline.image_from_rgb(rgb)
    config = _perturb_config(args)
    overlays = []
    for method in cam.METHODS:
        request = cam.CamRequest(method=method, bias=args.bias)
        result = pipeline.explain(model, image, request, config, args.threshold)
        render.write_pgm(_heatmap_to_pgm(result.heatmap.values),
                         f"{args.out_prefix}_{method}.pgm")
        ov = render.overlay(rgb, result.heatmap.values, args.blend)
        render.write_ppm(ov, f"{args.out_prefix}_{method}_overlay.ppm")
        overlays.append(ov)
    strip = np.concatenate(overlays, axis=1)
    render.write_ppm(strip, f"{args.out_prefix}_strip.ppm")
    print(f"wrote {len(overlays)} methods + strip to {args.out_prefix}_*")
    return 0


def cmd_verify(args):
    model = load_model(args.model) if args.model else build_fixture_model(args.seed)
    checks = verify.run_all(model)
    failed = 0
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.suite}: {c.name}  "
              f"worst={c.worst_error:.3e} tol={c.tolerance:.0e}")
        failed += not c.passed
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else 0


def cmd_make_fixture(args):
    save_model(build_fixture_model(args.seed), args.out)
    print(f"wrote fixture (seed {args.seed}) to {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="icam",
        description="Multi-layer CAM explainability toolkit for the toy CNN")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("explain", help="heatmap + overlay + sidecar for one image")
    _add_common(p)
    p.add_argument("--image", required=True, help="input PPM (P6) image")
    p.add_argument("--out-prefix", default="explain")
    p.add_argument("--blend", type=_UNIT_CLOSED, default=DEFAULT_BLEND)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("score-layers", help="per-layer importance report")
    _add_common(p, with_method=False)
    p.add_argument("--image", required=True)
    p.add_argument("--out", default="layer_scores.json")
    p.set_defaults(func=cmd_score_layers)

    p = sub.add_parser("eval", help="IoU/saliency metrics over a manifest")
    _add_common(p)
    p.add_argument("--manifest", required=True, help="JSON-lines manifest")
    p.add_argument("--iou-threshold-frac", type=_UNIT_OPEN,
                   default=metrics.DEFAULT_THRESHOLD_FRAC)
    p.add_argument("--out", default="eval.json")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="all four methods on one image")
    _add_common(p, with_method=False)
    p.add_argument("--image", required=True)
    p.add_argument("--bias", choices=cam.BIAS_MODES, default="channel")
    p.add_argument("--out-prefix", default="compare")
    p.add_argument("--blend", type=_UNIT_CLOSED, default=DEFAULT_BLEND)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify", help="derivative and divergence self-checks")
    p.add_argument("--model", default=None, help="optional ICAMW001 file; "
                   "defaults to the built-in fixture")
    p.add_argument("--seed", type=int, default=7, help="fixture seed")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("make-fixture", help="write the fixture model file")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_make_fixture)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _USER_ERRORS as exc:
        raise SystemExit(f"error: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
