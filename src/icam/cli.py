"""Command-line entry point.

Subcommands:
  explain       heatmap + overlay + JSON sidecar for one image
  eval          IoU / saliency metrics over a JSON-lines manifest
  compare       all four CAM methods side by side
  verify        derivative-identity checks of a model
  make-fixture  write the deterministic fixture model
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import cam, metrics, pipeline, render, verify
from .model import build_fixture_model, load_model, save_model

DEFAULT_BLEND = 0.5
_BIAS_HELP = f"I-CAM's bias term (default {cam.ICAM_DEFAULTS['bias']})"

# what main() reports as "error: ..." with exit status 1, without a
# traceback: every named icam error subclasses ValueError or OverflowError
_USER_ERRORS = (OSError, ValueError, OverflowError, MemoryError)


def _add_common(p, with_method=True):
    p.add_argument("--model", required=True, help="ICAMW001 weight file")
    if with_method:
        p.add_argument("--method", choices=cam.METHODS, default="icam")
        p.add_argument("--smooth", choices=cam.SMOOTHS, default=None,
                       help="I-CAM's smooth function "
                            f"(default {cam.ICAM_DEFAULTS['smooth']})")
        p.add_argument("--bias", choices=cam.BIAS_MODES, default=None,
                       help=_BIAS_HELP)
        p.add_argument("--layer", action="append", dest="layers", default=None,
                       help="explicit scoring point ('final' = last); repeatable")
    else:   # compare: the request is automatic icam
        p.set_defaults(method="icam", smooth=None, bias=None, layers=None)
    p.set_defaults(parser=p)   # main reports a refused request with it
    p.add_argument("--n-perturb", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threshold", type=float, default=None,
                   help="cumulative layer-score threshold T")


def _write_heatmap(rgb, heatmap, prefix, blend):
    """Write `prefix`.pgm and `prefix`_overlay.ppm; return the overlay."""
    render.write_pgm(np.clip(np.rint(heatmap.values * 255.0), 0, 255)
                     .astype(np.uint8), f"{prefix}.pgm")
    ov = render.overlay(rgb, heatmap.values, blend)
    render.write_ppm(ov, f"{prefix}_overlay.ppm")
    return ov


def _write_json(obj, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")


def cmd_explain(args):
    model = load_model(args.model)
    rgb, image = pipeline.read_image(model, args.image)
    result = pipeline.explain(model, image, args.request)

    _write_heatmap(rgb, result.heatmap, args.out_prefix, args.blend)
    _write_json(pipeline.sidecar_dict(result, args.request),
                f"{args.out_prefix}.json")
    print(f"class {result.class_index}  probability {result.probability:.6f}  "
          f"layers {','.join(result.layers)}")
    return 0


def cmd_eval(args):
    model = load_model(args.model)
    records = pipeline.parse_manifest(args.manifest, model.spec.input_shape,
                                      model.spec.num_classes)
    summary = pipeline.evaluate_manifest(model, records, args.request,
                                         args.iou_threshold_frac)
    _write_json(summary, args.out)
    print(json.dumps(summary, sort_keys=True, indent=2))
    return 0


def cmd_compare(args):
    model = load_model(args.model)
    rgb, image = pipeline.read_image(model, args.image)
    trace = pipeline.forward_trace(model, image)
    report = pipeline.score(model, trace, args.request)
    requests = [args.request if m == "icam" else cam.CamRequest(m)
                for m in cam.METHODS]
    heatmaps = [pipeline.explain_trace(trace, r, report).heatmap
                for r in requests]
    overlays = [_write_heatmap(rgb, h, f"{args.out_prefix}_{m}", args.blend)
                for m, h in zip(cam.METHODS, heatmaps)]
    strip = np.concatenate(overlays, axis=1)
    render.write_ppm(strip, f"{args.out_prefix}_strip.ppm")
    print(f"wrote {len(overlays)} methods + strip to {args.out_prefix}_*")
    return 0


def cmd_verify(args):
    checks = verify.derivative_identity_suite(load_model(args.model))
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


@functools.cache   # parsing leaves the parser as it was; build it once
def build_parser():
    parser = argparse.ArgumentParser(
        prog="icam",
        description="Multi-layer CAM explainability toolkit for the toy CNN")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("explain", help="heatmap + overlay + sidecar for one image")
    _add_common(p)
    p.add_argument("--image", required=True, help="input PPM (P6) image")
    p.add_argument("--out-prefix", default="explain")
    p.add_argument("--blend", type=float, default=DEFAULT_BLEND)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("eval", help="IoU/saliency metrics over a manifest")
    _add_common(p)
    p.add_argument("--manifest", required=True, help="JSON-lines manifest")
    p.add_argument("--iou-threshold-frac", type=float,
                   default=metrics.DEFAULT_THRESHOLD_FRAC)
    p.add_argument("--out", default="eval.json")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="all four methods on one image")
    _add_common(p, with_method=False)
    p.add_argument("--image", required=True)
    p.add_argument("--bias", choices=cam.BIAS_MODES, default=None,
                   help=_BIAS_HELP)
    p.add_argument("--out-prefix", default="compare")
    p.add_argument("--blend", type=float, default=DEFAULT_BLEND)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify", help="derivative-identity checks of a model")
    p.add_argument("--model", required=True, help="ICAMW001 weight file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("make-fixture", help="write the fixture model file")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_make_fixture)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if "parser" in args:   # refuse a bad value before any file is read
        try:
            args.request = cam.CamRequest(
                args.method, smooth=args.smooth, bias=args.bias,
                layers=tuple(args.layers) if args.layers else None,
                n=args.n_perturb, alpha=args.alpha, seed=args.seed,
                threshold=args.threshold)
            if "blend" in args:
                render.check_blend(args.blend)
            if "iou_threshold_frac" in args:
                metrics.check_frac(args.iou_threshold_frac)
        except ValueError as exc:
            args.parser.error(str(exc))
    try:
        return args.func(args)
    except _USER_ERRORS as exc:
        raise SystemExit(f"error: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
