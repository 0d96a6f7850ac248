"""One benchmark child process: set up, signal ready, run a closed loop.

run.py starts this script with a JSON config as its only argument. The
child imports icam, loads the model and runs one warm-up operation, then
writes "ready" on stdout; run.py times spawn-to-ready as set-up. A child
started in "setup" mode stops there. Otherwise it runs operations back to
back for the configured seconds, checks each output outside the timed
region, re-runs the first operation to demand a bitwise-equal output, and
prints one JSON line with what it measured.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import sys
import time
import traceback

# heatmap pixels (row, column) compared with the reference one by one
PIXELS = ((0, 0), (3, 28), (9, 14), (15, 16), (16, 5), (22, 30), (27, 11),
          (31, 31))


def main() -> int:
    cfg = json.loads(sys.argv[1])

    import icam.cli
    from icam import model as icam_model
    from icam import pipeline
    from icam.cam import CamRequest

    model = icam_model.load_model(cfg["model"])

    import numpy as np

    import inputs
    import spec

    workload = cfg["workload"]
    num_classes = model.spec.num_classes
    ys, xs = np.mgrid[0:inputs.SIZE, 0:inputs.SIZE] / (inputs.SIZE - 1.0)

    class CheckFailed(Exception):
        pass

    def require(cond, what):
        if not cond:
            raise CheckFailed(what)

    def explain_op(image, request):
        def run():
            return pipeline.explain(model, image, request)

        def summarize(res):
            h = np.asarray(res.heatmap.values)
            require(h.shape == (inputs.SIZE, inputs.SIZE),
                    f"heatmap shape {h.shape}")
            require(bool(np.isfinite(h).all()), "non-finite heatmap")
            require(h.min() >= 0.0 and h.max() <= 1.0, "heatmap outside [0,1]")
            require(0 <= res.class_index < num_classes,
                    f"class {res.class_index} out of range")
            layers = list(res.layers)
            require(len(layers) > 0, "empty layer selection")
            weights = None
            if res.report is not None:
                weights = {k: float(v)
                           for k, v in res.report.layer_weights.items()}
                require(sorted(weights) == sorted(layers),
                        "layer weights do not match the selection")
                require(abs(sum(weights.values()) - 1.0) <= 1e-9,
                        "layer weights do not sum to 1")
            elif request.layers is not None:
                require(layers == list(request.layers),
                        f"layers {layers} != requested {request.layers}")
            else:
                require(len(layers) == 1, f"expected one layer, got {layers}")
            summary = {
                "class": int(res.class_index),
                "layers": layers,
                "probability": float(res.probability),
                "weights": weights,
                "blocks": h.reshape(4, 8, 4, 8).mean(axis=(1, 3)).ravel().tolist(),
                # whole-map statistics: mean, mean square, x- and y-weighted
                # means, which block means alone cannot pin down
                "moments": [float(h.mean()), float((h * h).mean()),
                            float((h * xs).mean()), float((h * ys).mean())],
                "pixels": [float(h[y, x]) for y, x in PIXELS],
            }
            return summary, h.tobytes()

        return run, summarize

    def eval_op():
        argv = ["eval", "--model", cfg["model"], "--manifest", cfg["manifest"],
                "--out", cfg["eval_out"]]

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = icam.cli.main(argv)
            return rc, buf.getvalue()

        def summarize(out):
            rc, printed = out
            require(rc == 0, f"eval returned {rc}")
            with open(cfg["eval_out"], encoding="utf-8") as f:
                written = json.load(f)
            require(json.loads(printed) == written,
                    "printed summary differs from the written one")
            require(written["records"] == inputs.N_EVAL_RECORDS,
                    f"records {written['records']} != {inputs.N_EVAL_RECORDS}")
            require(written["correct"] == cfg["n_correct"],
                    f"correct {written['correct']} != {cfg['n_correct']}")
            keys = ("accuracy", "mean_iou", "mean_saliency")
            for k in keys:
                require(math.isfinite(written[k]) and 0.0 <= written[k] <= 1.0,
                        f"{k} {written[k]} outside [0,1]")
            summary = {k: written[k] for k in ("records", "correct") + keys}
            return summary, json.dumps(written, sort_keys=True)

        return run, summarize

    if workload == "icam":
        request = CamRequest("icam")
        ops = [(f"icam/{i}",) + explain_op(img, request)
               for i, img in enumerate(inputs.images(cfg["seed"]))]
    elif workload == "single-layer":
        requests = [CamRequest("gradcam"), CamRequest("gradcampp"),
                    CamRequest("layercam"),
                    CamRequest("icam", layers=("block1", "block2", "block3"))]
        images = inputs.images(cfg["seed"])
        # op k uses image k % 9 and method k % 4: 36 distinct pairs
        ops = [(f"{requests[k % 4].method}/{k % len(images)}",)
               + explain_op(images[k % len(images)], requests[k % 4])
               for k in range(len(images) * len(requests))]
    elif workload == "eval":
        ops = [("eval",) + eval_op()]
    else:
        raise SystemExit(f"unknown workload {workload!r}")

    reference = cfg.get("reference")
    tol = cfg.get("tolerance", 0.0)

    def close(got, want):
        if isinstance(want, float):
            return isinstance(got, (int, float)) and abs(got - want) <= tol
        if isinstance(want, list):
            return (isinstance(got, list) and len(got) == len(want)
                    and all(close(g, w) for g, w in zip(got, want)))
        if isinstance(want, dict):
            return (isinstance(got, dict) and list(got) == list(want)
                    and all(close(got[k], want[k]) for k in want))
        return got == want

    errors = []

    def attempt(k):
        """Run op k; return (seconds, exact output or None when it failed)."""
        key, run, summarize = ops[k % len(ops)]
        t0 = time.perf_counter()
        try:
            out = run()
        except Exception:  # an operation that raises counts as failed
            dt = time.perf_counter() - t0
            errors.append(f"{key}: {traceback.format_exc(limit=3)}")
            return dt, None
        dt = time.perf_counter() - t0
        try:
            summary, exact = summarize(out)
            if reference is not None:
                require(close(summary, reference[key]),
                        f"output differs from the stored reference: {summary}")
        except (CheckFailed, KeyError, TypeError, ValueError) as exc:
            errors.append(f"{key}: {type(exc).__name__}: {exc}")
            return dt, None
        return dt, (summary, exact)

    if cfg.get("mode") == "reference":
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        ref = {}
        for key, run, summarize in ops:
            ref[key] = summarize(run())[0]
        print(json.dumps({"reference": ref}))
        return 0

    _, first = attempt(0)          # warm-up: part of set-up, checked, untimed
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if cfg.get("mode") == "setup":  # a set-up sample only: no timed loop
        print(json.dumps({"attempted": 1, "failed": int(first is None),
                          "errors": errors[:5]}))
        return 0

    tracer = None
    if cfg["trace"]:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer(spec.TRACED)

    lat, lat_traced = [], []
    attempted, failed = 1, int(first is None)
    maxrss_kb = None
    k = 1
    start = time.perf_counter()
    while True:
        if tracer is None:
            dt, out = attempt(k)
            lat.append(dt)
            attempted += 1
            failed += out is None
            if len(lat) == spec.RSS_AFTER_OPS:
                maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            # each operation runs untraced and traced, in alternating order,
            # so the two latency samples cover the same operations
            for traced in ((False, True) if k % 2 else (True, False)):
                if traced:
                    tracer.op = k
                    tracer.on()
                try:
                    dt, out = attempt(k)
                finally:
                    tracer.off()
                (lat_traced if traced else lat).append(dt)
                attempted += 1
                failed += out is None
        k += 1
        if time.perf_counter() - start >= cfg["seconds"]:
            break

    _, again = attempt(0)
    attempted += 1
    if again is None or first is None or again[1] != first[1]:
        failed += 1
        errors.append(f"{ops[0][0]}: repeated operation gave a different output")

    result = {
        "lat": lat,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:5],
        "maxrss_kb": maxrss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = {
            "lat": lat_traced,
            "functions": tracer.summary(),
            "counts": tracer.counts,
            "absent": tracer.absent,
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
