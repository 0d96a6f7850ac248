"""The icam benchmark: one workload, one seed, a closed loop, a JSON result.

    python3 perfbench/run.py --workload icam --seed 3 --seconds 10 --trace 0

Workloads (see BENCHMARK.json): `icam`, `single-layer`, `eval`. Each run
starts spec.CHILDREN measuring child processes one after another; each sets
up (import, load_model, one warm-up operation), then calls the package back
to back for its share of --seconds. Before each of them spec.SETUP_ONLY
children only set up, to give setup_s more samples (untraced runs only).
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a run in which each
operation is timed untraced and traced. Lines before it give every metric
with its unit and sample count, and the machine.

Outputs are checked on every operation. On spec.DEFAULT_SEED they are also
compared with perfbench/reference.json (class, layers and counts exactly,
floats within its tolerance). To rewrite the reference from this tree:

    python3 perfbench/run.py --write-reference

The package is imported from src/ of the checkout; without it the run fails.
Scratch files go to .perfbench_work/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
TOLERANCE = 1e-6      # absolute, on floats in [0, 1]; far above BLAS reordering
DEADLINE_S = 170.0    # a run must end within 180 s


class RunError(RuntimeError):
    pass


def machine() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "child_blas_threads": 1,
        "commit": commit,
    }


def prepare(workload: str, seed: int) -> dict:
    """Write the fixture model (and the eval manifest); return the child config."""
    import icam.cli
    from icam.cam import CamRequest
    from icam.model import load_model
    from icam.pipeline import explain, image_from_rgb
    from icam.render import read_ppm, write_ppm

    work = WORK / workload
    work.mkdir(parents=True, exist_ok=True)
    model_path = str(work / "model.icamw")
    with contextlib.redirect_stdout(io.StringIO()):
        rc = icam.cli.main(["make-fixture", "--seed", str(spec.FIXTURE_SEED),
                            "--out", model_path])
    if rc != 0:
        raise RunError(f"make-fixture returned {rc}")
    cfg = {"workload": workload, "seed": seed, "model": model_path}
    if workload == "eval":
        model = load_model(model_path)
        lines, n_correct = [], 0
        for i, (rgb, bbox) in enumerate(inputs.eval_images(seed)):
            path = work / f"record{i}.ppm"
            write_ppm(rgb, path)
            pred = explain(model, image_from_rgb(read_ppm(path)),
                           CamRequest("gradcam")).class_index
            label = pred if i % 2 == 0 else (pred + 1) % model.spec.num_classes
            n_correct += label == pred
            lines.append(json.dumps({"image": str(path), "bbox": list(bbox),
                                     "label": label}))
        manifest = work / "manifest.jsonl"
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg.update(manifest=str(manifest), eval_out=str(work / "eval.json"),
                   n_correct=n_correct)
    return cfg


def spawn(cfg: dict, deadline: float):
    """Run one child; return (spawn-to-ready seconds, its result dict)."""
    # One client thread: no eval thread pool, and no BLAS helper threads,
    # whose spinning doubles CPU use and makes peak RSS depend on timing.
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    env.pop("ICAM_THREADS", None)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), json.dumps(cfg)],
                            stdout=subprocess.PIPE, env=env, cwd=str(ROOT),
                            bufsize=0)
    try:
        if not select.select([proc.stdout], [], [],
                             max(1.0, deadline - time.monotonic()))[0]:
            raise subprocess.TimeoutExpired(proc.args, DEADLINE_S)
        # unbuffered, so the rest stays in the pipe for communicate()
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError(f"{cfg['workload']} child timed out")
    if ready.strip() != b"ready" or proc.returncode != 0:
        raise RunError(f"{cfg['workload']} child failed (exit {proc.returncode})")
    return setup, json.loads(out.decode().strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool):
    deadline = time.monotonic() + DEADLINE_S
    cfg = prepare(workload, seed)
    cfg.update(seconds=seconds / spec.CHILDREN, trace=trace)
    if seed == spec.DEFAULT_SEED:
        ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
        if ref["seed"] != spec.DEFAULT_SEED:
            raise RunError("reference.json was written for another seed")
        cfg.update(reference=ref["workloads"][workload],
                   tolerance=ref["tolerance"])
    # Before each measuring child, spec.SETUP_ONLY children that stop at
    # ready: more set-up samples, spread over the whole run.
    setups, results, probes = [], [], []
    for _ in range(spec.CHILDREN):
        for _ in range(0 if trace else spec.SETUP_ONLY):
            setup, res = spawn(dict(cfg, mode="setup"), deadline)
            setups.append(setup)
            probes.append(res)
        setup, res = spawn(cfg, deadline)
        setups.append(setup)
        results.append(res)
    return setups, results, probes


def end_to_end(workload, setups, results, attempted, failed):
    lat = [t for r in results for t in r["lat"]]
    per_op = inputs.N_EVAL_RECORDS if workload == "eval" else 1
    values = {
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[8]
                           if len(lat) > 1 else lat[0]) * 1e3,
        "items_per_s": len(lat) * per_op / sum(lat),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in results) / 1024.0,
        "failed_frac": failed / attempted,
        "success_frac": 1.0 - failed / attempted,
    }
    notes = {"latency_p50_ms": f"n={len(lat)}",
             "latency_p90_ms": f"n={len(lat)}",
             "items_per_s": f"{per_op} item(s) per operation",
             "setup_s": f"n={len(setups)}",
             "peak_rss_mb": f"ru_maxrss after {spec.RSS_AFTER_OPS} operations, "
                            f"median of {len(results)} children",
             "failed_frac": f"{failed}/{attempted}",
             "success_frac": "1 - failed_frac"}
    units = {"latency_p50_ms": "ms", "items_per_s": "1/s",
             "failed_frac": "fraction"}
    units.update((name, unit) for name, (unit, _, _) in spec.END_TO_END.items())
    return values, units, notes


def per_layer(results):
    traced = [t for r in results for t in r["trace"]["lat"]]
    untraced = [t for r in results for t in r["lat"]]
    ops = len(traced)
    values, notes = {}, {}
    for mod, fn in spec.TRACED:
        name = f"{mod}.{fn}"
        calls = sum(r["trace"]["functions"][name][0] for r in results)
        self_s = sum(r["trace"]["functions"][name][1] for r in results)
        total_s = sum(r["trace"]["functions"][name][2] for r in results)
        values[f"{name}.calls"] = calls / ops
        values[f"{name}.self_ms"] = self_s * 1e3 / ops
        values[f"{name}.total_ms"] = total_s * 1e3 / ops
    for name in spec.PER_LAYER:
        if name not in values and not name.startswith("trace."):
            # a work count computed from argument shapes (tracer.COUNT_HOOKS)
            values[name] = sum(r["trace"]["counts"].get(name, 0)
                               for r in results) / ops
    absent = sorted({a for r in results for a in r["trace"]["absent"]})
    values["trace.latency_p50_ms"] = statistics.median(traced) * 1e3
    values["trace.overhead_ms"] = (statistics.median(traced)
                                   - statistics.median(untraced)) * 1e3
    values["trace.absent"] = len(absent)
    for a in absent:
        for part in ("calls", "self_ms", "total_ms"):
            notes[f"{a}.{part}"] = "absent"
    notes["trace.latency_p50_ms"] = f"n={ops}; untraced p50 " \
                                    f"{statistics.median(untraced) * 1e3} ms"
    return values, spec.PER_LAYER, notes


def write_reference() -> None:
    workloads = {}
    for workload in spec.WORKLOADS:
        cfg = prepare(workload, spec.DEFAULT_SEED)
        cfg.update(mode="reference", seconds=0, trace=False)
        _, res = spawn(cfg, time.monotonic() + DEADLINE_S)
        workloads[workload] = res["reference"]
    REFERENCE.write_text(json.dumps(
        {"seed": spec.DEFAULT_SEED, "fixture_seed": spec.FIXTURE_SEED,
         "tolerance": TOLERANCE, "workloads": workloads}, indent=1) + "\n",
        encoding="utf-8")
    print(f"wrote {REFERENCE}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=list(spec.WORKLOADS))
    p.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "icam" / "__init__.py").is_file():
        print(f"error: no icam package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        p.error("--workload is required")

    load_before = os.getloadavg()
    try:
        setups, results, probes = measure(args.workload, args.seed,
                                          args.seconds, bool(args.trace))
    except (RunError, OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    info = machine()
    info.update(loadavg_before=load_before, loadavg_after=os.getloadavg(),
                workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, children=spec.CHILDREN,
                setup_only_children=spec.CHILDREN * spec.SETUP_ONLY)

    attempted = sum(r["attempted"] for r in results + probes)
    failed = sum(r["failed"] for r in results + probes)
    if args.trace:
        values, units, notes = per_layer(results)
    else:
        values, units, notes = end_to_end(args.workload, setups, results,
                                          attempted, failed)
    for r in results + probes:
        for err in r["errors"]:
            print(f"failure: {err}", file=sys.stderr)
    # Every metric is printed; the result carries those BENCHMARK.json names.
    named = spec.PER_LAYER if args.trace else spec.END_TO_END
    for name, value in values.items():
        note = notes.get(name, "")
        if name not in named:
            note = "; ".join(filter(None, (note, "not in BENCHMARK.json")))
        note = f"  ({note})" if note else ""
        print(f"{args.workload:<13} {name:<40} {value:>16.6f} {units[name]}{note}")
    print("machine: " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()
                    if n in named},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
