"""Fast self-test of the benchmark (under a minute).

    python3 perfbench/smoke.py

Checks that BENCHMARK.json keeps the benchmark contract's limits; runs
every workload for one second untraced on the reference seed and traced on
another seed, requiring every named metric with its unit and no failed
operation; and checks that a copy of the benchmark without the package
fails without printing a result. Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

problems = []


def check(cond, what):
    if not cond:
        problems.append(what)
        print(f"FAIL {what}", flush=True)
    return cond


def check_benchmark_json():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check(set(on_disk) == {"command", "paths", "run_seconds", "workloads",
                           "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(2 <= len(on_disk["workloads"]) <= 8, "2 to 8 workloads")
    check(1 <= len(on_disk["per_layer"]) <= 128, "1 to 128 per-layer metrics")
    names = [w["name"] for w in on_disk["workloads"]]
    names += [m["name"] for m in on_disk["end_to_end"] + on_disk["per_layer"]]
    check(len(names) == len(set(names)), "names are unique")
    for n in names:
        check(bool(NAME.match(n)), f"name {n!r}")
    for w in on_disk["workloads"]:
        check(len(w["why"]) <= 200 and "\n" not in w["why"], f"why of {w['name']}")
    for m in on_disk["end_to_end"] + on_disk["per_layer"]:
        check(bool(UNIT.match(m["unit"])), f"unit of {m['name']}")
    for m in on_disk["end_to_end"]:
        check(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
    setup = [m for m in on_disk["end_to_end"] if m["name"] == "setup_s"]
    check(setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": max(m["bound"] for m in on_disk["end_to_end"])}],
          "setup_s is lower-is-better seconds with the largest bound")
    check(len(json.dumps(on_disk)) <= 64 * 1024, "BENCHMARK.json under 64 KiB")


def run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=str(cwd),
                          timeout=180)


def check_workload(workload, trace, seed):
    proc = run(ROOT, "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace))
    label = f"{workload} trace={trace} seed={seed}"
    if not check(proc.returncode == 0,
                 f"{label}: exit {proc.returncode}\n{proc.stderr}"):
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0
          and result["attempted"] >= 1,
          f"{label}: correct={result['correct']} failed={result['failed']} "
          f"attempted={result['attempted']}\n{proc.stderr}")
    if trace:
        want = spec.PER_LAYER
    else:
        want = {n: u for n, (u, _, _) in spec.END_TO_END.items()}
    got = result["metrics"]
    check(set(got) == set(want), f"{label}: metric names differ: "
          f"{sorted(set(got) ^ set(want))}")
    for name, unit in want.items():
        m = got.get(name, {})
        check(m.get("unit") == unit and isinstance(m.get("value"), (int, float)),
              f"{label}: metric {name} = {m}")
        if not trace:
            check(m.get("value", 0) > 0, f"{label}: {name} is not positive")
    print(f"ok   {label}: {result['attempted']} operations", flush=True)


def check_without_package():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run(bare, "--workload", "icam", "--seed", "1", "--seconds", "1",
               "--trace", "0")
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    shutil.rmtree(bare, ignore_errors=True)
    if check(proc.returncode != 0 and '"metrics"' not in last,
             f"without src/ the run must fail without a result "
             f"(exit {proc.returncode}, last line {last!r})"):
        print("ok   without the package the run fails", flush=True)


def main() -> int:
    check_benchmark_json()
    for workload in spec.WORKLOADS:
        check_workload(workload, 0, spec.DEFAULT_SEED)
        check_workload(workload, 1, spec.DEFAULT_SEED + 6)
    check_without_package()
    print("PASS" if not problems else f"FAIL: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
