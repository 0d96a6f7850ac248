"""Steadiness check: run each workload repeatedly and compare sets of runs.

    python3 perfbench/steady.py

Two sets of ten runs per workload; each run is `run.py --trace 0` for the
benchmark's run_seconds with its own seed, from seed 100 on. For every
end-to-end metric and workload this prints, per set, the median, the
quartiles (as `statistics.quantiles(values, n=4)` gives them) and the
spread, the quartile distance as a share of the median, against the
metric's bound. Then it prints how much worse the second set's median is
than the first set's. It exits 0 only when the second set's median of
every metric is not worse than the first's by more than the bound, and
every spread but setup_s's is within its bound. That is the benchmark
contract's rule: set-up time is judged by its median alone, and its spread
is printed against the bound but not gated.
The runs, the machine and the verdicts go to .perfbench_work/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2
FIRST_SEED = 100
SPREAD_NOT_GATED = "setup_s"   # by the benchmark contract; see above


def run_once(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(spec.RUN_SECONDS),
         "--trace", "0"],
        capture_output=True, text=True, cwd=str(ROOT), timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    machine = next((json.loads(l[len("machine: "):]) for l in lines
                    if l.startswith("machine: ")), None)
    return json.loads(lines[-1]), machine


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    workloads = spec.WORKLOADS
    runs = {w: [[] for _ in range(SETS)] for w in workloads}
    machines = []
    for s in range(SETS):
        for i in range(RUNS):
            seed = FIRST_SEED + s * RUNS + i
            for w in workloads:
                result, machine = run_once(w, seed)
                machines.append(machine)
                runs[w][s].append({"seed": seed, **result})
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: "
                      f"correct={result['correct']} failed={result['failed']}",
                      flush=True)

    ok = True
    report = {}
    print(f"\n{'workload':<13}{'metric':<16}{'set':>4}{'median':>14}{'q1':>14}"
          f"{'q3':>14}{'spread':>9}{'bound':>7}{'worse':>9}  verdict")
    for w in workloads:
        ok &= all(r["correct"] for rs in runs[w] for r in rs)
        for name, (unit, better, bound) in spec.END_TO_END.items():
            sets = [stats([r["metrics"][name]["value"] for r in rs])
                    for rs in runs[w]]
            first = sets[0]["median"]
            for s, st in enumerate(sets):
                worse = (st["median"] - first) / first
                if better == "higher":
                    worse = -worse
                st["worse_than_set1"] = worse
                spread_ok = st["spread"] <= bound or name == SPREAD_NOT_GATED
                verdict = "ok" if spread_ok and worse <= bound else "FAIL"
                if verdict == "ok" and st["spread"] > bound:
                    verdict = "ok (spread above bound, not gated)"
                elif verdict == "ok" and st["spread"] > bound / 3:
                    verdict = "ok (spread above bound/3)"
                ok &= verdict != "FAIL"
                print(f"{w:<13}{name:<16}{s + 1:>4}{st['median']:>14.6g}"
                      f"{st['q1']:>14.6g}{st['q3']:>14.6g}{st['spread']:>9.4f}"
                      f"{bound:>7.3f}{worse:>9.4f}  {verdict}")
            report.setdefault(w, {})[name] = {"unit": unit, "bound": bound,
                                              "sets": sets}
    out = ROOT / ".perfbench_work" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"machines": machines,
                               "report": report, "runs": runs, "ok": ok},
                              indent=1) + "\n", encoding="utf-8")
    print(f"\n{'PASS' if ok else 'FAIL'}; details in {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
