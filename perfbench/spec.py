"""What the benchmark measures, read from BENCHMARK.json at the repository root.

BENCHMARK.json names the workloads, the metrics with their units and
bounds, and the run length. The functions wrapped in the traced run are
the per-layer metrics named `<module>.<function>.calls`. The constants
below are the benchmark's own settings that BENCHMARK.json does not hold.
"""

from __future__ import annotations

import json
from pathlib import Path

_BENCHMARK = json.loads((Path(__file__).resolve().parent.parent
                         / "BENCHMARK.json").read_text(encoding="utf-8"))

RUN_SECONDS = _BENCHMARK["run_seconds"]
WORKLOADS = [w["name"] for w in _BENCHMARK["workloads"]]
# name -> (unit, better, bound)
END_TO_END = {m["name"]: (m["unit"], m["better"], m["bound"])
              for m in _BENCHMARK["end_to_end"]}
# name -> unit
PER_LAYER = {m["name"]: m["unit"] for m in _BENCHMARK["per_layer"]}
# (module, function) pairs wrapped in the traced run
TRACED = tuple(tuple(n[:-len(".calls")].split(".", 1))
               for n in PER_LAYER if n.endswith(".calls"))

DEFAULT_SEED = 1
FIXTURE_SEED = 42
CHILDREN = 5          # measuring child processes per run, one after another
SETUP_ONLY = 4        # set-up-only children before each measuring child
# Peak RSS is read after this many timed operations, not at the end: cyclic
# garbage from each forward's tape grows the heap until a full collection,
# so a run that completes more operations would otherwise report more memory.
RSS_AFTER_OPS = 20
