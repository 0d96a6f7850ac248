"""The allocator policy set on import: freed heap stays in the process.

Each case runs a fresh interpreter that imports icam, frees one 2.6 MB
array (which raises glibc's dynamic thresholds to that size), then makes
rounds of three 2 MiB arrays alive at once and frees them, as an explain
frees its temporaries. Without the policy glibc trims the freed heap and
every round faults it in again (~1,500 minor faults); with it a round
reuses the heap and faults nothing.
"""

import json
import os
import subprocess
import sys

import pytest

import icam


def _glibc():
    confstr = getattr(os, "confstr", None)  # Unix only
    try:
        return confstr is not None and bool(confstr("CS_GNU_LIBC_VERSION"))
    except (ValueError, OSError):
        return False


glibc_only = pytest.mark.skipif(not _glibc(),
                                reason="the allocator policy is glibc only")

PROBE = r"""
import json
import resource

import icam
import numpy as np


def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


np.ones(2654208 // 8)
counts = []
for _ in range(11):
    f0 = faults()
    live = [np.ones(1 << 18) for _ in range(3)]
    del live
    counts.append(faults() - f0)
print(json.dumps(counts[1:]))  # round 0 grows the heap once
"""


def _faults_per_round(**malloc_env):
    env = {k: v for k, v in os.environ.items()
           if k != "GLIBC_TUNABLES" and not k.startswith("MALLOC_")}
    env.update(malloc_env,
               PYTHONPATH=os.path.dirname(os.path.dirname(icam.__file__)))
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          text=True, env=env, check=True)
    return json.loads(proc.stdout)


@glibc_only
def test_freed_heap_is_reused():
    counts = _faults_per_round()
    assert len(counts) == 10 and max(counts) < 50, counts


@glibc_only
@pytest.mark.parametrize("name, value", [
    ("MALLOC_TRIM_THRESHOLD_", "131072"),
    ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=131072"),
])
def test_user_malloc_tunable_is_left_alone(name, value):
    counts = _faults_per_round(**{name: value})
    assert min(counts) > 1000, counts


def test_no_confstr_leaves_allocator_alone(monkeypatch):
    # os.confstr exists only on Unix; without it the policy must not run
    import ctypes

    def no_cdll(*args, **kwargs):
        raise AssertionError("libc was loaded")

    monkeypatch.delattr(os, "confstr", raising=False)
    monkeypatch.setattr(ctypes, "CDLL", no_cdll)
    assert icam._keep_freed_heap() is None
