"""Multi-layer class activation mapping toolkit with a self-contained CNN.

Core pieces: a deterministic toy CNN fixture with one explicit, batched
forward/backward engine for its conv-block topology, perturbation-weighted
layer scoring, four CAM methods (Grad-CAM, Grad-CAM++, LayerCAM, I-CAM)
with generalized-alpha weighting and bias terms, and PPM/PGM rendering
for human-viewable overlays.
"""

__version__ = "0.1.0"


def _keep_freed_heap():
    """On glibc, keep freed heap in the process instead of handing it back.

    An explain's temporaries (~5 MB over [image; perturbations]) are freed
    at its end. glibc's dynamic thresholds then trim that memory and fault
    it in again on the next explain: ~1,250 minor faults per default icam
    explain. A 32 MiB mmap threshold and a 64 MiB trim threshold (glibc's
    64-bit dynamic ceiling and twice it) keep it. Both are set, because
    setting the trim threshold alone fixes the mmap threshold at 128 KiB,
    which faults more, not less. The mmap threshold goes first, so where
    glibc refuses it (a 32-bit build caps it lower) nothing is set. Left
    alone off glibc, and when the user set `GLIBC_TUNABLES` or any `MALLOC_*`
    variable.
    """
    import ctypes
    import os

    confstr = getattr(os, "confstr", None)  # Unix only
    try:
        if confstr is None or not confstr("CS_GNU_LIBC_VERSION"):
            return
    except (ValueError, OSError):  # not a glibc system
        return
    if "GLIBC_TUNABLES" in os.environ or any(
            name.startswith("MALLOC_") for name in os.environ):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    if mallopt(m_mmap_threshold, 32 << 20):
        mallopt(m_trim_threshold, 64 << 20)


_keep_freed_heap()

from .cam import CamRequest, Heatmap
from .model import Model, build_fixture_model, forward_trace, load_model, save_model
from .perturb import PerturbationConfig, generate_set
from .pipeline import ExplainResult, explain
