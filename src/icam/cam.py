"""Class activation maps: Grad-CAM, Grad-CAM++, LayerCAM, and I-CAM.

Every map reads row 0 of a ForwardTrace: the image's activations and
its logit gradients dS^c/dA. Any smoothing transform f applied on top of
the logit is handled analytically through its derivative table, never by
differentiating through f numerically, so higher-order terms need no
higher-order gradients: d^n f(S^c)/dA^n = f^(n)(S^c) * g^n when the head
after the scoring point is linear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ForwardTrace
from .render import bilinear_resize, normalize_minmax

ALPHA_EPS = 1e-8

METHODS = ("gradcam", "gradcampp", "layercam", "icam")
SMOOTHS = ("identity", "exp", "softmax")
BIAS_MODES = ("none", "channel", "spatial")

DEFAULT_SMOOTH = {"gradcam": "identity", "gradcampp": "exp",
                  "layercam": "identity", "icam": "softmax"}


@dataclass
class Heatmap:
    values: np.ndarray       # [H,W], non-negative


@dataclass(frozen=True)
class CamRequest:
    method: str = "icam"
    smooth: str = None          # defaults per method
    bias: str = "channel"       # icam only
    layers: tuple = None        # explicit scoring points; None = automatic

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.smooth is not None and self.smooth not in SMOOTHS:
            raise ValueError(f"unknown smooth {self.smooth!r}")
        if self.bias not in BIAS_MODES:
            raise ValueError(f"unknown bias mode {self.bias!r}")

    @property
    def effective_smooth(self) -> str:
        return self.smooth if self.smooth is not None else DEFAULT_SMOOTH[self.method]


# ---------------------------------------------------------------------------
# smooth functions: (f(S^c), f', f'', f''')
# ---------------------------------------------------------------------------

def smooth_identity(s: float):
    return (s, 1.0, 0.0, 0.0)


class SmoothOverflowError(OverflowError):
    """The exp smooth's e^(S^c) exceeds the float64 range."""


def smooth_exp(s: float):
    try:
        e = math.exp(s)
    except OverflowError:
        raise SmoothOverflowError(
            f"exp smooth overflows at logit S^c = {s:.6g}; use the identity "
            f"or softmax smooth") from None
    return (e, e, e, e)


def smooth_softmax(logits: np.ndarray, c: int):
    """Softmax as a scalar smooth function of S^c, other logits held fixed.

    Returns (Y^c, f', f'', f''') with
      f'   = Y(1 - Y)
      f''  = Y(1 - 3Y + 2Y^2)
      f''' = Y(1 - 7Y + 12Y^2 - 6Y^3)
    """
    logits = np.asarray(logits, dtype=np.float64)
    if not 0 <= c < logits.size:
        raise IndexError(f"class index {c} out of range")
    z = logits - logits.max()
    e = np.exp(z)
    y = float(e[c] / e.sum())
    f1 = y * (1.0 - y)
    f2 = y * (1.0 - 3.0 * y + 2.0 * y * y)
    f3 = y * (1.0 - 7.0 * y + 12.0 * y * y - 6.0 * y ** 3)
    return (y, f1, f2, f3)


def smooth_table(name: str, logits: np.ndarray, c: int):
    """Derivative table of the named smooth function at S^c."""
    if name == "identity":
        return smooth_identity(float(logits[c]))
    if name == "exp":
        return smooth_exp(float(logits[c]))
    if name == "softmax":
        return smooth_softmax(logits, c)
    raise ValueError(f"unknown smooth {name!r}")


# ---------------------------------------------------------------------------
# per-layer maps
# ---------------------------------------------------------------------------

def _row0(trace: ForwardTrace, layer: str, smooth: str):
    """Row 0's activation and logit gradient, and f's table at its S^c."""
    return (trace.activations[layer][0], trace.gradients[layer][0],
            smooth_table(smooth, trace.logits[0], trace.class_index))


def gradcam_map(trace: ForwardTrace, layer: str, smooth: str = "identity") -> Heatmap:
    """relu(sum_k w_k A_k) with w_k the spatial mean of the class gradient."""
    a, g, (_, f1, _, _) = _row0(trace, layer, smooth)
    w = (f1 * g).mean(axis=(1, 2))
    raw = np.maximum((w[:, None, None] * a).sum(axis=0), 0.0)
    return Heatmap(raw)


def layercam_map(trace: ForwardTrace, layer: str, smooth: str = "identity") -> Heatmap:
    """relu(sum_k relu(g) * A) with element-wise gradient weights."""
    a, g, (_, f1, _, _) = _row0(trace, layer, smooth)
    raw = np.maximum((np.maximum(f1 * g, 0.0) * a).sum(axis=0), 0.0)
    return Heatmap(raw)


def generalized_alpha(f2: float, f3: float, g: np.ndarray, a: np.ndarray,
                      eps: float = ALPHA_EPS) -> np.ndarray:
    """Grad-CAM++ alpha generalized to any smooth f via powers of g.

    alpha = f'' g^2 / (2 f'' g^2 + sum_{ij in channel} A * f''' g^3), with
    alpha = 0 wherever |denominator| < eps.
    """
    num = f2 * g * g
    chan_sum = (a * f3 * g ** 3).sum(axis=(1, 2), keepdims=True)
    den = 2.0 * num + chan_sum
    alpha = np.zeros_like(g)
    ok = np.abs(den) >= eps
    alpha[ok] = num[ok] / den[ok]
    return alpha


def icam_weights(alpha: np.ndarray, f1: float, g: np.ndarray) -> np.ndarray:
    """w = tanh(alpha) * relu(f' * g), elementwise."""
    return np.tanh(alpha) * np.maximum(f1 * g, 0.0)


def gradcampp_map(trace: ForwardTrace, layer: str, smooth: str = "exp") -> Heatmap:
    """Grad-CAM++ via the generalized alpha (raw, no tanh wrapper)."""
    a, g, (_, f1, f2, f3) = _row0(trace, layer, smooth)
    alpha = generalized_alpha(f2, f3, g, a)
    w = (alpha * np.maximum(f1 * g, 0.0)).sum(axis=(1, 2))
    raw = np.maximum((w[:, None, None] * a).sum(axis=0), 0.0)
    return Heatmap(raw)


def bias_term(mode: str, s_c: float, w: np.ndarray, a: np.ndarray):
    """Residual bias per channel (scalar each) or per position (full tensor).

    channel mode: b_k = S^c - (sum_ij w_k)(sum_ij A_k), the printed
    product of sums.
    spatial mode: b_k_ij = S^c - w_k_ij * sum_ij A_k.
    """
    if w.shape != a.shape:
        raise ValueError(f"shape mismatch: {w.shape} vs {a.shape}")
    a_sum = a.sum(axis=(1, 2))
    if mode == "channel":
        return s_c - w.sum(axis=(1, 2)) * a_sum
    if mode == "spatial":
        return s_c - w * a_sum[:, None, None]
    raise ValueError(f"unknown bias mode {mode!r}")


def icam_layer_map(trace: ForwardTrace, layer: str, smooth: str = "softmax",
                   bias_mode: str = "channel") -> Heatmap:
    """Per-layer I-CAM map: tanh-wrapped alpha weights, optional bias, relu."""
    a, g, (_, f1, f2, f3) = _row0(trace, layer, smooth)
    alpha = generalized_alpha(f2, f3, g, a)
    w = icam_weights(alpha, f1, g)
    raw = (w * a).sum(axis=0)
    if bias_mode != "none":
        s_c = float(trace.logits[0, trace.class_index])
        b = bias_term(bias_mode, s_c, w, a)
        raw = raw + (b.sum() if bias_mode == "channel" else b.sum(axis=0))
    return Heatmap(np.maximum(raw, 0.0))


def fuse(maps: dict, weights: dict, out_h: int, out_w: int) -> Heatmap:
    """Weighted fusion of per-layer maps at input resolution.

    Each layer map is upsampled, min-max normalized, and combined in the
    declared layer order; the result is min-max normalized again.
    """
    missing = [n for n in weights if n not in maps]
    if missing:
        raise KeyError(f"missing layer maps: {missing}")
    out = np.zeros((out_h, out_w), dtype=np.float64)
    for name, w_l in weights.items():
        vals = maps[name].values
        if vals.shape != (out_h, out_w):
            vals = bilinear_resize(vals, out_h, out_w)
        out += w_l * normalize_minmax(vals)
    return Heatmap(normalize_minmax(out))


def single_layer_map(trace: ForwardTrace, method: str, layer: str,
                     smooth: str = None, bias_mode: str = "channel") -> Heatmap:
    smooth = smooth if smooth is not None else DEFAULT_SMOOTH.get(method)
    if method == "gradcam":
        return gradcam_map(trace, layer, smooth)
    if method == "gradcampp":
        return gradcampp_map(trace, layer, smooth)
    if method == "layercam":
        return layercam_map(trace, layer, smooth)
    if method == "icam":
        return icam_layer_map(trace, layer, smooth, bias_mode)
    raise ValueError(f"unknown method {method!r}")
