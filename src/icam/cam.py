"""Class activation maps: Grad-CAM, Grad-CAM++, LayerCAM, and I-CAM.

All four methods form one saliency per layer,

    relu(sum_k w_k * A_k + b),

from row 0 of a ForwardTrace: the image's activations A and its logit
gradients g = dS^c/dA. Only the weights w differ:

    gradcam    w_k = mean_ij f' g                       (one per channel)
    layercam   w   = relu(f' g)                         (elementwise)
    gradcampp  w_k = sum_ij alpha * relu(f' g)          (one per channel)
    icam       w   = tanh(alpha) * relu(f' g)           (elementwise)

with alpha the Grad-CAM++ alpha generalized to a smooth f. The bias b is
I-CAM's residual term and is zero for the other methods. Any smoothing
transform f applied on top of the logit is handled analytically through
its derivative table, never by differentiating through f numerically, so
higher-order terms need no higher-order gradients: d^n f(S^c)/dA^n =
f^(n)(S^c) * g^n when the head after the scoring point is linear.
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
BIAS_MODES = ("none", "channel")

DEFAULT_SMOOTH = {"gradcam": "identity", "gradcampp": "exp",
                  "layercam": "identity", "icam": "softmax"}


@dataclass
class Heatmap:
    values: np.ndarray       # [H,W], non-negative


class UndefinedAlphaError(ValueError):
    """The smooth has f'' = f''' = 0, so the method's alpha is 0/0."""


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
        if self.layers is not None and (isinstance(self.layers, str)
                                        or len(self.layers) == 0):
            raise ValueError(f"layers must be None or a non-empty sequence "
                             f"of layer names, got {self.layers!r}")
        # gradcampp and icam weigh by generalized_alpha, whose f'' and f'''
        # vanish for the identity: every map would be zero or a constant
        if self.method in ("gradcampp", "icam") \
                and self.effective_smooth == "identity":
            raise UndefinedAlphaError(
                f"method {self.method} needs a smooth with f'' != 0: the "
                f"identity makes its alpha 0/0 and the heatmap all zero; "
                f"use the exp or softmax smooth")

    @property
    def effective_smooth(self) -> str:
        return self.smooth if self.smooth is not None else DEFAULT_SMOOTH[self.method]


# ---------------------------------------------------------------------------
# smooth functions: (f(S^c), f', f'', f''')
# ---------------------------------------------------------------------------

class SmoothOverflowError(OverflowError):
    """The exp smooth's e^(S^c) exceeds the float64 range."""


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
        return (float(logits[c]), 1.0, 0.0, 0.0)
    if name == "exp":
        s = float(logits[c])
        try:
            e = math.exp(s)
        except OverflowError:
            raise SmoothOverflowError(
                f"exp smooth overflows at logit S^c = {s:.6g}; use the "
                f"identity or softmax smooth") from None
        return (e, e, e, e)
    if name == "softmax":
        return smooth_softmax(logits, c)
    raise ValueError(f"unknown smooth {name!r}")


# ---------------------------------------------------------------------------
# the per-layer map and its named terms
# ---------------------------------------------------------------------------

def generalized_alpha(f2: float, f3: float, g: np.ndarray,
                      a: np.ndarray) -> np.ndarray:
    """Grad-CAM++ alpha generalized to any smooth f via powers of g.

    alpha = f'' g^2 / (2 f'' g^2 + sum_{ij in channel} A * f''' g^3), with
    alpha = 0 wherever |denominator| < ALPHA_EPS.
    """
    num = f2 * g * g
    # g * g * g, not g ** 3: numpy sends ** 3 to libm pow, ~60x slower
    chan_sum = (a * f3 * (g * g * g)).sum(axis=(1, 2), keepdims=True)
    den = 2.0 * num + chan_sum
    return np.divide(num, den, out=np.zeros_like(g),
                     where=np.abs(den) >= ALPHA_EPS)


def icam_weights(alpha: np.ndarray, f1: float, g: np.ndarray) -> np.ndarray:
    """w = tanh(alpha) * relu(f' * g), elementwise."""
    return np.tanh(alpha) * np.maximum(f1 * g, 0.0)


def bias_term(s_c: float, w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """I-CAM's channel bias b_k = S^c - (sum_ij w_k)(sum_ij A_k), as printed."""
    if w.shape != a.shape:
        raise ValueError(f"shape mismatch: {w.shape} vs {a.shape}")
    return s_c - w.sum(axis=(1, 2)) * a.sum(axis=(1, 2))


def single_layer_map(trace: ForwardTrace, request: CamRequest,
                     layer: str) -> np.ndarray:
    """relu(sum_k w_k A_k + b) at one layer, w by request.method.

    Returns the raw [H,W] map at the layer's own resolution.
    """
    a, g = trace.activations[layer][0], trace.gradients[layer][0]
    logits, c = trace.logits[0], trace.class_index
    method = request.method
    # the other methods read the table at S^c = 0. That scales exp's f', f''
    # and f''' by e^(-S^c) to all ones (Grad-CAM++'s closed form, which
    # cannot overflow), a positive scale that their relu'd, min-max
    # normalized maps cancel; identity and softmax ignore the shift
    shift = 0.0 if method == "icam" else logits[c]
    _, f1, f2, f3 = smooth_table(request.effective_smooth, logits - shift, c)
    if method == "gradcam":
        w = (f1 * g).mean(axis=(1, 2), keepdims=True)
    elif method == "layercam":
        w = np.maximum(f1 * g, 0.0)
    elif method == "gradcampp":
        w = (generalized_alpha(f2, f3, g, a) * np.maximum(f1 * g, 0.0)
             ).sum(axis=(1, 2), keepdims=True)
    else:
        w = icam_weights(generalized_alpha(f2, f3, g, a), f1, g)
    raw = (w * a).sum(axis=0)
    if method == "icam" and request.bias == "channel":
        raw = raw + bias_term(float(logits[c]), w, a).sum()
    return np.maximum(raw, 0.0)


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
        out += w_l * normalize_minmax(bilinear_resize(maps[name], out_h, out_w))
    return Heatmap(normalize_minmax(out))
