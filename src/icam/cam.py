"""Class activation maps: Grad-CAM, Grad-CAM++, LayerCAM, and I-CAM.

All four methods form one saliency per layer,

    relu(sum_k w_k * A_k + b),

from row 0 of a ForwardTrace: the image's activations A and its logit
gradients g = dS^c/dA. Only the weights w differ:

    gradcam    w_k = mean_ij g                          (one per channel)
    layercam   w   = relu(g)                            (elementwise)
    gradcampp  w_k = sum_ij alpha_1 * relu(g)           (one per channel)
    icam       w   = tanh(alpha_f) * relu(f' g)         (elementwise)

with alpha_f the Grad-CAM++ alpha generalized to a smooth f of the logit
S^c, and alpha_1 its published exp closed form, f' = f'' = f''' = 1. Only
I-CAM takes a smooth (exp or softmax) and a bias b (none or its channel
term); the other methods refuse both, and b is zero there. Only automatic
I-CAM takes the layer scorer's n, alpha, seed and T. f is handled
analytically through its derivative table, never by differentiating
through f numerically, so higher-order terms need no higher-order
gradients: d^n f(S^c)/dA^n = f^(n)(S^c) * g^n when the head after the
scoring point is linear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .model import ForwardTrace, is_integer
from .render import bilinear_resize, normalize_minmax

ALPHA_EPS = 1e-8

METHODS = ("gradcam", "gradcampp", "layercam", "icam")
SMOOTHS = ("exp", "softmax")   # icam only
BIAS_MODES = ("none", "channel")   # icam only
ICAM_DEFAULTS = {"smooth": "softmax", "bias": "channel"}
# automatic icam's scorer: n perturbations of strength alpha from seed, T
SCORER_DEFAULTS = {"n": 8, "alpha": 0.4, "seed": 42, "threshold": 0.95}


@dataclass
class Heatmap:
    values: np.ndarray       # [H,W], non-negative


@dataclass(frozen=True)
class CamRequest:
    """Stores the defaults it fills in, so `dataclasses.replace` keeps to one
    kind of request (a new n for automatic icam); another method, or named
    layers, needs a new CamRequest."""
    method: str = "icam"
    smooth: str = None          # icam only
    bias: str = None            # icam only
    layers: tuple = None        # explicit scoring points; None = automatic
    n: int = None               # n, alpha, seed, threshold: automatic icam only
    alpha: float = None
    seed: int = None
    threshold: float = None

    @property
    def scores_layers(self) -> bool:   # automatic icam: the scorer picks layers
        return self.method == "icam" and self.layers is None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.layers is not None:   # kept as a tuple, so a request hashes
            try:
                layers = () if isinstance(self.layers, str) else tuple(self.layers)
            except TypeError:   # not iterable
                layers = ()
            if not layers or not all(isinstance(n, str) for n in layers):
                raise ValueError(f"layers must be None or a non-empty sequence "
                                 f"of layer names, got {self.layers!r}")
            object.__setattr__(self, "layers", layers)
        # refuse what does not run; fill in what does, so readers see what runs
        for defaults, runs, only in (
                (ICAM_DEFAULTS, self.method == "icam",
                 f"icam only; {self.method} has a fixed form"),
                (SCORER_DEFAULTS, self.scores_layers,
                 "automatic icam only (method icam, no layers named)")):
            for name, default in defaults.items():
                if not runs and getattr(self, name) is not None:
                    raise ValueError(f"{name} applies to {only}")
                if runs and getattr(self, name) is None:
                    object.__setattr__(self, name, default)
        if self.method == "icam" and self.smooth not in SMOOTHS:
            raise ValueError(f"unknown smooth {self.smooth!r}")
        if self.method == "icam" and self.bias not in BIAS_MODES:
            raise ValueError(f"unknown bias mode {self.bias!r}")
        if not self.scores_layers:
            return
        n, alpha, seed, threshold = self.n, self.alpha, self.seed, self.threshold
        for name, ok, rule in (
                ("n", is_integer(n) and n >= 1, "an integer >= 1"),
                ("alpha", isinstance(alpha, Real) and 0 <= alpha <= 1, "in [0,1]"),
                ("seed", is_integer(seed), "an integer"),
                ("threshold", isinstance(threshold, Real) and 0 < threshold <= 1,
                 "in (0,1]")):
            if not ok or isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        for name, default in SCORER_DEFAULTS.items():   # as Python numbers, for JSON
            object.__setattr__(self, name, type(default)(getattr(self, name)))


# ---------------------------------------------------------------------------
# smooth functions: (f(S^c), f', f'', f''')
# ---------------------------------------------------------------------------

class SmoothOverflowError(OverflowError):
    """An exp-smooth map leaves the float64 range, in e^(S^c) or after."""


def smooth_table(name: str, s_c: float, y: float):
    """Derivative table of the named smooth function at the class logit
    s_c, whose softmax probability is y (a trace's `probabilities`).

    exp: f = f' = f'' = f''' = e^(S^c). softmax, as a scalar function of
    S^c with the other logits held fixed: f = Y and
      f'   = Y(1 - Y)
      f''  = Y(1 - 3Y + 2Y^2)
      f''' = Y(1 - 7Y + 12Y^2 - 6Y^3)
    """
    if name == "exp":
        e = math.exp(s_c)
        return (e, e, e, e)
    if name == "softmax":
        f1 = y * (1.0 - y)
        f2 = y * (1.0 - 3.0 * y + 2.0 * y * y)
        f3 = y * (1.0 - 7.0 * y + 12.0 * y * y - 6.0 * y ** 3)
        return (y, f1, f2, f3)
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

    Returns the raw [H,W] map at the layer's own resolution. Under the exp
    smooth, any overflow raises SmoothOverflowError: e^(S^c) can fit a
    float64 while f'' g^2, a sum over it or the channel bias does not.
    """
    a, g = trace.activations[layer][0], trace.gradients[layer][0]
    c = trace.class_index
    s_c = float(trace.logits[0, c])
    mode = "raise" if request.smooth == "exp" else None   # None keeps numpy's
    try:
        with np.errstate(over=mode, invalid=mode):
            if request.method == "gradcam":
                w = g.mean(axis=(1, 2), keepdims=True)
            elif request.method == "layercam":
                w = np.maximum(g, 0.0)
            elif request.method == "gradcampp":
                w = (generalized_alpha(1.0, 1.0, g, a) * np.maximum(g, 0.0)
                     ).sum(axis=(1, 2), keepdims=True)
            else:
                _, f1, f2, f3 = smooth_table(request.smooth, s_c,
                                             float(trace.probabilities[0, c]))
                w = icam_weights(generalized_alpha(f2, f3, g, a), f1, g)
            raw = (w * a).sum(axis=0)
            if request.bias == "channel":
                raw = raw + bias_term(s_c, w, a).sum()
    except (OverflowError, FloatingPointError):   # math.exp's, or numpy's
        raise SmoothOverflowError(
            f"exp smooth overflows at logit S^c = {s_c:.6g}; use the "
            f"softmax smooth") from None
    return np.maximum(raw, 0.0)


def fuse(maps: dict, weights: dict, out_h: int, out_w: int) -> Heatmap:
    """Weighted fusion of per-layer maps at input resolution.

    Each layer map is upsampled, min-max normalized, and combined in the
    declared layer order; the result is min-max normalized again.
    """
    out = np.zeros((out_h, out_w), dtype=np.float64)
    for name, w_l in weights.items():
        out += w_l * normalize_minmax(bilinear_resize(maps[name], out_h, out_w))
    return Heatmap(normalize_minmax(out))
