"""The derivative-identity checks behind the `verify` CLI command.

Analytic f^(n)(S^c) g^n vs nested central finite differences through the
given model's own tail, for n = 2, 3 and the exp and softmax smooths. The
CLI reads the model from `--model` (`icam make-fixture` writes a fixture).
Each check reports its worst error so a failure is diagnosable from the
printed report alone. The checks of pure library functions (softmax
polynomials, MDD against symmetric KL) give the same result for every
model; they live with the test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cam
from .model import Model, _run, forward_trace
from .prng import SplitMix64


@dataclass
class CheckResult:
    suite: str
    name: str
    worst_error: float
    tolerance: float
    passed: bool


def _frozen_softmax_scalar(logits, c):
    """Y^c as a scalar function of S^c with the other logits held fixed."""
    m = float(np.max(logits))
    k = float(np.sum(np.exp(np.asarray(logits, dtype=np.float64) - m))
              - np.exp(logits[c] - m))

    def f(s):
        e = np.exp(s - m)
        return e / (e + k)

    return f


def _central_diff(f, x, order, h):
    if order == 2:
        return (f(x + h) - 2 * f(x) + f(x - h)) / (h * h)
    if order == 3:
        return (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h) - f(x - 2 * h)) \
            / (2 * h ** 3)
    raise ValueError(order)


def _random_image(rng: SplitMix64, shape):
    c, h, w = shape
    return rng.uniform_array(c * h * w).reshape(c, h, w)


def derivative_identity_suite(model: Model, trials: int = 20,
                              table_fn=cam.smooth_table) -> list:
    """Eq-style identity d^n Y^c / dA^n = f^(n)(S^c) g^n at the final
    scoring point, checked against nested central finite differences.

    exp is read at logits - S^c and differentiated as e^(s - S^c), the
    identity scaled by e^(-S^c), so no logit overflows it. A trial where
    both sides are 0 (a saturated softmax) does not count, and a check no
    trial reached reports worst = nan, so FAIL. Tolerances: rel err < 1e-4
    for n = 2, < 1e-3 for n = 3.
    """
    layer = model.spec.scoring_points[-1]
    rng = SplitMix64(1234)
    errors = {(smooth, order): [] for smooth in ("exp", "softmax")
              for order in (2, 3)}

    for _ in range(trials):
        image = _random_image(rng, model.spec.input_shape)
        trace = forward_trace(model, image)
        c, logits = trace.class_index, trace.logits[0]
        s_c, y = float(logits[c]), float(trace.probabilities[0, c])
        a = trace.activations[layer][0]
        g_map = trace.gradients[layer][0]
        flat = np.abs(g_map).ravel()
        candidates = np.nonzero(flat > 1e-8)[0]
        if candidates.size == 0:
            continue   # no final-layer gradient above the cutoff
        idx = candidates[rng.next_u64() % len(candidates)]
        pos = np.unravel_index(idx, g_map.shape)
        g = float(g_map[pos])

        for smooth in ("exp", "softmax"):
            shift = logits[c] if smooth == "exp" else 0.0
            _, _, f2, f3 = table_fn(smooth, s_c - shift, y)
            f = (lambda s: np.exp(s - shift)) if smooth == "exp" \
                else _frozen_softmax_scalar(logits, c)

            def y_of_t(t):
                ap = a.copy()
                ap[pos] += t
                # layer is the last block, so only the head follows it
                return f(float(_run(model, ap, ())[1][c]))

            for order, f_n, s_step in ((2, f2, 1e-3), (3, f3, 1e-3)):
                h = s_step / abs(g)
                fd = _central_diff(y_of_t, 0.0, order, h)
                analytic = f_n * g ** order
                if fd == 0.0 and analytic == 0.0:
                    continue   # 0 against 0: nothing was compared
                errors[smooth, order].append(
                    abs(fd - analytic) / max(abs(analytic), 1e-300))

    out = []
    for (smooth, order), errs in errors.items():
        tol = 1e-4 if order == 2 else 1e-3
        err = max(errs, default=float("nan"))   # nan < tol is False: FAIL
        out.append(CheckResult("derivative-identity",
                               f"{smooth} n={order}", err, tol, err < tol))
    return out
