"""Self-verification suites behind the `verify` CLI command.

Three independent suites:
  1. derivative identity: analytic f^(n)(S^c) g^n vs nested central finite
     differences through the real network tail, for n = 2, 3;
  2. softmax derivative polynomials vs high-precision finite differences
     of the scalar softmax map (other logits frozen);
  3. MDD vs the symmetric KL divergence computed independently.

Each check reports its worst error so a failure is diagnosable from the
printed report alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
import numpy as np

from . import cam, metrics
from .model import Model, build_fixture_model, forward_from, forward_trace
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


def _smooth_scalar(name, logits, c):
    if name == "exp":
        return np.exp
    if name == "identity":
        return lambda s: s
    if name == "softmax":
        return _frozen_softmax_scalar(logits, c)
    raise ValueError(name)


def _central_diff(f, x, order, h):
    if order == 1:
        return (f(x + h) - f(x - h)) / (2 * h)
    if order == 2:
        return (f(x + h) - 2 * f(x) + f(x - h)) / (h * h)
    if order == 3:
        return (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h) - f(x - 2 * h)) \
            / (2 * h ** 3)
    raise ValueError(order)


def _random_image(rng: SplitMix64, shape):
    c, h, w = shape
    return rng.uniform_array(c * h * w).reshape(c, h, w)


def derivative_identity_suite(model: Model = None, trials: int = 20,
                              seed: int = 1234,
                              table_fn=cam.smooth_table) -> list:
    """Eq-style identity d^n Y^c / dA^n = f^(n)(S^c) g^n at the final
    scoring point, checked against nested central finite differences.

    Tolerances: rel err < 1e-4 for n = 2, < 1e-3 for n = 3.
    """
    if model is None:
        model = build_fixture_model(7)
    layer = model.spec.scoring_points[-1]
    rng = SplitMix64(seed)
    worst = {("exp", 2): 0.0, ("exp", 3): 0.0,
             ("softmax", 2): 0.0, ("softmax", 3): 0.0}

    for _ in range(trials):
        image = _random_image(rng, model.spec.input_shape)
        trace = forward_trace(model, image)
        c, logits = trace.class_index, trace.logits[0]
        a = trace.activations[layer][0]
        g_map = trace.gradients[layer][0]
        flat = np.abs(g_map).ravel()
        candidates = np.nonzero(flat > 1e-8)[0]
        idx = candidates[rng.next_u64() % len(candidates)]
        pos = np.unravel_index(idx, g_map.shape)
        g = float(g_map[pos])

        for smooth in ("exp", "softmax"):
            _, _, f2, f3 = table_fn(smooth, logits, c)
            f = _smooth_scalar(smooth, logits, c)

            def y_of_t(t):
                ap = a.copy()
                ap[pos] += t
                return f(float(forward_from(model, layer, ap)[c]))

            for order, f_n, s_step in ((2, f2, 1e-3), (3, f3, 1e-3)):
                h = s_step / abs(g)
                fd = _central_diff(y_of_t, 0.0, order, h)
                analytic = f_n * g ** order
                rel = abs(fd - analytic) / max(abs(analytic), 1e-300)
                key = (smooth, order)
                worst[key] = max(worst[key], rel)

    out = []
    for (smooth, order), err in worst.items():
        tol = 1e-4 if order == 2 else 1e-3
        out.append(CheckResult("derivative-identity",
                               f"{smooth} n={order}", err, tol, err < tol))
    return out


def softmax_polynomial_suite(trials: int = 100, seed: int = 99,
                             classes: int = 5,
                             table_fn=cam.smooth_table) -> list:
    """f', f'', f''' polynomials vs high-precision finite differences.

    The oracle differentiates the frozen-logit scalar softmax with mpmath
    at 60 significant digits, so the comparison is limited only by the
    float64 analytic evaluation. Includes the Y = 0.5 spot values
    (0.25, 0, -0.125).
    """
    rng = SplitMix64(seed)
    worst = [0.0, 0.0, 0.0]
    with mpmath.workdps(60):
        h = mpmath.mpf("1e-10")
        for _ in range(trials):
            logits = 2.0 * rng.gaussian_array(classes)
            c = rng.next_u64() % classes
            _, f1, f2, f3 = table_fn("softmax", logits, c)
            k = sum(mpmath.exp(mpmath.mpf(float(v)))
                    for i, v in enumerate(logits) if i != c)

            def f(s):
                e = mpmath.exp(s)
                return e / (e + k)

            s0 = mpmath.mpf(float(logits[c]))
            for order, analytic in ((1, f1), (2, f2), (3, f3)):
                fd = float(_central_diff(f, s0, order, h))
                rel = abs(fd - analytic) / max(abs(analytic), 1e-300)
                worst[order - 1] = max(worst[order - 1], rel)

    out = [CheckResult("softmax-polynomials", f"f^({o}) finite differences",
                       worst[o - 1], 1e-5, worst[o - 1] < 1e-5)
           for o in (1, 2, 3)]

    y, f1, f2, f3 = table_fn("softmax", np.array([0.0, 0.0]), 0)
    spot = max(abs(y - 0.5), abs(f1 - 0.25), abs(f2 - 0.0), abs(f3 + 0.125))
    out.append(CheckResult("softmax-polynomials", "Y=0.5 spot values",
                           spot, 1e-12, spot < 1e-12))
    return out


def kl_divergence(x, y) -> float:
    """Forward KL in nats with the same probability floor as MDD."""
    x = np.clip(np.asarray(x, dtype=np.float64), metrics.PROB_FLOOR, 1.0)
    y = np.clip(np.asarray(y, dtype=np.float64), metrics.PROB_FLOOR, 1.0)
    return float(np.sum(x * np.log(x / y)))


def _random_dist(rng, size):
    v = rng.uniform_array(size) + 1e-3
    return v / v.sum()


def mdd_symmetric_kl_suite(pairs: int = 1000, seed: int = 5) -> list:
    """MDD(X,Y) vs (KL(X,Y) + KL(Y,X)) / 2 on random distribution pairs."""
    rng = SplitMix64(seed)
    worst = 0.0
    for _ in range(pairs):
        size = 2 + rng.next_u64() % 9
        x = _random_dist(rng, size)
        y = _random_dist(rng, size)
        sym = 0.5 * (kl_divergence(x, y) + kl_divergence(y, x))
        worst = max(worst, abs(metrics.mdd(x, y) - sym))
    checks = [CheckResult("mdd-symmetric-kl", "MDD vs symmetric KL",
                          worst, 1e-12, worst < 1e-12)]

    self_err = abs(metrics.mdd(np.array([0.3, 0.7]), np.array([0.3, 0.7])))
    checks.append(CheckResult("mdd-symmetric-kl", "MDD(X,X) = 0",
                              self_err, 0.0, self_err == 0.0))
    worked = abs(metrics.mdd(np.array([0.7, 0.3]), np.array([0.5, 0.5]))
                 - 0.1 * np.log(7.0 / 3.0))
    checks.append(CheckResult("mdd-symmetric-kl", "worked value (0.7,0.3)",
                              worked, 1e-12, worked < 1e-12))
    return checks


def run_all(model: Model = None, table_fn=cam.smooth_table) -> list:
    checks = []
    checks += derivative_identity_suite(model, table_fn=table_fn)
    checks += softmax_polynomial_suite(table_fn=table_fn)
    checks += mdd_symmetric_kl_suite()
    return checks
