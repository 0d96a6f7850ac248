"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (explicit loops, no shared code with
the library paths under test). There are two exceptions. `ScalarSplitMix64`
shares the library stream's state, so block and scalar draws can be
interleaved. `four_corner_bilinear` is vectorized, because it pins the
library's resize bit for bit, not to a tolerance.

The softmax-polynomial and MDD suites hold two more oracles: 60-digit
`decimal` finite differences and the independent KL `kl`. They test pure
library functions, so they give the same result for every model and run
here, not in `icam verify`. They report through verify's `CheckResult`.

`one_batch_explain` is the engine's own recipe from before perturbations
were traced in blocks, one trace of [image; n perturbations]. It shares
the library's kernels and scorer, and pins that the blocks change no bit.

The planted-evidence and conjunction models and samples at the end are
known answers, not re-implementations: they use the library's `Model`, the
fixture's spec and `SplitMix64`, and test the CAM methods, not those. On
the planted model block1 is the best layer by construction; on the
conjunction model it is the worst.
"""

import math
from decimal import Decimal, localcontext

import numpy as np

from icam import cam, layerscore, metrics, pipeline, tensor
from icam.model import ForwardTrace, Model, _backward, _run, build_fixture_model
from icam.perturb import generate_set
from icam.prng import SplitMix64
from icam.verify import CheckResult, _central_diff


def naive_conv2d(x, kernel, bias, stride=1, padding=0):
    """Six-loop cross-correlation reference."""
    cout, cin, kh, kw = kernel.shape
    c, h, w = x.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    xp = np.zeros((c, h + 2 * padding, w + 2 * padding))
    xp[:, padding:padding + h, padding:padding + w] = x
    out = np.zeros((cout, oh, ow))
    for o in range(cout):
        for i in range(oh):
            for j in range(ow):
                acc = 0.0
                for ci in range(cin):
                    for ki in range(kh):
                        for kj in range(kw):
                            acc += xp[ci, i * stride + ki, j * stride + kj] \
                                * kernel[o, ci, ki, kj]
                out[o, i, j] = acc + bias[o]
    return out


def naive_generalized_alpha(f2, f3, g, a, eps):
    """Loop reference for the generalized Grad-CAM++ alpha of one [C,H,W]."""
    c, h, w = g.shape
    alpha = np.zeros((c, h, w))
    for k in range(c):
        s = 0.0
        for i in range(h):
            for j in range(w):
                s += a[k, i, j] * f3 * g[k, i, j] ** 3
        for i in range(h):
            for j in range(w):
                num = f2 * g[k, i, j] ** 2
                den = 2 * num + s
                alpha[k, i, j] = num / den if abs(den) >= eps else 0.0
    return alpha


def _naive_weighted_sum(w, a):
    """relu(sum_k w_k A_k) with w per channel ([C]) or per element ([C,H,W])."""
    c, h, wd = a.shape
    out = np.zeros((h, wd))
    for i in range(h):
        for j in range(wd):
            acc = 0.0
            for k in range(c):
                acc += (w[k] if w.ndim == 1 else w[k, i, j]) * a[k, i, j]
            out[i, j] = acc
    return out


def naive_gradcam_map(a, g, f1):
    """Loop reference for Grad-CAM: w_k = mean_ij f' g."""
    w = np.array([f1 * g[k].mean() for k in range(a.shape[0])])
    return np.maximum(_naive_weighted_sum(w, a), 0.0)


def naive_layercam_map(a, g, f1):
    """Loop reference for LayerCAM: w = relu(f' g) elementwise."""
    w = np.zeros_like(g)
    for idx in np.ndindex(g.shape):
        w[idx] = max(f1 * g[idx], 0.0)
    return np.maximum(_naive_weighted_sum(w, a), 0.0)


def naive_gradcampp_map(a, g, f1, f2, f3, eps):
    """Loop reference for Grad-CAM++: w_k = sum_ij alpha * relu(f' g)."""
    alpha = naive_generalized_alpha(f2, f3, g, a, eps)
    c, h, w = g.shape
    weights = np.zeros(c)
    for k in range(c):
        for i in range(h):
            for j in range(w):
                weights[k] += alpha[k, i, j] * max(f1 * g[k, i, j], 0.0)
    return np.maximum(_naive_weighted_sum(weights, a), 0.0)


def naive_icam_map(a, g, f1, f2, f3, s_c, bias, eps):
    """Loop reference for I-CAM: w = tanh(alpha) relu(f' g) plus its bias.

    channel bias adds sum_k (S^c - sum_ij w_k * sum_ij A_k) everywhere.
    """
    alpha = naive_generalized_alpha(f2, f3, g, a, eps)
    w = np.zeros_like(g)
    for idx in np.ndindex(g.shape):
        w[idx] = np.tanh(alpha[idx]) * max(f1 * g[idx], 0.0)
    raw = _naive_weighted_sum(w, a)
    c = a.shape[0]
    if bias == "channel":
        raw = raw + sum(s_c - w[k].sum() * a[k].sum() for k in range(c))
    return np.maximum(raw, 0.0)


def central_diff_grad(f, x, indices, h=1e-5):
    """Central finite-difference gradient of scalar f at selected flat indices."""
    x = np.asarray(x, dtype=np.float64)
    grads = {}
    for idx in indices:
        xp = x.copy().ravel()
        xm = x.copy().ravel()
        xp[idx] += h
        xm[idx] -= h
        grads[idx] = (f(xp.reshape(x.shape)) - f(xm.reshape(x.shape))) / (2 * h)
    return grads


def naive_bilinear_resize(src, out_h, out_w):
    """Loop reference for half-pixel-centered, edge-clamped bilinear resize."""
    in_h, in_w = src.shape
    out = np.zeros((out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            y = min(max((i + 0.5) * in_h / out_h - 0.5, 0.0), in_h - 1.0)
            x = min(max((j + 0.5) * in_w / out_w - 0.5, 0.0), in_w - 1.0)
            y0, x0 = int(np.floor(y)), int(np.floor(x))
            y1, x1 = min(y0 + 1, in_h - 1), min(x0 + 1, in_w - 1)
            fy, fx = y - y0, x - x0
            out[i, j] = (src[y0, x0] * (1 - fy) * (1 - fx)
                         + src[y0, x1] * (1 - fy) * fx
                         + src[y1, x0] * fy * (1 - fx)
                         + src[y1, x1] * fy * fx)
    return out


def four_corner_bilinear(h, out_h, out_w):
    """The vectorized four-corner form of bilinear_resize, kept as a pin.

    Each output pixel gathers its four input corners and interpolates
    along x on the top and bottom rows, then along y between them. The
    library's two-gather form does the same arithmetic in the same order,
    so the two must agree bit for bit.
    """
    h = np.asarray(h, dtype=np.float64)
    in_h, in_w = h.shape[-2:]
    ys = np.clip((np.arange(out_h) + 0.5) * in_h / out_h - 0.5, 0.0, in_h - 1.0)
    xs = np.clip((np.arange(out_w) + 0.5) * in_w / out_w - 0.5, 0.0, in_w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    y0, y1 = y0[:, None], y1[:, None]
    top = h[..., y0, x0] * (1 - wx) + h[..., y0, x1] * wx
    bot = h[..., y1, x0] * (1 - wx) + h[..., y1, x1] * wx
    return top * (1 - wy) + bot * wy


def naive_channel_norm(t):
    c, h, w = t.shape
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for k in range(c):
                acc += t[k, i, j] ** 2
            out[i, j] = np.sqrt(acc)
    return out


def naive_iou(a, b):
    inter = union = 0
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            if a[i, j] and b[i, j]:
                inter += 1
            if a[i, j] or b[i, j]:
                union += 1
    return inter / union if union else 0.0


def naive_saliency(h, mask):
    num = den = 0.0
    for i in range(h.shape[0]):
        for j in range(h.shape[1]):
            den += h[i, j]
            if mask[i, j]:
                num += h[i, j]
    return num / den if den else 0.0


def kl(x, y, floor=1e-12):
    x = np.clip(np.asarray(x, dtype=np.float64), floor, 1.0)
    y = np.clip(np.asarray(y, dtype=np.float64), floor, 1.0)
    return float(np.sum(x * np.log(x / y)))


def naive_ssim(x, y, c1, c2):
    """Global SSIM of one [C,H,W] pair, one channel at a time."""
    vals = []
    for xc, yc in zip(x, y):
        mx, my = xc.mean(), yc.mean()
        vx = ((xc - mx) ** 2).mean()
        vy = ((yc - my) ** 2).mean()
        cov = ((xc - mx) * (yc - my)).mean()
        vals.append(((2 * mx * my + c1) * (2 * cov + c2))
                    / ((mx * mx + my * my + c1) * (vx + vy + c2)))
    return float(np.mean(vals))


class ScalarSplitMix64(SplitMix64):
    """One draw per call: the reference recipe the block methods replay.

    It shares the stream (`_state` and the cached Box-Muller sin twin
    `_spare`) with the block methods, so block and scalar draws can be
    interleaved on one stream. `next_u64` is the recipe in Python integers,
    apart from the library's numpy output function.
    """

    def next_u64(self) -> int:
        mask = (1 << 64) - 1
        self._state = (self._state + 0x9E3779B97F4A7C15) & mask
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53

    def gaussian(self) -> float:
        if self._spare is not None:
            z = self._spare
            self._spare = None
            return z
        # 1 - uniform() maps [0,1) onto (0,1] so the log is always finite.
        u1 = 1.0 - self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        z0 = r * math.cos(theta)
        self._spare = r * math.sin(theta)
        return z0

    def bernoulli(self, p: float) -> int:
        """One draw in {0, 1} with P(1) = p."""
        return 1 if self.uniform() < p else 0


# ---------------------------------------------------------------------------
# library self-checks: the same result for every model
# ---------------------------------------------------------------------------

def central_diff(f, x, order, h):
    """Central difference of order 1, 2 or 3; 2 and 3 are verify's stencils."""
    if order == 1:
        return (f(x + h) - f(x - h)) / (2 * h)
    return _central_diff(f, x, order, h)


def softmax_polynomial_suite(trials=100, table_fn=cam.smooth_table):
    """f', f'', f''' polynomials vs high-precision finite differences.

    The oracle differentiates the frozen-logit scalar softmax in decimal
    at 60 significant digits (Decimal.exp is correctly rounded), so the
    comparison is limited only by the float64 analytic evaluation. The
    caller's decimal context is left as it was. Includes the Y = 0.5 spot
    values (0.25, 0, -0.125).
    """
    classes = 5
    rng = SplitMix64(99)
    worst = [0.0, 0.0, 0.0]
    with localcontext() as ctx:
        ctx.prec = 60
        h = Decimal("1e-10")
        for _ in range(trials):
            logits = 2.0 * rng.gaussian_array(classes)
            c = rng.next_u64() % classes
            _, f1, f2, f3 = table_fn("softmax", float(logits[c]),
                                     float(tensor.softmax(logits)[c]))
            k = sum(Decimal(float(v)).exp()
                    for i, v in enumerate(logits) if i != c)

            def f(s):
                e = s.exp()
                return e / (e + k)

            s0 = Decimal(float(logits[c]))
            for order, analytic in ((1, f1), (2, f2), (3, f3)):
                fd = float(central_diff(f, s0, order, h))
                rel = abs(fd - analytic) / max(abs(analytic), 1e-300)
                worst[order - 1] = max(worst[order - 1], rel)

    out = [CheckResult("softmax-polynomials", f"f^({o}) finite differences",
                       worst[o - 1], 1e-5, worst[o - 1] < 1e-5)
           for o in (1, 2, 3)]

    y, f1, f2, f3 = table_fn("softmax", 0.0, 0.5)
    spot = max(abs(y - 0.5), abs(f1 - 0.25), abs(f2 - 0.0), abs(f3 + 0.125))
    out.append(CheckResult("softmax-polynomials", "Y=0.5 spot values",
                           spot, 1e-12, spot < 1e-12))
    return out


def _random_dist(rng, size):
    v = rng.uniform_array(size) + 1e-3
    return v / v.sum()


def mdd_symmetric_kl_suite():
    """MDD(X,Y) vs (kl(X,Y) + kl(Y,X)) / 2 on 1000 random distribution pairs."""
    rng = SplitMix64(5)
    worst = 0.0
    for _ in range(1000):
        size = 2 + rng.next_u64() % 9
        x = _random_dist(rng, size)
        y = _random_dist(rng, size)
        sym = 0.5 * (kl(x, y) + kl(y, x))
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


# ---------------------------------------------------------------------------
# one trace of [image; perturbations]: the engine before it traced blocks
# ---------------------------------------------------------------------------

def one_batch_explain(model, image, request):
    """Automatic I-CAM's ExplainResult from one trace of the 1+n rows
    [image; perturbations]: one forward, one reverse walk of e_c on row 0
    and y * (e_c - y_c) on rows 1..n, a walk of row 0's probability seed to
    the input, phi over rows 1..n and one layer_importance."""
    rows = np.concatenate([image[None], generate_set(image, request)])
    acts, logits = _run(model, rows, model.spec.blocks)
    probs = tensor.softmax(logits)
    c = int(np.argmax(logits[0]))
    e_c = np.eye(model.spec.num_classes)[c]
    seeds = np.concatenate([e_c[None], tensor.softmax_grad(e_c, probs[1:])])
    grads, _ = _backward(model, rows, acts, seeds, to_input=False)
    _, g = _backward(model, rows[:1], [a[:1] for a in acts],
                     tensor.softmax_grad(e_c, probs[:1]), to_input=True)
    names = model.spec.scoring_points
    trace = ForwardTrace(rows, dict(zip(names, acts)), dict(zip(names, grads)),
                         logits, probs, c)
    maps = {name: layerscore.channel_norm_map(layerscore.phi(trace, name)[1:])
            for name in names}
    weights = metrics.perturbation_weight(image, rows[1:], probs[0], probs[1:])
    scores = layerscore.layer_importance(rows[0] * g[0], maps, weights)
    report = layerscore.LayerScoreReport(
        scores, weights, layerscore.select_layers(scores, request.threshold))
    return pipeline.explain_trace(trace, request, report)


# ---------------------------------------------------------------------------
# planted evidence: models and samples whose right answer is known
# ---------------------------------------------------------------------------

# class k's color: red, green, blue, yellow, magenta
PLANTED_COLORS = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0],
                           [1, 0, 1]], dtype=np.float64)
PLANTED_SIDE = 8


def planted_model(gain):
    """The fixture's architecture with hand-set weights: class k < 5 reads
    only pixels of color v_k, so its evidence is exactly the colored square.

    block1 channel k has center tap 2 v_k - 1 on each input channel and bias
    0.5 - sum(v_k): 0.5 on color v_k, at most -0.1 on any other color or on a
    background below 0.4. block2 and block3 pass channel k on through a 1/9
    box kernel, and head.weight[k, k] = gain. Every other weight is 0.
    """
    spec = build_fixture_model(0).spec
    weights = {name: np.zeros(shape)
               for name, shape in spec.weight_shapes().items()}
    for k, v in enumerate(PLANTED_COLORS):
        weights["block1.weight"][k, :, 1, 1] = 2.0 * v - 1.0
        weights["block1.bias"][k] = 0.5 - v.sum()
        weights["block2.weight"][k, k] = 1.0 / 9.0
        weights["block3.weight"][k, k] = 1.0 / 9.0
        weights["head.weight"][k, k] = gain
    return Model(spec, weights)


def planted_samples(seed, count):
    """`count` (image, label, bbox mask) triples from one SplitMix64(seed).

    Sample i is a 0.4 * uniform background with one 8x8 square of color
    i mod 5 at (x0, y0) = (next_u64() % 25, next_u64() % 25); the mask is
    the square's exact bbox.
    """
    rng = SplitMix64(seed)
    out = []
    for i in range(count):
        image = 0.4 * rng.uniform_array(3 * 32 * 32).reshape(3, 32, 32)
        x0, y0 = rng.next_u64() % 25, rng.next_u64() % 25
        label = i % len(PLANTED_COLORS)
        square = np.s_[y0:y0 + PLANTED_SIDE, x0:x0 + PLANTED_SIDE]
        image[(slice(None),) + square] = PLANTED_COLORS[label][:, None, None]
        mask = np.zeros((32, 32), dtype=np.uint8)
        mask[square] = 1
        out.append((image, label, mask))
    return out


def conjunction_model(gain):
    """`planted_model`'s block1, but class k reads color k directly left of
    color j = (k + 1) mod 5, so only block2 and deeper can see its evidence.

    block2 channel k reads block1's channel k on its left tap column and
    channel j on its right, 1/3 per tap, with bias -0.75: it fires (0.25)
    only where both colors meet, and is <= 0 where either is alone. block3
    passes channel k on through a 1/9 box kernel, and head.weight[k, k] =
    gain. Every other weight is 0.
    """
    model = planted_model(gain)
    weights, n = model.weights, len(PLANTED_COLORS)
    weights["block2.weight"][:] = 0.0
    for k in range(n):
        weights["block2.weight"][k, k, :, 0] = 1.0 / 3.0
        weights["block2.weight"][k, (k + 1) % n, :, 2] = 1.0 / 3.0
        weights["block2.bias"][k] = -0.75
    return model


def conjunction_samples(seed, count):
    """`count` (image, label, strip mask) triples from one SplitMix64(seed).

    Sample i has label k = i mod 5 and j = (k + 1) mod 5. On a 0.4 * uniform
    background it holds three 8x8 squares: one of color k in its left half
    and color j in its right, one of color k alone and one of color j alone.
    Each corner is (x0, y0) = (next_u64() % 25, next_u64() % 25), drawn again
    until the square lies at least 2 px from each square placed before it.
    The mask is the two-color square's columns x0 + 2 to x0 + 5, the strip
    where both colors lie within one block2 window.
    """
    rng = SplitMix64(seed)
    side, half, reach = PLANTED_SIDE, PLANTED_SIDE // 2, PLANTED_SIDE + 2
    out = []
    for i in range(count):
        image = 0.4 * rng.uniform_array(3 * 32 * 32).reshape(3, 32, 32)
        k = i % len(PLANTED_COLORS)
        j = (k + 1) % len(PLANTED_COLORS)
        corners = []
        while len(corners) < 3:
            x, y = rng.next_u64() % 25, rng.next_u64() % 25
            if all(abs(x - cx) >= reach or abs(y - cy) >= reach
                   for cx, cy in corners):
                corners.append((x, y))
        for (x, y), (left, right) in zip(corners, ((k, j), (k, k), (j, j))):
            image[:, y:y + side, x:x + half] = PLANTED_COLORS[left][:, None, None]
            image[:, y:y + side, x + half:x + side] = \
                PLANTED_COLORS[right][:, None, None]
        x0, y0 = corners[0]
        mask = np.zeros((32, 32), dtype=np.uint8)
        mask[y0:y0 + side, x0 + 2:x0 + 6] = 1
        out.append((image, k, mask))
    return out


def random_heatmap_iou(samples):
    """The mean IoU, at eval's threshold, of SplitMix64(1) uniform heatmaps
    against the samples' masks: the floor a known-answer map must beat."""
    rng = SplitMix64(1)
    return np.mean([
        metrics.iou(metrics.threshold_heatmap(
            rng.uniform_array(mask.size).reshape(mask.shape)), mask)
        for _, _, mask in samples])
