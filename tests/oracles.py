"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (explicit loops, no shared code with
the library paths under test).
"""

import numpy as np


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
