"""Float64 kernels of the conv-block network, batched over leading axes.

Forward kernels take arrays whose trailing axes are [C,H,W] (conv2d, relu,
global_avg_pool) or [K] (linear, softmax); any leading axes are a batch.
Each `*_grad` kernel maps the gradient of a scalar with respect to the
kernel's output to the gradient with respect to its input; parameter
gradients are never needed. Every matmul multiplies each batch row's
matrices on their own, so a row of a batched call is bit-identical to the
same call on that row alone.

conv2d is im2col (the taps sliced from one zero-bordered copy of the
input) and one matmul per row. conv2d_input_grad has two forms. The
gather form, for stride 1 when C_in >= C_out, runs the same im2col and
matmul over g padded by k-1-p, with the kernel transposed over channels
and flipped in space: a transposed convolution computed as a direct one
(Dumoulin & Visin 2016, arXiv:1603.07285). The scatter form, for every
other case (stride 2, C_in < C_out), multiplies g by the transposed
kernel and adds each tap's columns back into a zero-bordered buffer with
one strided add.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested kernel."""


def conv2d_output_hw(h, w, kh, kw, stride, padding):
    return ((h + 2 * padding - kh) // stride + 1,
            (w + 2 * padding - kw) // stride + 1)


def _im2col(x, kh, kw, stride, padding):
    """[...,C,H,W] -> columns [...,C*kH*kW, oH*oW]."""
    *lead, c, h, w = x.shape
    oh, ow = conv2d_output_hw(h, w, kh, kw, stride, padding)
    xp = x
    if padding:
        xp = np.zeros((*lead, c, h + 2 * padding, w + 2 * padding))
        xp[..., padding:padding + h, padding:padding + w] = x
    cols = np.empty((*lead, c, kh, kw, oh, ow), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            cols[..., i, j, :, :] = xp[..., i:i + stride * oh:stride,
                                       j:j + stride * ow:stride]
    return cols.reshape(*lead, c * kh * kw, oh * ow), (oh, ow)


def _correlate(x, kernel, stride, padding, bias=None):
    """Cross-correlation: im2col, then one matmul per batch row."""
    cout, _, kh, kw = kernel.shape
    cols, (oh, ow) = _im2col(x, kh, kw, stride, padding)
    out = (kernel.reshape(cout, -1) @ cols).reshape(*x.shape[:-3], cout,
                                                    oh, ow)
    if bias is not None:
        out += bias[:, None, None]
    return out


def conv2d(x, kernel, bias, stride=1, padding=0):
    """Cross-correlation of [...,C_in,H,W] with a [C_out,C_in,kH,kW] kernel."""
    cin = kernel.shape[1]
    if x.shape[-3] != cin:
        raise ShapeError(f"kernel C_in {cin} != input C_in {x.shape[-3]}")
    return _correlate(x, kernel, stride, padding, bias)


def conv2d_input_grad(g, kernel, in_hw, stride=1, padding=0):
    """Input gradient of conv2d from g = d/d(output), [...,C_out,oH,oW].

    Stride 1 with C_in >= C_out and a square kernel wider than the padding
    takes the gather form, whose columns are then no larger than the
    scatter's; every other case takes the scatter form (module docstring).
    """
    cout, cin, kh, kw = kernel.shape
    if stride == 1 and cin >= cout and kh == kw > padding:
        flipped = kernel.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
        return _correlate(g, flipped, 1, kh - 1 - padding)
    *lead, _, oh, ow = g.shape
    h, w = in_hw
    dcols = kernel.reshape(cout, -1).T @ g.reshape(*lead, cout, oh * ow)
    d = dcols.reshape(*lead, cin, kh, kw, oh, ow)
    dxp = np.zeros((*lead, cin, h + 2 * padding, w + 2 * padding))
    for i in range(kh):
        for j in range(kw):
            dxp[..., i:i + stride * oh:stride,
                j:j + stride * ow:stride] += d[..., i, j, :, :]
    return np.ascontiguousarray(dxp[..., padding:padding + h,
                                    padding:padding + w])


def relu(x):
    return np.maximum(x, 0.0)


def relu_grad(g, y):
    """Input gradient of relu given its output y; it is 0 where y == 0."""
    return g * (y > 0.0)


def global_avg_pool(x):
    """Per-channel spatial mean: [...,C,H,W] -> [...,C]."""
    return x.mean(axis=(-2, -1))


def global_avg_pool_grad(g, in_hw):
    h, w = in_hw
    return np.broadcast_to((g / (h * w))[..., None, None],
                           (*g.shape, h, w)).copy()


def linear(x, weight, bias):
    """out[...,c] = sum_k weight[c,k] x[...,k] + bias[c]."""
    if x.shape[-1] != weight.shape[1]:
        raise ShapeError(f"x shape {x.shape} incompatible with weight "
                         f"{weight.shape}")
    return (weight @ x[..., None])[..., 0] + bias


def linear_grad(g, weight):
    return (weight.T @ g[..., None])[..., 0]


def softmax(v):
    """Numerically stable softmax over the last axis."""
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax_grad(g, y):
    """Input gradient of softmax given its output y: y * (g - <g, y>)."""
    return y * (g - (g * y).sum(axis=-1, keepdims=True))
