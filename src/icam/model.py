"""Toy CNN definition, forward/backward tracing, and weight file I/O.

The model is a fixed-topology stack of conv+relu blocks followed by one
global average pool and one linear head. Each post-relu block output is a
named "scoring point": the place where activations and gradients are
captured for layer scoring and CAM computation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .prng import SplitMix64

MAGIC = b"ICAMW001"
_META_KEY = "__meta__"
_BLOCK_MINIMA = {"out_channels": 1, "kernel_size": 1, "stride": 1, "padding": 0}


class ModelFormatError(ValueError):
    """A weight file failed to parse; the message names the offending field."""


@dataclass(frozen=True)
class ConvBlockSpec:
    name: str
    out_channels: int
    kernel_size: int
    stride: int
    padding: int


@dataclass(frozen=True)
class ModelSpec:
    input_shape: tuple  # (C, H, W)
    blocks: tuple  # ConvBlockSpec, in order
    num_classes: int

    @property
    def scoring_points(self):
        return tuple(b.name for b in self.blocks)

    def block_shapes(self):
        """Output (C, H, W) of every block, in order."""
        c, h, w = self.input_shape
        shapes = []
        for b in self.blocks:
            h, w = T.conv2d_output_hw(h, w, b.kernel_size, b.kernel_size,
                                      b.stride, b.padding)
            c = b.out_channels
            shapes.append((c, h, w))
        return shapes

    def weight_shapes(self):
        """Tensor name -> shape, in declaration order (weight, bias; head last)."""
        cin = self.input_shape[0]
        shapes = {}
        for b in self.blocks:
            shapes[f"{b.name}.weight"] = (b.out_channels, cin, b.kernel_size,
                                          b.kernel_size)
            shapes[f"{b.name}.bias"] = (b.out_channels,)
            cin = b.out_channels
        shapes["head.weight"] = (self.num_classes, cin)
        shapes["head.bias"] = (self.num_classes,)
        return shapes


@dataclass
class Model:
    spec: ModelSpec
    weights: dict = field(default_factory=dict)  # name -> float64 ndarray


@dataclass
class ForwardTrace:
    """One forward and one reverse walk over the rows [image; perturbations].

    Every array keeps the leading row axis N (N = 1 for a lone image).
    Row 0 of `gradients` is the logit gradient dS^c/dA of the image; rows
    1..N-1 are the probability gradients dY^c/dA of the perturbations.
    `input_gradient` is the image's probability gradient dY^c/dI, or None
    for a lone image. One class index holds for every row.
    """

    image: np.ndarray                 # [N,C,H,W] input rows
    activations: dict                 # scoring point -> [N,C_l,H_l,W_l]
    gradients: dict                   # scoring point -> same shape
    logits: np.ndarray                # [N,C_cls]
    probabilities: np.ndarray         # [N,C_cls]
    input_gradient: np.ndarray        # [C,H,W], or None
    class_index: int


class NonFiniteImageError(ValueError):
    """An input image holds a NaN or infinite pixel."""


def build_fixture_model(seed: int) -> Model:
    """The reference 3x32x32 fixture: three conv+relu blocks, GAP, 16->5 head.

    All parameters are drawn from a single SplitMix64(seed) Gaussian stream
    in declaration order (weight then bias per layer), row-major, scaled by
    sqrt(2 / fan_in) of the owning layer.
    """
    spec = ModelSpec(
        input_shape=(3, 32, 32),
        blocks=(
            ConvBlockSpec("block1", 8, 3, 1, 1),
            ConvBlockSpec("block2", 16, 3, 2, 1),
            ConvBlockSpec("block3", 16, 3, 1, 1),
        ),
        num_classes=5,
    )
    rng = SplitMix64(seed)
    weights = {}
    for name, shape in spec.weight_shapes().items():
        if name.endswith(".weight"):
            fan_in = int(np.prod(shape[1:]))
        scale = np.sqrt(2.0 / fan_in)
        weights[name] = (scale * rng.gaussian_array(int(np.prod(shape)))
                         ).reshape(shape)
    return Model(spec, weights)


def check_images(model: Model, image, ndims=(3, 4)) -> np.ndarray:
    """Validate one [C,H,W] image or an [N,C,H,W] batch at the boundary."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim not in ndims or image.shape[-3:] != model.spec.input_shape:
        raise T.ShapeError(
            f"image shape {image.shape} != model input {model.spec.input_shape}")
    if not np.isfinite(image).all():
        raise NonFiniteImageError("image has non-finite (NaN or inf) pixels")
    return image


def _run(model: Model, x: np.ndarray, blocks):
    """conv->relu over `blocks`, then GAP and the head: (block outputs, logits)."""
    outputs = []
    for b in blocks:
        x = T.relu(T.conv2d(x, model.weights[f"{b.name}.weight"],
                            model.weights[f"{b.name}.bias"],
                            stride=b.stride, padding=b.padding))
        outputs.append(x)
    logits = T.linear(T.global_avg_pool(x), model.weights["head.weight"],
                      model.weights["head.bias"])
    return outputs, logits


def forward(model: Model, image: np.ndarray) -> np.ndarray:
    """Logits of one [C,H,W] image or an [N,C,H,W] batch; no backward pass."""
    return _run(model, check_images(model, image), model.spec.blocks)[1]


def forward_trace(model: Model, image: np.ndarray,
                  class_index=None) -> ForwardTrace:
    """Run the rows forward once and walk the blocks back once.

    `image` is one [C,H,W] image, or an [1+n,C,H,W] batch: the image, then
    its n perturbations. class_index defaults to row 0's argmax logit (ties
    break to the lowest index) and holds for every row. The reverse walk
    starts from seeds dScalar/dLogits stacked per row: e_c on row 0,
    y * (e_c - y_c) on rows 1..n and, for a batch, on a copy of row 0
    appended last, the only row that goes on past the first block to the
    input. Every matmul is per row, so a row's values do not depend on the
    other rows.
    """
    images = check_images(model, image)
    batch = images.ndim == 4
    images = images if batch else images[None]
    blocks = model.spec.blocks
    acts, logits = _run(model, images, blocks)
    probs = T.softmax(logits)

    c = int(np.argmax(logits[0]) if class_index is None else class_index)
    if not 0 <= c < model.spec.num_classes:
        raise IndexError(f"class_index {c} out of range "
                         f"[0, {model.spec.num_classes})")
    n = len(images)
    rows = np.append(np.arange(n), 0) if batch else np.arange(n)
    e_c = np.eye(model.spec.num_classes)[c]
    g = np.concatenate([e_c[None], T.softmax_grad(e_c, probs[rows[1:]])])
    g = T.global_avg_pool_grad(T.linear_grad(g, model.weights["head.weight"]),
                               acts[-1].shape[-2:])
    inputs = [images] + acts[:-1]
    grads = [None] * len(blocks)
    for i in reversed(range(len(blocks))):
        grads[i] = g[:n]
        if i == 0:   # only the appended copy of row 0 goes on to the input
            if not batch:
                break
            g, rows = g[n:], rows[n:]
        g = T.conv2d_input_grad(T.relu_grad(g, acts[i][rows]),
                                model.weights[f"{blocks[i].name}.weight"],
                                inputs[i].shape[-2:], stride=blocks[i].stride,
                                padding=blocks[i].padding)

    names = model.spec.scoring_points
    return ForwardTrace(
        image=images,
        activations=dict(zip(names, acts)),
        gradients=dict(zip(names, grads)),
        logits=logits,
        probabilities=probs,
        input_gradient=g[0] if batch else None,
        class_index=c,
    )


def forward_from(model: Model, layer: str, activation: np.ndarray) -> np.ndarray:
    """Plain-numpy forward from a scoring point's activation to the logits.

    Used by finite-difference oracles that nudge single activation entries.
    """
    names = model.spec.scoring_points
    if layer not in names:
        raise KeyError(f"unknown scoring point {layer!r}")
    x = np.asarray(activation, dtype=np.float64)
    return _run(model, x, model.spec.blocks[names.index(layer) + 1:])[1]


# ---------------------------------------------------------------------------
# ICAMW001 weight file format
#
#   8-byte magic "ICAMW001"
#   u64 little-endian header length
#   UTF-8 JSON header: tensor name -> {"shape": [...], "offset": n, "nbytes": n}
#     plus one reserved "__meta__" entry carrying the architecture
#   contiguous little-endian float32 payload
# ---------------------------------------------------------------------------

def _spec_to_meta(spec: ModelSpec) -> dict:
    return {
        "input_shape": list(spec.input_shape),
        "num_classes": spec.num_classes,
        "blocks": [{"name": b.name, "out_channels": b.out_channels,
                    "kernel_size": b.kernel_size, "stride": b.stride,
                    "padding": b.padding} for b in spec.blocks],
    }


def _meta_to_spec(meta: dict) -> ModelSpec:
    try:
        blocks = tuple(ConvBlockSpec(b["name"], b["out_channels"],
                                     b["kernel_size"], b["stride"], b["padding"])
                       for b in meta["blocks"])
        spec = ModelSpec(tuple(meta["input_shape"]), blocks, meta["num_classes"])
    except (KeyError, TypeError) as exc:
        raise ModelFormatError(f"bad __meta__ entry: {exc}") from exc

    if len(spec.input_shape) != 3:
        raise ModelFormatError("bad __meta__ entry: input_shape must be [C, H, W]")
    if not blocks or len({str(b.name) for b in blocks}) < len(blocks):
        raise ModelFormatError("bad __meta__ entry: blocks must be non-empty "
                               "with unique names")
    ints = [("input_shape", d, 1) for d in spec.input_shape]
    ints += [("num_classes", spec.num_classes, 1)]
    ints += [(f"block {b.name!r} {f}", getattr(b, f), low)
             for b in blocks for f, low in _BLOCK_MINIMA.items()]
    for what, value, low in ints:
        if type(value) is not int or value < low:
            raise ModelFormatError(f"bad __meta__ entry: {what} {value!r} "
                                   f"must be an integer >= {low}")
    for b, (_, h, w) in zip(blocks, spec.block_shapes()):
        if h < 1 or w < 1:
            raise ModelFormatError(f"bad __meta__ entry: block {b.name!r} "
                                   f"output {h}x{w} is smaller than 1x1")
    return spec


def save_model(model: Model, path) -> None:
    names = sorted(model.weights)
    header = {_META_KEY: _spec_to_meta(model.spec)}
    payload = bytearray()
    offset = 0
    for name in names:
        arr = np.ascontiguousarray(model.weights[name], dtype="<f4")
        header[name] = {"shape": list(arr.shape), "offset": offset,
                        "nbytes": arr.nbytes}
        payload += arr.tobytes()
        offset += arr.nbytes
    hdr = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(len(hdr).to_bytes(8, "little"))
        f.write(hdr)
        f.write(payload)


def load_model(path) -> Model:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != MAGIC:
        raise ModelFormatError(f"bad magic: expected {MAGIC!r}, got {blob[:8]!r}")
    if len(blob) < 16:
        raise ModelFormatError("truncated payload: missing header length")
    hlen = int.from_bytes(blob[8:16], "little")
    if 16 + hlen > len(blob):
        raise ModelFormatError("truncated payload: header extends past end of file")
    try:
        header = json.loads(blob[16:16 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"bad header JSON: {exc}") from exc
    if not isinstance(header, dict) or _META_KEY not in header:
        raise ModelFormatError("bad header: missing __meta__ entry")
    spec = _meta_to_spec(header.pop(_META_KEY))

    body = blob[16 + hlen:]
    weights = {}
    for name, entry in header.items():
        try:
            shape = tuple(entry["shape"])
            off, nbytes = int(entry["offset"]), int(entry["nbytes"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ModelFormatError(f"bad entry for tensor {name!r}: {exc}") from exc
        if not all(type(d) is int and d >= 0 for d in shape) \
                or nbytes != 4 * math.prod(shape):
            raise ModelFormatError(
                f"shape/offset inconsistency: tensor {name!r} shape "
                f"{list(shape)} must be non-negative integers whose product "
                f"is nbytes / 4 (nbytes {nbytes})")
        if off < 0 or off + nbytes > len(body):
            raise ModelFormatError(
                f"truncated payload: tensor {name!r} at offset {off} "
                f"({nbytes} bytes) extends past end of file")
        raw = np.frombuffer(body, dtype="<f4", count=nbytes // 4, offset=off)
        if not np.isfinite(raw).all():
            raise ModelFormatError(f"tensor {name!r} holds NaN or infinite "
                                   f"values")
        weights[name] = raw.astype(np.float64).reshape(shape)

    expected = spec.weight_shapes()
    missing = [n for n in expected if n not in weights]
    if missing:
        raise ModelFormatError(f"bad header: missing tensors {missing}")
    for name, shape in expected.items():
        if weights[name].shape != shape:
            raise ModelFormatError(
                f"tensor {name!r} has shape {weights[name].shape}, "
                f"but __meta__ implies {shape}")
    return Model(spec, weights)
