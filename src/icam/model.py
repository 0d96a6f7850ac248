"""Toy CNN definition, forward/backward tracing, and weight file I/O.

The model is a fixed-topology stack of conv+relu blocks followed by one
global average pool and one linear head. Each post-relu block output is a
named "scoring point": the place where activations and gradients are
captured for layer scoring and CAM computation.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from numbers import Integral

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
    """One forward and its reverse walk over a stack of input rows.

    Every array keeps the leading row axis N. `forward_trace` traces one
    image (N = 1): `gradients` holds its logit gradient dS^c/dA.
    `trace_perturbations` traces a block of perturbation rows: `gradients`
    holds each row's probability gradient dY^c/dA for the image's class.
    One class index holds for every row. No trace holds the input gradient
    dY^c/dI: `input_gradient` walks it from an image's trace.
    """

    image: np.ndarray                 # [N,C,H,W] input rows
    activations: dict                 # scoring point -> [N,C_l,H_l,W_l]
    gradients: dict                   # scoring point -> same shape
    logits: np.ndarray                # [N,C_cls]
    probabilities: np.ndarray         # [N,C_cls]
    class_index: int


class NonFiniteImageError(ValueError):
    """An input image holds a NaN or infinite pixel."""


def is_integer(v) -> bool:   # an int or a numpy integer, not a bool
    return isinstance(v, Integral) and not isinstance(v, bool)


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


def _backward(model: Model, images: np.ndarray, acts: list, seeds: np.ndarray,
              to_input: bool):
    """Walk [R,K] seeds dScalar/dLogits on the R rows from the head back.

    Returns each block output's [R,...] gradient and, when `to_input`, the
    input's [R,C,H,W] gradient (else None).
    """
    blocks = model.spec.blocks
    g = T.linear_grad(seeds, model.weights["head.weight"])
    g = T.global_avg_pool_grad(g, acts[-1].shape[-2:])
    grads = [None] * len(blocks)
    for i in reversed(range(len(blocks))):
        grads[i] = g
        if i == 0 and not to_input:
            return grads, None
        g = T.relu_grad(g, acts[i])
        x = images if i == 0 else acts[i - 1]
        g = T.conv2d_input_grad(g, model.weights[f"{blocks[i].name}.weight"],
                                x.shape[-2:], stride=blocks[i].stride,
                                padding=blocks[i].padding)
    return grads, g


def _class_seed(model: Model, class_index):
    """(int c, one-hot seed e_c) of a class index: every trace's one rule."""
    if not is_integer(class_index):
        raise ValueError(f"class_index must be an integer, got {class_index!r}")
    c = int(class_index)
    if not 0 <= c < model.spec.num_classes:
        raise IndexError(f"class_index {c} out of range "
                         f"[0, {model.spec.num_classes})")
    return c, np.eye(model.spec.num_classes)[c]


def forward_trace(model: Model, image: np.ndarray,
                  class_index=None) -> ForwardTrace:
    """Run one [C,H,W] image forward and walk its logit seed e_c back to the
    blocks. class_index defaults to the argmax logit (ties to the lowest)."""
    seed = None if class_index is None else _class_seed(model, class_index)
    images = check_images(model, image, ndims=(3,))[None]
    acts, logits = _run(model, images, model.spec.blocks)
    c, e_c = seed or _class_seed(model, np.argmax(logits[0]))
    grads, _ = _backward(model, images, acts, e_c[None], to_input=False)
    names = model.spec.scoring_points
    return ForwardTrace(images, dict(zip(names, acts)), dict(zip(names, grads)),
                        logits, T.softmax(logits), c)


def input_gradient(model: Model, trace: ForwardTrace) -> np.ndarray:
    """The [C,H,W] probability gradient dY^c/dI of an image's `trace`: its
    seed y * (e_c - y_c) walked back through the trace's own activations to
    the input, for the layer scorer's saliency map."""
    _, e_c = _class_seed(model, trace.class_index)
    _, g = _backward(model, trace.image, list(trace.activations.values()),
                     T.softmax_grad(e_c, trace.probabilities), to_input=True)
    return g[0]


def trace_perturbations(model: Model, rows: np.ndarray,
                        class_index: int) -> ForwardTrace:
    """Run a [B,C,H,W] block of perturbation rows forward and walk each
    row's probability seed y * (e_c - y_c) back to the blocks, for the
    image's class c. Every matmul is per row, so a row's values do not
    depend on the other rows, nor on how the perturbations are split into
    blocks."""
    c, e_c = _class_seed(model, class_index)
    rows = check_images(model, rows, ndims=(4,))
    acts, logits = _run(model, rows, model.spec.blocks)
    probs = T.softmax(logits)
    grads, _ = _backward(model, rows, acts, T.softmax_grad(e_c, probs),
                         to_input=False)
    names = model.spec.scoring_points
    return ForwardTrace(rows, dict(zip(names, acts)), dict(zip(names, grads)),
                        logits, probs, c)


# ---------------------------------------------------------------------------
# ICAMW001 weight file format
#
#   8-byte magic "ICAMW001"
#   u64 little-endian header length
#   UTF-8 JSON header: tensor name -> {"shape": [...], "offset": n, "nbytes": n}
#     plus one reserved "__meta__" entry carrying the architecture
#   little-endian float32 payload: the tensors sorted by name, back to back
# ---------------------------------------------------------------------------

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
    names = [b.name for b in blocks]
    if not all(type(n) is str and n for n in names):
        raise ModelFormatError(f"bad __meta__ entry: block names {names!r} "
                               f"must be non-empty strings")
    if not blocks or len(set(names)) < len(blocks):
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


def _layout(shapes) -> dict:
    """Tensor name -> its header entry, as the file packs it: sorted by
    name, float32, back to back from payload offset 0."""
    layout, offset = {}, 0
    for name, shape in sorted(shapes.items()):
        nbytes = 4 * math.prod(shape)
        layout[name] = {"shape": list(shape), "offset": offset, "nbytes": nbytes}
        offset += nbytes
    return layout


def save_model(model: Model, path) -> None:
    arrays = {name: np.ascontiguousarray(w, dtype="<f4")
              for name, w in model.weights.items()}
    layout = _layout({name: a.shape for name, a in arrays.items()})
    header = {_META_KEY: asdict(model.spec), **layout}
    hdr = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(len(hdr).to_bytes(8, "little"))
        f.write(hdr)
        for name in layout:
            f.write(arrays[name].tobytes())


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
    except ValueError as exc:   # also an integer past the conversion limit
        raise ModelFormatError(f"bad header JSON: {exc}") from exc
    if not isinstance(header, dict) or _META_KEY not in header:
        raise ModelFormatError("bad header: missing __meta__ entry")
    spec = _meta_to_spec(header.pop(_META_KEY))

    # the entries save_model writes for __meta__; == alone takes 20.0 or true
    layout = _layout(spec.weight_shapes())
    for name in sorted(header.keys() | layout.keys()):
        got, want = header.get(name), layout.get(name)
        if got != want or not all(type(v) is int for v in (
                got["offset"], got["nbytes"], *got["shape"])):
            raise ModelFormatError(f"bad header: tensor {name!r} is {got}, "
                                   f"but __meta__ implies {want}")
    body = blob[16 + hlen:]
    weights = {}
    for name, entry in layout.items():
        off, nbytes = entry["offset"], entry["nbytes"]
        if off + nbytes > len(body):
            raise ModelFormatError(
                f"truncated payload: tensor {name!r} at offset {off} "
                f"({nbytes} bytes) extends past end of file")
        raw = np.frombuffer(body, dtype="<f4", count=nbytes // 4, offset=off)
        if not np.isfinite(raw).all():
            raise ModelFormatError(f"tensor {name!r} holds NaN or infinite "
                                   f"values")
        weights[name] = raw.astype(np.float64).reshape(entry["shape"])
    return Model(spec, weights)
