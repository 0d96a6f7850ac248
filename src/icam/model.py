"""Toy CNN definition, forward/backward tracing, and weight file I/O.

The model is a fixed-topology stack of conv+relu blocks followed by one
global average pool and one linear head. Each post-relu block output is a
named "scoring point": the place where activations and gradients are
captured for layer scoring and CAM computation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .prng import SplitMix64

MAGIC = b"ICAMW001"
_META_KEY = "__meta__"


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
    """One forward + backward pass at every scoring point.

    Gradients are of the selected scalar: the logit S^c when
    scalar_kind == "logit", the softmax probability Y^c when
    scalar_kind == "probability". Only probability traces carry an
    input gradient; it is None on logit traces.
    """

    image: np.ndarray                 # [C,H,W] input
    activations: dict                 # scoring point -> [C_l,H_l,W_l]
    gradients: dict                   # scoring point -> same shape
    logits: np.ndarray                # [C_cls]
    probabilities: np.ndarray         # [C_cls]
    input_gradient: np.ndarray        # matches image, or None
    class_index: int
    scalar_kind: str                  # "logit" | "probability"


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


def _as_images(model: Model, image) -> np.ndarray:
    """Validate one [C,H,W] image or an [N,C,H,W] batch at the boundary."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim not in (3, 4) or image.shape[-3:] != model.spec.input_shape:
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
    return _run(model, _as_images(model, image), model.spec.blocks)[1]


def forward_trace(model: Model, image: np.ndarray, class_index=None,
                  scalar_kind: str = "probability"):
    """Run the model and fill gradients at every scoring point.

    A [C,H,W] image gives one ForwardTrace; an [N,C,H,W] batch gives a list
    of N, one per row, each equal to the single-image call on that row.
    class_index defaults to each row's argmax logit (ties break to the
    lowest index). The backward pass walks the blocks in reverse from the
    seed dScalar/dLogits: e_c for "logit", y * (e_c - y_c) for
    "probability". Logit traces stop at the first block's output;
    probability traces continue to the input.
    """
    images = _as_images(model, image)
    if scalar_kind not in ("logit", "probability"):
        raise ValueError(f"unknown scalar_kind {scalar_kind!r}")
    batch = images.reshape(-1, *model.spec.input_shape)
    blocks = model.spec.blocks
    acts, logits = _run(model, batch, blocks)
    probs = T.softmax(logits)

    if class_index is None:
        classes = np.argmax(logits, axis=-1)
    else:
        c = int(class_index)
        if not 0 <= c < model.spec.num_classes:
            raise IndexError(f"class_index {c} out of range "
                             f"[0, {model.spec.num_classes})")
        classes = np.full(len(batch), c)
    g = np.zeros_like(logits)
    g[np.arange(len(batch)), classes] = 1.0
    if scalar_kind == "probability":
        g = T.softmax_grad(g, probs)
    g = T.global_avg_pool_grad(T.linear_grad(g, model.weights["head.weight"]),
                               acts[-1].shape[-2:])
    inputs = [batch] + acts[:-1]
    grads = [None] * len(blocks)
    for i in reversed(range(len(blocks))):
        grads[i] = g
        if i == 0 and scalar_kind == "logit":
            break
        g = T.conv2d_input_grad(T.relu_grad(g, acts[i]),
                                model.weights[f"{blocks[i].name}.weight"],
                                inputs[i].shape[-2:], stride=blocks[i].stride,
                                padding=blocks[i].padding)
    input_gradient = g if scalar_kind == "probability" else None

    names = model.spec.scoring_points
    traces = [ForwardTrace(
        image=batch[r],
        activations={n: a[r] for n, a in zip(names, acts)},
        gradients={n: d[r] for n, d in zip(names, grads)},
        logits=logits[r],
        probabilities=probs[r],
        input_gradient=None if input_gradient is None else input_gradient[r],
        class_index=int(classes[r]),
        scalar_kind=scalar_kind,
    ) for r in range(len(batch))]
    return traces[0] if images.ndim == 3 else traces


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
        return ModelSpec(tuple(meta["input_shape"]), blocks, meta["num_classes"])
    except (KeyError, TypeError) as exc:
        raise ModelFormatError(f"bad __meta__ entry: {exc}") from exc


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
    if _META_KEY not in header:
        raise ModelFormatError("bad header: missing __meta__ entry")
    spec = _meta_to_spec(header.pop(_META_KEY))

    body = blob[16 + hlen:]
    weights = {}
    for name, entry in header.items():
        try:
            shape = tuple(entry["shape"])
            off, nbytes = int(entry["offset"]), int(entry["nbytes"])
        except (KeyError, TypeError) as exc:
            raise ModelFormatError(f"bad entry for tensor {name!r}: {exc}") from exc
        if nbytes != 4 * int(np.prod(shape, dtype=np.int64)):
            raise ModelFormatError(
                f"shape/offset inconsistency: tensor {name!r} shape {shape} "
                f"does not match nbytes {nbytes}")
        if off < 0 or off + nbytes > len(body):
            raise ModelFormatError(
                f"truncated payload: tensor {name!r} at offset {off} "
                f"({nbytes} bytes) extends past end of file")
        weights[name] = np.frombuffer(
            body, dtype="<f4", count=nbytes // 4, offset=off
        ).astype(np.float64).reshape(shape)

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
