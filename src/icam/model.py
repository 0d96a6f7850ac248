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


@dataclass
class Model:
    spec: ModelSpec
    weights: dict = field(default_factory=dict)  # name -> float64 ndarray

    def weight_names(self):
        names = []
        for b in self.spec.blocks:
            names += [f"{b.name}.weight", f"{b.name}.bias"]
        names += ["head.weight", "head.bias"]
        return names


@dataclass
class ForwardTrace:
    """One forward + backward pass at every scoring point.

    Gradients are of the selected scalar: the logit S^c when
    scalar_kind == "logit", the softmax probability Y^c when
    scalar_kind == "probability".
    """

    image: np.ndarray                 # [C,H,W] input
    activations: dict                 # scoring point -> [C_l,H_l,W_l]
    gradients: dict                   # scoring point -> same shape
    logits: np.ndarray                # [C_cls]
    probabilities: np.ndarray         # [C_cls]
    input_gradient: np.ndarray        # matches image
    class_index: int
    scalar_kind: str                  # "logit" | "probability"


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

    def draw(shape, fan_in):
        scale = np.sqrt(2.0 / fan_in)
        return (scale * rng.gaussian_array(int(np.prod(shape)))).reshape(shape)

    weights = {}
    cin = spec.input_shape[0]
    for b in spec.blocks:
        fan_in = cin * b.kernel_size * b.kernel_size
        weights[f"{b.name}.weight"] = draw(
            (b.out_channels, cin, b.kernel_size, b.kernel_size), fan_in)
        weights[f"{b.name}.bias"] = draw((b.out_channels,), fan_in)
        cin = b.out_channels
    weights["head.weight"] = draw((spec.num_classes, cin), cin)
    weights["head.bias"] = draw((spec.num_classes,), cin)
    return Model(spec, weights)


def forward_trace(model: Model, image: np.ndarray, class_index=None,
                  scalar_kind: str = "probability") -> ForwardTrace:
    """Run the model and fill gradients at every scoring point.

    class_index defaults to the argmax logit (ties break to the lowest
    index). Activations are captured before the backward pass.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.shape != model.spec.input_shape:
        raise T.ShapeError(
            f"image shape {image.shape} != model input {model.spec.input_shape}")
    if scalar_kind not in ("logit", "probability"):
        raise ValueError(f"unknown scalar_kind {scalar_kind!r}")

    tape = T.Tape()
    x = tape.leaf(image)
    inp = x
    acts = {}
    for b in model.spec.blocks:
        k = tape.leaf(model.weights[f"{b.name}.weight"])
        bias = tape.leaf(model.weights[f"{b.name}.bias"])
        x = T.relu(T.conv2d(x, k, bias, stride=b.stride, padding=b.padding))
        acts[b.name] = x
    pooled = T.global_avg_pool(x)
    logits = T.linear(pooled, tape.leaf(model.weights["head.weight"]),
                      tape.leaf(model.weights["head.bias"]))
    probs = T.softmax(logits)

    if class_index is None:
        c = int(np.argmax(logits.data))
    else:
        c = int(class_index)
        if not 0 <= c < model.spec.num_classes:
            raise IndexError(f"class_index {c} out of range "
                             f"[0, {model.spec.num_classes})")

    scalar = T.pick(logits if scalar_kind == "logit" else probs, c)
    targets = [inp] + [acts[name] for name in model.spec.scoring_points]
    grads = T.backward(scalar, targets)

    return ForwardTrace(
        image=image,
        activations={n: acts[n].data for n in model.spec.scoring_points},
        gradients=dict(zip(model.spec.scoring_points, grads[1:])),
        logits=logits.data,
        probabilities=probs.data,
        input_gradient=grads[0],
        class_index=c,
        scalar_kind=scalar_kind,
    )


def forward_from(model: Model, layer: str, activation: np.ndarray) -> np.ndarray:
    """Plain-numpy forward from a scoring point's activation to the logits.

    Used by finite-difference oracles that nudge single activation entries.
    """
    names = model.spec.scoring_points
    if layer not in names:
        raise KeyError(f"unknown scoring point {layer!r}")
    x = np.asarray(activation, dtype=np.float64)
    start = names.index(layer) + 1
    for b in model.spec.blocks[start:]:
        x = T.relu_raw(T.conv2d_raw(x, model.weights[f"{b.name}.weight"],
                                    model.weights[f"{b.name}.bias"],
                                    stride=b.stride, padding=b.padding))
    pooled = T.global_avg_pool_raw(x)
    return T.linear_raw(pooled, model.weights["head.weight"],
                        model.weights["head.bias"])


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

    model = Model(spec, weights)
    missing = [n for n in model.weight_names() if n not in weights]
    if missing:
        raise ModelFormatError(f"bad header: missing tensors {missing}")
    return model
