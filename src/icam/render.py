"""Image I/O (binary PPM/PGM), heatmap normalization, resizing, overlays.

Only the binary P6/P5 variants with maxval 255 are supported; they are
trivially byte-exact which keeps golden-file tests portable.
"""

from __future__ import annotations

import re

import numpy as np


class ImageFormatError(ValueError):
    """A PPM/PGM file failed to parse; the message names the problem."""


# Jet-like colormap anchors at t = 0, 0.25, 0.5, 0.75, 1.
COLORMAP_ANCHORS = np.array([
    [0, 0, 255],      # blue
    [0, 255, 255],    # cyan
    [0, 255, 0],      # green
    [255, 255, 0],    # yellow
    [255, 0, 0],      # red
], dtype=np.float64)


# after the magic: width, height and maxval, each after a run of
# whitespace, then one whitespace byte before the pixel data (none at the
# end of the file). A bytes pattern's \s is the set bytes.isspace() accepts.
_HEADER = re.compile(rb"\s+(\S+)\s+(\S+)\s+(\S+)\s?")


def _read_netpbm(path, magic, channels):
    with open(path, "rb") as f:
        blob = f.read()
    try:
        return _parse_netpbm(blob, magic, channels)
    except ImageFormatError as exc:
        raise ImageFormatError(f"{path}: {exc}") from None


def _parse_netpbm(blob, magic, channels):
    if not (blob.startswith(magic) and blob[len(magic):len(magic) + 1].isspace()):
        raise ImageFormatError(
            f"wrong magic: expected {magic.decode()}, got {blob[:2]!r}")
    header = _HEADER.match(blob, len(magic))
    if header is None:
        raise ImageFormatError("truncated header")
    for field in header.groups():
        if not field.isdigit():   # bytes.isdigit() is ASCII 0-9 only
            raise ImageFormatError(f"non-numeric header field {field!r}: "
                                   f"must be ASCII decimal digits")
    try:
        width, height, maxval = map(int, header.groups())
    except ValueError as exc:   # past Python's integer string-conversion limit
        raise ImageFormatError(f"bad header field: {exc}") from None
    pos = header.end()
    if maxval != 255:
        raise ImageFormatError(f"unsupported maxval {maxval} (must be 255)")
    if width < 1 or height < 1:
        raise ImageFormatError(f"bad size {width}x{height} (must be >= 1x1)")
    need = width * height * channels
    data = blob[pos:pos + need]
    if len(data) < need:
        raise ImageFormatError(
            f"truncated pixel data: expected {need} bytes, got {len(data)}")
    arr = np.frombuffer(data, dtype=np.uint8)
    if channels == 1:
        return arr.reshape(height, width).copy()
    return arr.reshape(height, width, channels).copy()


def read_ppm(path) -> np.ndarray:
    """Binary P6 -> uint8 array [H,W,3]."""
    return _read_netpbm(path, b"P6", 3)


def read_pgm(path) -> np.ndarray:
    """Binary P5 -> uint8 array [H,W]."""
    return _read_netpbm(path, b"P5", 1)


def write_ppm(image: np.ndarray, path) -> None:
    image = np.asarray(image, dtype=np.uint8)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"expected [H,W,3] image, got shape {image.shape}")
    h, w, _ = image.shape
    with open(path, "wb") as f:
        f.write(b"P6 %d %d 255\n" % (w, h))
        f.write(image.tobytes())


def write_pgm(image: np.ndarray, path) -> None:
    image = np.asarray(image, dtype=np.uint8)
    if image.ndim != 2:
        raise ValueError(f"expected [H,W] image, got shape {image.shape}")
    h, w = image.shape
    with open(path, "wb") as f:
        f.write(b"P5 %d %d 255\n" % (w, h))
        f.write(image.tobytes())


def normalize_minmax(h: np.ndarray) -> np.ndarray:
    """(h - min) / (max - min); constant maps collapse to all zeros."""
    h = np.asarray(h, dtype=np.float64)
    lo, hi = h.min(), h.max()
    if hi == lo:
        return np.zeros_like(h)
    return (h - lo) / (hi - lo)


def bilinear_resize(h: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Half-pixel-centered bilinear interpolation with edge clamping.

    Resizes the last two axes; any leading axes are a batch. A map that
    already has the output size is returned as it is.
    """
    h = np.asarray(h, dtype=np.float64)
    in_h, in_w = h.shape[-2:]
    if out_h < 1 or out_w < 1:
        raise ValueError("output extents must be >= 1")
    if (in_h, in_w) == (out_h, out_w):
        return h
    ys = (np.arange(out_h) + 0.5) * in_h / out_h - 0.5
    xs = (np.arange(out_w) + 0.5) * in_w / out_w - 0.5
    ys = np.clip(ys, 0.0, in_h - 1.0)
    xs = np.clip(xs, 0.0, in_w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = (ys - y0)[:, None]
    wx = xs - x0
    # along x on every input row, then along y between two of those rows
    rows = h[..., x0] * (1 - wx) + h[..., x1] * wx
    return rows[..., y0, :] * (1 - wy) + rows[..., y1, :] * wy


def colormap(h: np.ndarray) -> np.ndarray:
    """Map values in [0,1] to RGB float64 via the jet-like anchor ramp."""
    h = np.clip(np.asarray(h, dtype=np.float64), 0.0, 1.0)
    n = len(COLORMAP_ANCHORS) - 1
    t = h * n
    idx = np.minimum(t.astype(int), n - 1)
    frac = t - idx
    lo = COLORMAP_ANCHORS[idx]
    hi = COLORMAP_ANCHORS[idx + 1]
    return lo + (hi - lo) * frac[..., None]


def check_blend(blend: float):
    if not 0.0 <= blend <= 1.0:
        raise ValueError(f"blend must be in [0,1], got {blend}")


def overlay(image: np.ndarray, heatmap: np.ndarray, blend: float) -> np.ndarray:
    """Blend a normalized heatmap rendering over an RGB image.

    out = (1 - blend) * image + blend * colormap(heatmap), rounded to uint8.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.shape[:2] != heatmap.shape:
        raise ValueError(
            f"resolution mismatch: image {image.shape[:2]} vs heatmap {heatmap.shape}")
    check_blend(blend)
    out = (1.0 - blend) * image + blend * colormap(heatmap)
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)
