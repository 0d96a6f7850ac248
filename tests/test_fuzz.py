"""Seeded corruption fuzzing of the ICAMW001 and PPM/PGM parsers.

Every corrupted file must either load into a usable value or raise the
parser's named error (ModelFormatError / ImageFormatError); any other
exception is a parser bug.
"""

import re

import numpy as np
import pytest

from icam.model import ModelFormatError, forward, load_model, save_model
from icam.render import (ImageFormatError, read_pgm, read_ppm, write_pgm,
                         write_ppm)

TRIALS = 300
# bytes that keep a text header parseable while changing its values
SYNTAX = b"0123456789-+.,: []{}\"\n"


def corruptions(blob, header_len, seed):
    """Truncations and 1-3 byte changes, biased towards the header.

    A changed byte sits on a header digit, elsewhere in the header or
    anywhere, and is either XORed with a random value or replaced by one
    of SYNTAX, so that header numbers turn zero, negative or fractional
    more often than random flips alone would make them.
    """
    rng = np.random.default_rng(seed)
    digits = [i for i in range(header_len) if blob[i:i + 1].isdigit()]
    for _ in range(TRIALS):
        out = bytearray(blob)
        if rng.random() < 0.2:
            yield bytes(out[:rng.integers(0, len(out))])
            continue
        for _ in range(rng.integers(1, 4)):
            where = rng.random()
            pos = (digits[rng.integers(0, len(digits))] if where < 0.4
                   else rng.integers(0, header_len if where < 0.8
                                     else len(out)))
            if rng.random() < 0.5:
                out[pos] ^= int(rng.integers(1, 256))
            else:
                out[pos] = SYNTAX[rng.integers(0, len(SYNTAX))]
        yield bytes(out)


@pytest.mark.parametrize("seed", [0, 1])
def test_weight_file_corruption(tmp_path, fixture_model, seed):
    p = tmp_path / "m.icamw"
    save_model(fixture_model, p)
    blob = p.read_bytes()
    header_len = 16 + int.from_bytes(blob[8:16], "little")
    loaded = rejected = 0
    for bad in corruptions(blob, header_len, seed):
        p.write_bytes(bad)
        try:
            _load_and_run(p)
        except ModelFormatError:
            rejected += 1
            continue
        loaded += 1
    assert loaded and rejected   # the corpus exercises both outcomes


def _load_and_run(path):
    """Load a weight file; if it loads, it must also run."""
    model = load_model(path)
    logits = forward(model, np.zeros(model.spec.input_shape))
    assert logits.shape == (model.spec.num_classes,)


def test_weight_header_number_edits(tmp_path, fixture_model):
    """Every number in the JSON header set to 0, -1 and 1.5 in turn.

    Random flips rarely land on the few __meta__ numbers, so this walks
    all of them; the length field is rewritten to keep the header whole.
    """
    p = tmp_path / "m.icamw"
    save_model(fixture_model, p)
    blob = p.read_bytes()
    hlen = int.from_bytes(blob[8:16], "little")
    header, body = blob[16:16 + hlen], blob[16 + hlen:]
    for m in re.finditer(rb"\d+", header):
        for value in (b"0", b"-1", b"1.5"):
            edited = header[:m.start()] + value + header[m.end():]
            p.write_bytes(blob[:8] + len(edited).to_bytes(8, "little")
                          + edited + body)
            try:
                _load_and_run(p)
            except ModelFormatError:
                pass


@pytest.mark.parametrize("kind", ["ppm", "pgm"])
def test_netpbm_corruption(tmp_path, kind):
    rng = np.random.default_rng(3)
    p = tmp_path / f"x.{kind}"
    if kind == "ppm":
        write_ppm(rng.integers(0, 256, (4, 5, 3), dtype=np.uint8), p)
        read, channels = read_ppm, (3,)
    else:
        write_pgm(rng.integers(0, 256, (4, 5), dtype=np.uint8), p)
        read, channels = read_pgm, ()
    blob = p.read_bytes()
    header_len = blob.index(b"255") + 4
    # random corruptions, then every header number set to edge values
    cases = list(corruptions(blob, header_len, seed=4))
    cases += [blob[:m.start()] + value + blob[m.end():]
              for m in re.compile(rb"\d+").finditer(blob, 2, header_len)
              for value in (b"0", b"-2", b"1.5", b"99")]
    loaded = rejected = 0
    for bad in cases:
        p.write_bytes(bad)
        try:
            img = read(p)
        except ImageFormatError:
            rejected += 1
            continue
        loaded += 1
        assert img.dtype == np.uint8 and img.ndim == 2 + len(channels)
        assert img.shape[2:] == channels and min(img.shape[:2]) >= 1
    assert loaded and rejected
