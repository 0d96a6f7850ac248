import numpy as np
import pytest

from icam import render
from icam.render import (ImageFormatError, bilinear_resize, colormap,
                         normalize_minmax, overlay, read_pgm, read_ppm,
                         write_pgm, write_ppm)
from oracles import four_corner_bilinear, naive_bilinear_resize


class TestNetpbmIo:
    def test_ppm_round_trip(self, tmp_path):
        img = np.random.default_rng(0).integers(0, 256, size=(7, 5, 3),
                                                dtype=np.uint8)
        p = tmp_path / "x.ppm"
        write_ppm(img, p)
        assert np.array_equal(read_ppm(p), img)

    def test_pgm_round_trip(self, tmp_path):
        img = np.random.default_rng(1).integers(0, 256, size=(4, 9),
                                                dtype=np.uint8)
        p = tmp_path / "x.pgm"
        write_pgm(img, p)
        assert np.array_equal(read_pgm(p), img)

    def test_write_is_deterministic_bytes(self, tmp_path):
        img = np.random.default_rng(2).integers(0, 256, size=(6, 6, 3),
                                                dtype=np.uint8)
        p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        write_ppm(img, p1)
        write_ppm(img, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_layout(self, tmp_path):
        p = tmp_path / "x.pgm"
        write_pgm(np.zeros((2, 3), dtype=np.uint8), p)
        assert p.read_bytes() == b"P5 3 2 255\n" + b"\x00" * 6

    def test_multi_whitespace_header_accepted(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P5\n3\n 2\t255\n" + bytes(range(6)))
        img = read_pgm(p)
        assert img.shape == (2, 3)
        assert img[1, 2] == 5

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "x.ppm"
        p.write_bytes(b"P3 2 2 255\n" + b"\x00" * 12)
        with pytest.raises(ImageFormatError, match="wrong magic"):
            read_ppm(p)

    @pytest.mark.parametrize("sep", [b"\r", b"\x0b", b"\x0c"])
    def test_magic_followed_by_any_whitespace(self, tmp_path, sep):
        # any whitespace may follow the magic, as between the other fields
        p = tmp_path / "x.ppm"
        p.write_bytes(b"P6" + sep + b"2 1\n255\n" + bytes(range(6)))
        assert read_ppm(p).tolist() == [[[0, 1, 2], [3, 4, 5]]]

    def test_pgm_magic_rejected_as_ppm(self, tmp_path):
        p = tmp_path / "x.pgm"
        write_pgm(np.zeros((2, 2), dtype=np.uint8), p)
        with pytest.raises(ImageFormatError, match="wrong magic"):
            read_ppm(p)

    def test_bad_maxval(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P5 2 2 65535\n" + b"\x00" * 8)
        with pytest.raises(ImageFormatError, match="maxval"):
            read_pgm(p)

    def test_truncated_pixel_data(self, tmp_path):
        p = tmp_path / "x.ppm"
        write_ppm(np.zeros((4, 4, 3), dtype=np.uint8), p)
        p.write_bytes(p.read_bytes()[:-5])
        with pytest.raises(ImageFormatError, match="truncated pixel data"):
            read_ppm(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P5 3")
        with pytest.raises(ImageFormatError, match="truncated header"):
            read_pgm(p)

    def test_non_numeric_header(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P5 three 2 255\n" + b"\x00" * 6)
        with pytest.raises(ImageFormatError, match="non-numeric"):
            read_pgm(p)

    @pytest.mark.parametrize("fields", [
        b"3_2 +32 2_55", b"3_2 32 255", b"32 +32 255", b"32 32 2_55",
        b"-2 2 255", b"2 -2 255", b"\xd9\xa3 32 255"])
    def test_header_fields_must_be_ascii_digits(self, tmp_path, fields):
        # int() would read "3_2" and "+32" as 32, and "-2" as a size
        p = tmp_path / "x.ppm"
        p.write_bytes(b"P6 " + fields + b"\n" + b"\x00" * 3072)
        with pytest.raises(ImageFormatError, match="non-numeric header field"):
            read_ppm(p)

    @pytest.mark.parametrize("size", [b"0 0", b"0 3"])
    def test_non_positive_size_rejected(self, tmp_path, size):
        p = tmp_path / "x.ppm"
        p.write_bytes(b"P6 " + size + b" 255\n" + b"\x00" * 12)
        with pytest.raises(ImageFormatError, match="bad size"):
            read_ppm(p)

    def test_no_whitespace_after_maxval(self, tmp_path):
        # the header may end the file; then the pixel data is missing
        p = tmp_path / "x.ppm"
        p.write_bytes(b"P6 1 1 255")
        with pytest.raises(ImageFormatError, match="truncated pixel data"):
            read_ppm(p)

    def test_write_shape_validation(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(np.zeros((4, 4), dtype=np.uint8), tmp_path / "a.ppm")
        with pytest.raises(ValueError):
            write_pgm(np.zeros((4, 4, 3), dtype=np.uint8), tmp_path / "a.pgm")


class TestNormalizeMinmax:
    def test_example(self):
        out = normalize_minmax(np.array([[2.0, 4.0], [6.0, 10.0]]))
        assert np.array_equal(out, [[0.0, 0.25], [0.5, 1.0]])

    def test_constant_collapses_to_zeros(self):
        assert np.array_equal(normalize_minmax(np.full((3, 3), 7.0)),
                              np.zeros((3, 3)))

    def test_idempotent(self):
        h = np.random.default_rng(3).random((6, 6))
        once = normalize_minmax(h)
        assert np.max(np.abs(normalize_minmax(once) - once)) < 1e-15

    def test_output_range(self):
        h = np.random.default_rng(4).normal(size=(5, 5))
        out = normalize_minmax(h)
        assert out.min() == 0.0 and out.max() == 1.0


class TestBilinearResize:
    def test_same_size_is_identity(self):
        h = np.random.default_rng(5).random((6, 7))
        assert np.max(np.abs(bilinear_resize(h, 6, 7) - h)) < 1e-15

    def test_same_size_returns_input_bitwise(self):
        h = np.random.default_rng(5).random((4, 2, 6, 7)) * 1e3
        assert bilinear_resize(h, 6, 7).tobytes() == h.tobytes()

    def test_one_by_one_input_broadcasts(self):
        out = bilinear_resize(np.array([[3.5]]), 4, 5)
        assert np.array_equal(out, np.full((4, 5), 3.5))

    def test_two_by_two_to_four_by_four_hand_table(self):
        # half-pixel centers sample the source axis at [0, 0.25, 0.75, 1]
        src = np.array([[0.0, 1.0], [2.0, 3.0]])
        expected = np.array([
            [0.0, 0.25, 0.75, 1.0],
            [0.5, 0.75, 1.25, 1.5],
            [1.5, 1.75, 2.25, 2.5],
            [2.0, 2.25, 2.75, 3.0],
        ])
        assert np.max(np.abs(bilinear_resize(src, 4, 4) - expected)) < 1e-15

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        for in_hw, out_hw in [((3, 5), (7, 4)), ((8, 8), (3, 3)),
                              ((2, 9), (9, 2))]:
            src = rng.random(in_hw)
            got = bilinear_resize(src, *out_hw)
            ref = naive_bilinear_resize(src, *out_hw)
            assert np.max(np.abs(got - ref)) < 1e-12

    def test_leading_axes_resize_slice_by_slice(self):
        src = np.random.default_rng(10).random((2, 3, 5, 4))
        got = bilinear_resize(src, 9, 7)
        assert got.shape == (2, 3, 9, 7)
        for idx in np.ndindex(2, 3):
            ref = naive_bilinear_resize(src[idx], 9, 7)
            assert np.max(np.abs(got[idx] - ref)) < 1e-12
            assert np.array_equal(got[idx], bilinear_resize(src[idx], 9, 7))

    @pytest.mark.parametrize("in_shape, out_hw", [
        ((16, 16), (32, 32)),          # integer upscale
        ((8, 16, 16), (32, 32)),       # a leading batch axis
        ((32, 32), (8, 8)),            # integer downscale
        ((7, 5), (3, 11)),             # non-integer ratios, both ways
        ((5, 9), (13, 4)),
        ((1, 9), (4, 6)),              # 1xN
        ((9, 1), (5, 13)),             # Nx1
        ((1, 1), (3, 2)),
        ((2, 3, 6, 7), (13, 5)),       # two leading axes
        ((5, 5), (5, 9)),              # one axis already at size
    ])
    def test_bitwise_equal_to_four_corner_form(self, in_shape, out_hw):
        src = np.random.default_rng(11).normal(size=in_shape) * 1e3
        got = bilinear_resize(src, *out_hw)
        ref = four_corner_bilinear(src, *out_hw)
        assert got.shape == ref.shape == (*in_shape[:-2], *out_hw)
        assert got.tobytes() == ref.tobytes()

    def test_range_preserved(self):
        src = np.random.default_rng(7).random((4, 4))
        out = bilinear_resize(src, 16, 16)
        assert out.min() >= src.min() - 1e-12
        assert out.max() <= src.max() + 1e-12

    def test_constant_preserved(self):
        out = bilinear_resize(np.full((3, 3), 0.4), 10, 10)
        assert np.max(np.abs(out - 0.4)) < 1e-15

    def test_bad_extents(self):
        with pytest.raises(ValueError):
            bilinear_resize(np.ones((2, 2)), 0, 4)


class TestColormap:
    def test_anchor_values(self):
        h = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        out = colormap(h)
        assert np.max(np.abs(out - render.COLORMAP_ANCHORS)) < 1e-12

    def test_midpoint_between_anchors(self):
        out = colormap(np.array([0.125]))  # halfway blue -> cyan
        assert np.max(np.abs(out[0] - [0.0, 127.5, 255.0])) < 1e-12

    def test_clips_out_of_range(self):
        out = colormap(np.array([-0.5, 1.5]))
        assert np.array_equal(out[0], [0, 0, 255])
        assert np.array_equal(out[1], [255, 0, 0])


class TestOverlay:
    def test_blend_zero_returns_image(self):
        img = np.random.default_rng(8).integers(0, 256, size=(4, 4, 3),
                                                dtype=np.uint8)
        h = np.random.default_rng(9).random((4, 4))
        assert np.array_equal(overlay(img, h, 0.0), img)

    def test_blend_one_is_pure_colormap(self):
        img = np.zeros((2, 2, 3), dtype=np.uint8)
        h = np.array([[0.0, 1.0], [0.5, 0.25]])
        out = overlay(img, h, 1.0)
        ref = np.clip(np.rint(colormap(h)), 0, 255).astype(np.uint8)
        assert np.array_equal(out, ref)

    def test_half_blend_hand_value(self):
        img = np.full((1, 1, 3), 100, dtype=np.uint8)
        out = overlay(img, np.array([[1.0]]), 0.5)  # red anchor
        assert np.array_equal(out[0, 0], [round(0.5 * 100 + 0.5 * 255),
                                          50, 50])

    def test_validation(self):
        img = np.zeros((2, 2, 3), dtype=np.uint8)
        with pytest.raises(ValueError):
            overlay(img, np.zeros((3, 3)), 0.5)
        with pytest.raises(ValueError):
            overlay(img, np.zeros((2, 2)), 1.5)

    @pytest.mark.parametrize("blend, ok", [
        (0.0, True), (1.0, True), (-0.1, False), (1.5, False),
        (float("nan"), False)])
    def test_check_blend_is_overlays_range(self, blend, ok):
        img = np.zeros((1, 1, 3), dtype=np.uint8)
        for check in (render.check_blend,
                      lambda b: overlay(img, np.zeros((1, 1)), b)):
            if ok:
                check(blend)
            else:
                with pytest.raises(ValueError, match=r"^blend must be in "
                                   rf"\[0,1\], got {blend}$"):
                    check(blend)
