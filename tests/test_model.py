import numpy as np
import pytest

from icam.model import (Model, ModelFormatError, NonFiniteImageError,
                        build_fixture_model, forward, forward_from,
                        forward_trace, load_model, save_model)
from icam.tensor import ShapeError
from oracles import central_diff_grad


class TestFixture:
    def test_same_seed_bit_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.icamw", tmp_path / "b.icamw"
        save_model(build_fixture_model(7), p1)
        save_model(build_fixture_model(7), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        p1, p2 = tmp_path / "a.icamw", tmp_path / "b.icamw"
        save_model(build_fixture_model(7), p1)
        save_model(build_fixture_model(8), p2)
        assert p1.read_bytes() != p2.read_bytes()

    def test_block_shapes(self, fixture_model):
        assert fixture_model.spec.block_shapes() == [
            (8, 32, 32), (16, 16, 16), (16, 16, 16)]
        assert fixture_model.spec.scoring_points == ("block1", "block2", "block3")

    def test_probabilities_sum_to_one(self, fixture_model):
        img = np.random.default_rng(0).random((3, 32, 32))
        tr = forward_trace(fixture_model, img)
        assert tr.probabilities.shape == (1, 5)
        assert abs(tr.probabilities[0].sum() - 1.0) < 1e-12


class TestForwardTrace:
    def test_zero_image(self, fixture_model):
        tr = forward_trace(fixture_model, np.zeros((3, 32, 32)))
        assert abs(tr.probabilities.sum() - 1.0) < 1e-12
        assert np.allclose(tr.probabilities,
                           np.exp(tr.logits) / np.exp(tr.logits).sum())

    def test_gap_linear_gradient_is_analytic(self, gap_linear_model):
        # gradient of a logit at the scoring point is head.weight[c,k]/(H*W)
        img = np.random.default_rng(1).random((4, 6, 6)) + 0.1
        tr = forward_trace(gap_linear_model, img, class_index=2)
        expected = gap_linear_model.weights["head.weight"][2] / 36.0
        g = tr.gradients["block1"][0]
        assert np.max(np.abs(g - expected[:, None, None])) < 1e-12

    def test_deterministic(self, fixture_model):
        rng = np.random.default_rng(2)
        imgs = rng.random((3, 3, 32, 32))
        t1 = forward_trace(fixture_model, imgs)
        t2 = forward_trace(fixture_model, imgs)
        assert np.array_equal(t1.input_gradient, t2.input_gradient)
        for name in t1.gradients:
            assert np.array_equal(t1.gradients[name], t2.gradients[name])
        assert t1.class_index == t2.class_index

    def test_class_is_row0_argmax(self, fixture_model):
        rng = np.random.default_rng(3)
        for _ in range(10):
            imgs = rng.random((3, 3, 32, 32))
            batch = forward_trace(fixture_model, imgs)
            lone = forward_trace(fixture_model, imgs[0])
            assert type(batch.class_index) is int
            assert batch.class_index == lone.class_index \
                == int(np.argmax(batch.logits[0])) \
                == int(np.argmax(batch.probabilities[0]))

    def test_class_index_out_of_range(self, fixture_model):
        with pytest.raises(IndexError):
            forward_trace(fixture_model, np.zeros((3, 32, 32)), class_index=5)

    def test_bad_image_shape(self, fixture_model):
        with pytest.raises(ShapeError):
            forward_trace(fixture_model, np.zeros((3, 16, 16)))

    def test_logit_and_probability_gradients_differ(self, fixture_model):
        # the same image as row 0 (logit seed) and row 1 (probability seed)
        img = np.random.default_rng(4).random((3, 32, 32))
        g = forward_trace(fixture_model, np.stack([img, img])).gradients
        assert not np.allclose(g["block3"][0], g["block3"][1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_image_rejected(self, fixture_model, bad):
        img = np.zeros((3, 32, 32))
        img[1, 5, 7] = bad
        with pytest.raises(NonFiniteImageError, match="non-finite"):
            forward_trace(fixture_model, img)
        with pytest.raises(NonFiniteImageError):
            forward_trace(fixture_model, np.stack([np.zeros_like(img), img]))
        with pytest.raises(NonFiniteImageError):
            forward(fixture_model, img)

    def test_logit_trace_has_no_input_gradient(self, fixture_model):
        img = np.random.default_rng(4).random((3, 32, 32))
        assert forward_trace(fixture_model, img).input_gradient is None
        assert forward_trace(fixture_model, img[None]).input_gradient.shape \
            == img.shape

    def test_forward_matches_trace_logits(self, fixture_model):
        imgs = np.random.default_rng(9).random((3, 3, 32, 32))
        assert np.array_equal(forward(fixture_model, imgs[0]),
                              forward_trace(fixture_model, imgs[0]).logits[0])
        for img, logits in zip(imgs, forward(fixture_model, imgs)):
            assert np.max(np.abs(logits - forward(fixture_model, img))) <= 1e-12


def _close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12


class TestBatchedTrace:
    """Row r of a trace equals that row in a smaller trace of the same image:
    row 0 (logit seed) against a lone image, rows 1..n (probability seed)
    against the two-row trace [image; row r]."""

    @pytest.mark.parametrize("part", ["logit", "probability"])
    @pytest.mark.parametrize("class_index", [None, 2])
    def test_rows_equal_single_image_calls(self, fixture_model, part,
                                           class_index):
        rng = np.random.default_rng(8)
        imgs = np.stack([rng.random((3, 32, 32)), np.zeros((3, 32, 32)),
                         3.0 * rng.random((3, 32, 32)) - 1.0,
                         rng.random((3, 32, 32))])
        batch = forward_trace(fixture_model, imgs, class_index=class_index)
        assert batch.logits.shape == (len(imgs), 5)
        if part == "logit":
            pairs = [(0, forward_trace(fixture_model, imgs[0],
                                       class_index=class_index), 0)]
            assert pairs[0][1].input_gradient is None
        else:
            pairs = [(r, forward_trace(fixture_model, imgs[[0, r]],
                                       class_index=class_index), 1)
                     for r in range(1, len(imgs))]
            pairs.append((0, forward_trace(fixture_model, imgs[:1],
                                           class_index=class_index), 0))
        for r, small, s in pairs:
            assert small.class_index == batch.class_index
            _close(batch.image[r], small.image[s])
            _close(batch.logits[r], small.logits[s])
            _close(batch.probabilities[r], small.probabilities[s])
            for n in small.activations:
                _close(batch.activations[n][r], small.activations[n][s])
                _close(batch.gradients[n][r], small.gradients[n][s])
            if part == "probability":
                _close(batch.input_gradient, small.input_gradient)


class TestEngineFiniteDifferences:
    """forward_trace gradients vs central differences through the real
    network: row 0's logit gradients at every scoring point ("logit"), and
    a perturbation row's probability gradients at every scoring point plus
    the image's input gradient ("probability")."""

    @pytest.mark.parametrize("part", ["logit", "probability"])
    def test_gradients_match_central_differences(self, fixture_model, part):
        model = fixture_model
        rng = np.random.default_rng(6)
        img, pert = rng.random((3, 32, 32)), rng.random((3, 32, 32))
        tr = forward_trace(model, np.stack([img, pert]))
        c = tr.class_index
        row = 0 if part == "logit" else 1

        def scalar(logits):
            if part == "logit":
                return float(logits[c])
            e = np.exp(logits - logits.max())
            return float(e[c] / e.sum())

        points = [(tr.activations[n][row], tr.gradients[n][row],
                   lambda a, n=n: scalar(forward_from(model, n, a)))
                  for n in model.spec.scoring_points]
        if part == "probability":
            points.append((img, tr.input_gradient,
                           lambda v: scalar(forward(model, v))))
        rng = np.random.default_rng(7)
        for x, g, f in points:
            # half the picks where the gradient is largest, half at random
            top = np.argsort(-np.abs(g).ravel())[:6]
            picks = np.concatenate([top, rng.choice(x.size, 6, replace=False)])
            for i, fd in central_diff_grad(f, x, picks, h=1e-5).items():
                assert abs(g.ravel()[i] - fd) <= 1e-4 * abs(fd) + 1e-9


class TestForwardFrom:
    def test_matches_full_forward(self, fixture_model):
        img = np.random.default_rng(5).random((3, 32, 32))
        tr = forward_trace(fixture_model, img)
        for layer in fixture_model.spec.scoring_points:
            logits = forward_from(fixture_model, layer,
                                  tr.activations[layer][0])
            assert np.max(np.abs(logits - tr.logits[0])) < 1e-12

    def test_unknown_layer(self, fixture_model):
        with pytest.raises(KeyError):
            forward_from(fixture_model, "nope", np.zeros((16, 16, 16)))


class TestWeightFile:
    def test_round_trip_byte_identical(self, tmp_path, fixture_model):
        p1, p2 = tmp_path / "a.icamw", tmp_path / "b.icamw"
        save_model(fixture_model, p1)
        loaded = load_model(p1)
        save_model(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_values(self, tmp_path, fixture_model):
        p = tmp_path / "m.icamw"
        save_model(fixture_model, p)
        loaded = load_model(p)
        assert loaded.spec == fixture_model.spec
        for name, arr in fixture_model.weights.items():
            assert loaded.weights[name].shape == arr.shape
            # values pass through float32 on disk
            assert np.array_equal(loaded.weights[name],
                                  arr.astype("<f4").astype(np.float64))

    def test_bad_magic(self, tmp_path, fixture_model):
        p = tmp_path / "m.icamw"
        save_model(fixture_model, p)
        blob = bytearray(p.read_bytes())
        blob[:8] = b"NOTMAGIC"
        p.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError, match="bad magic"):
            load_model(p)

    def test_truncated_payload(self, tmp_path, fixture_model):
        p = tmp_path / "m.icamw"
        save_model(fixture_model, p)
        blob = p.read_bytes()
        p.write_bytes(blob[:-100])
        with pytest.raises(ModelFormatError, match="truncated payload"):
            load_model(p)

    def test_header_past_end(self, tmp_path, fixture_model):
        p = tmp_path / "m.icamw"
        save_model(fixture_model, p)
        blob = bytearray(p.read_bytes())
        blob[8:16] = (2 ** 40).to_bytes(8, "little")
        p.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError, match="truncated payload"):
            load_model(p)

    def test_shape_inconsistency(self, tmp_path, fixture_model):
        import json
        p = tmp_path / "m.icamw"
        save_model(fixture_model, p)
        blob = p.read_bytes()
        hlen = int.from_bytes(blob[8:16], "little")
        header = json.loads(blob[16:16 + hlen])
        header["head.bias"]["shape"] = [7]
        hdr = json.dumps(header, sort_keys=True,
                         separators=(",", ":")).encode()
        p.write_bytes(blob[:8] + len(hdr).to_bytes(8, "little") + hdr
                      + blob[16 + hlen:])
        with pytest.raises(ModelFormatError, match="head.bias"):
            load_model(p)

    @pytest.mark.parametrize("name, index, value", [
        ("head.bias", (2,), np.nan), ("block1.weight", (0, 0, 1, 1), np.inf),
        ("block3.bias", (5,), -np.inf),
        ("head.weight", (1, 3), 1e39)])   # overflows float32 on save
    def test_non_finite_weight_rejected_at_load(self, tmp_path, fixture_model,
                                                name, index, value):
        weights = dict(fixture_model.weights)
        weights[name] = weights[name].copy()
        weights[name][index] = value
        p = tmp_path / "m.icamw"
        with np.errstate(over="ignore"):
            save_model(Model(fixture_model.spec, weights), p)
        with pytest.raises(ModelFormatError, match=f"{name}.*NaN or infinite"):
            load_model(p)

    def test_block_weight_channel_mismatch_rejected_at_load(self, tmp_path,
                                                            fixture_model):
        # a block2 kernel with C_in=4 where block1 has 8 output channels
        weights = dict(fixture_model.weights)
        weights["block2.weight"] = np.zeros((16, 4, 3, 3))
        p = tmp_path / "m.icamw"
        save_model(Model(fixture_model.spec, weights), p)
        with pytest.raises(ModelFormatError, match="block2.weight"):
            load_model(p)

    @pytest.mark.parametrize("name", ["block1.weight", "block1.bias",
                                      "block3.weight", "block3.bias",
                                      "head.weight", "head.bias"])
    def test_every_tensor_shape_checked_against_meta(self, tmp_path,
                                                     fixture_model, name):
        weights = dict(fixture_model.weights)
        shape = weights[name].shape
        weights[name] = np.zeros(shape[:-1] + (shape[-1] + 1,))
        p = tmp_path / "m.icamw"
        save_model(Model(fixture_model.spec, weights), p)
        with pytest.raises(ModelFormatError, match=name.replace(".", r"\.")):
            load_model(p)

    @staticmethod
    def _save_with_header(tmp_path, model, mutate):
        import json
        p = tmp_path / "m.icamw"
        save_model(model, p)
        blob = p.read_bytes()
        hlen = int.from_bytes(blob[8:16], "little")
        header = json.loads(blob[16:16 + hlen])
        mutate(header)
        hdr = json.dumps(header).encode()
        p.write_bytes(blob[:8] + len(hdr).to_bytes(8, "little") + hdr
                      + blob[16 + hlen:])
        return p

    @pytest.mark.parametrize("block, field, value", [
        (1, "stride", 0), (0, "stride", -1), (2, "kernel_size", 0),
        (0, "padding", -1), (1, "out_channels", 0), (0, "stride", 1.5),
        (2, "padding", "1")])
    def test_bad_block_field_rejected(self, tmp_path, fixture_model, block,
                                      field, value):
        def mutate(header):
            header["__meta__"]["blocks"][block][field] = value
        p = self._save_with_header(tmp_path, fixture_model, mutate)
        name = fixture_model.spec.blocks[block].name
        with pytest.raises(ModelFormatError, match=f"'{name}' {field}"):
            load_model(p)

    def test_block_output_below_one_pixel_rejected(self, tmp_path,
                                                   fixture_model):
        # kernel 40 without padding on a 32x32 input: output -7x-7
        def mutate(header):
            header["__meta__"]["blocks"][0].update(kernel_size=40, padding=0)
            header["block1.weight"]["shape"] = [8, 3, 40, 40]
        p = self._save_with_header(tmp_path, fixture_model, mutate)
        with pytest.raises(ModelFormatError,
                           match=r"'block1' output -7x-7 is smaller than 1x1"):
            load_model(p)

    @pytest.mark.parametrize("mutate, match", [
        (lambda m: m.update(input_shape=[3, 32]), "input_shape"),
        (lambda m: m.update(input_shape=[3, 0, 32]), "input_shape"),
        (lambda m: m.update(num_classes=0), "num_classes"),
        (lambda m: m.update(blocks=[]), "blocks"),
        (lambda m: m["blocks"][1].update(name="block1"), "unique names"),
    ])
    def test_bad_meta_rejected(self, tmp_path, fixture_model, mutate, match):
        p = self._save_with_header(tmp_path, fixture_model,
                                   lambda h: mutate(h["__meta__"]))
        with pytest.raises(ModelFormatError, match=match):
            load_model(p)

    def test_negative_header_dimension_rejected(self, tmp_path,
                                                fixture_model):
        # [-1, -5] has the right element count (5) for head.bias's nbytes
        def mutate(header):
            header["head.bias"]["shape"] = [-1, -5]
        p = self._save_with_header(tmp_path, fixture_model, mutate)
        with pytest.raises(ModelFormatError, match=r"head\.bias.*\[-1, -5\]"):
            load_model(p)

    def test_missing_meta(self, tmp_path):
        p = tmp_path / "m.icamw"
        hdr = b"{}"
        p.write_bytes(b"ICAMW001" + len(hdr).to_bytes(8, "little") + hdr)
        with pytest.raises(ModelFormatError, match="__meta__"):
            load_model(p)
