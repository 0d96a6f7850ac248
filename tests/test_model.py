import numpy as np
import pytest

from icam.model import (Model, ModelFormatError, NonFiniteImageError, _run,
                        build_fixture_model, forward, forward_trace,
                        input_gradient, load_model, save_model,
                        trace_perturbations)
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
        t1 = forward_trace(fixture_model, imgs[0])
        t2 = forward_trace(fixture_model, imgs[0])
        assert np.array_equal(input_gradient(fixture_model, t1),
                              input_gradient(fixture_model, t2))
        assert t1.class_index == t2.class_index
        p1, p2 = (trace_perturbations(fixture_model, imgs[1:], t.class_index)
                  for t in (t1, t2))
        for a, b in ((t1, t2), (p1, p2)):
            for name in a.gradients:
                assert np.array_equal(a.gradients[name], b.gradients[name])

    def test_class_is_row0_argmax(self, fixture_model):
        rng = np.random.default_rng(3)
        for _ in range(10):
            img = rng.random((3, 32, 32))
            tr = forward_trace(fixture_model, img)
            assert type(tr.class_index) is int
            assert tr.class_index == int(np.argmax(tr.logits[0])) \
                == int(np.argmax(tr.probabilities[0]))

    def test_class_index_out_of_range(self, fixture_model):
        with pytest.raises(IndexError):
            forward_trace(fixture_model, np.zeros((3, 32, 32)), class_index=5)

    @pytest.mark.parametrize("class_index", [
        2.7, 2.0, True, np.bool_(True), "3", np.float64(2.0)],
        ids=["float", "whole-float", "bool", "numpy-bool", "str",
             "numpy-float"])
    def test_class_index_must_be_an_integer(self, fixture_model, class_index):
        with pytest.raises(ValueError, match="^class_index must be an integer"):
            forward_trace(fixture_model, np.zeros((3, 32, 32)),
                          class_index=class_index)

    @pytest.mark.parametrize("class_index", [np.int64(2), np.uint8(2), 2])
    def test_numpy_integer_class_index(self, fixture_model, class_index):
        tr = forward_trace(fixture_model, np.zeros((3, 32, 32)),
                           class_index=class_index)
        assert type(tr.class_index) is int and tr.class_index == 2

    @pytest.mark.parametrize("class_index, error", [
        (-1, IndexError), (5, IndexError), (2.0, ValueError),
        (2.7, ValueError), (True, ValueError), (np.int64(1), None)],
        ids=["negative", "past-the-end", "whole-float", "float", "bool",
             "numpy-int"])
    def test_perturbation_trace_checks_the_class_by_the_same_rule(
            self, fixture_model, class_index, error):
        # one rule for both traces: a bad class fails the same way in each
        img = np.random.default_rng(4).random((3, 32, 32))
        if error is None:
            block = trace_perturbations(fixture_model, img[None], class_index)
            assert type(block.class_index) is int and block.class_index == 1
            assert forward_trace(fixture_model, img, class_index
                                 ).class_index == 1
            return
        with pytest.raises(error) as image_exc:
            forward_trace(fixture_model, img, class_index)
        with pytest.raises(error) as block_exc:
            trace_perturbations(fixture_model, img[None], class_index)
        assert type(block_exc.value) is type(image_exc.value) is error
        assert str(block_exc.value) == str(image_exc.value)

    def test_bad_image_shape(self, fixture_model):
        with pytest.raises(ShapeError):
            forward_trace(fixture_model, np.zeros((3, 16, 16)))

    def test_logit_and_probability_gradients_differ(self, fixture_model):
        # the same image traced (logit seed) and as a perturbation row
        # (probability seed)
        img = np.random.default_rng(4).random((3, 32, 32))
        tr = forward_trace(fixture_model, img)
        pert = trace_perturbations(fixture_model, img[None], tr.class_index)
        assert not np.allclose(tr.gradients["block3"][0],
                               pert.gradients["block3"][0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_image_rejected(self, fixture_model, bad):
        img = np.zeros((3, 32, 32))
        img[1, 5, 7] = bad
        with pytest.raises(NonFiniteImageError, match="non-finite"):
            forward_trace(fixture_model, img)
        with pytest.raises(NonFiniteImageError):
            trace_perturbations(fixture_model,
                                np.stack([np.zeros_like(img), img]), 0)
        with pytest.raises(NonFiniteImageError):
            forward(fixture_model, img)

    def test_logit_trace_has_no_input_gradient(self, fixture_model):
        # the scorer walks dY^c/dI from the image's trace; no trace holds it
        img = np.random.default_rng(4).random((3, 32, 32))
        tr = forward_trace(fixture_model, img)
        for trace in (tr, trace_perturbations(fixture_model, img[None], 0)):
            assert not hasattr(trace, "input_gradient")
        assert input_gradient(fixture_model, tr).shape == img.shape

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
    """A trace's rows do not depend on each other, nor on the walks read
    from it: the image's trace after its input gradient is walked equals a
    fresh trace ("logit"), and row r of a block of perturbation rows equals
    row r traced alone ("probability")."""

    @pytest.mark.parametrize("part", ["logit", "probability"])
    @pytest.mark.parametrize("class_index", [None, 2])
    def test_rows_equal_single_image_calls(self, fixture_model, part,
                                           class_index):
        rng = np.random.default_rng(8)
        imgs = np.stack([rng.random((3, 32, 32)), np.zeros((3, 32, 32)),
                         3.0 * rng.random((3, 32, 32)) - 1.0,
                         rng.random((3, 32, 32))])
        if part == "logit":
            batch = forward_trace(fixture_model, imgs[0], class_index)
            input_gradient(fixture_model, batch)
            pairs = [(0, forward_trace(fixture_model, imgs[0],
                                       class_index=class_index), 0)]
        else:
            c = forward_trace(fixture_model, imgs[0], class_index).class_index
            batch = trace_perturbations(fixture_model, imgs, c)
            assert batch.logits.shape == (len(imgs), 5)
            pairs = [(r, trace_perturbations(fixture_model, imgs[r:r + 1], c),
                      0) for r in range(len(imgs))]
        for r, small, s in pairs:
            assert small.class_index == batch.class_index
            _close(batch.image[r], small.image[s])
            _close(batch.logits[r], small.logits[s])
            _close(batch.probabilities[r], small.probabilities[s])
            for n in small.activations:
                _close(batch.activations[n][r], small.activations[n][s])
                _close(batch.gradients[n][r], small.gradients[n][s])

    def test_a_row_does_not_depend_on_its_block(self, fixture_model):
        # the same row in two blocks of other rows: its probabilities and
        # block gradients are bitwise equal, so any split of the
        # perturbations into blocks gives the same bits
        rng = np.random.default_rng(10)
        img, shared = rng.random((3, 32, 32)), rng.random((3, 32, 32))
        c = forward_trace(fixture_model, img).class_index
        a = trace_perturbations(fixture_model,
                                np.stack([rng.random((3, 32, 32)), shared]), c)
        b = trace_perturbations(fixture_model, np.stack(
            [shared, np.zeros((3, 32, 32)), rng.random((3, 32, 32))]), c)
        assert a.probabilities[1].tobytes() == b.probabilities[0].tobytes()
        for n in a.gradients:
            assert a.gradients[n][1].tobytes() == b.gradients[n][0].tobytes()


class TestEngineFiniteDifferences:
    """Trace gradients vs central differences through the real network: the
    image's logit gradients at every scoring point ("logit"), and a
    perturbation row's probability gradients at every scoring point plus
    the image's input gradient ("probability"), for a forced class that is
    not the argmax: the walks read the class from the trace."""

    @pytest.mark.parametrize("part", ["logit", "probability"])
    def test_gradients_match_central_differences(self, fixture_model, part):
        model = fixture_model
        rng = np.random.default_rng(6)
        img, pert = rng.random((3, 32, 32)), rng.random((3, 32, 32))
        argmax = forward_trace(model, img).class_index
        c = argmax if part == "logit" \
            else (argmax + 1) % model.spec.num_classes
        image_trace = forward_trace(model, img, c)
        tr = image_trace if part == "logit" \
            else trace_perturbations(model, pert[None], c)

        def scalar(logits):
            if part == "logit":
                return float(logits[c])
            e = np.exp(logits - logits.max())
            return float(e[c] / e.sum())

        blocks = model.spec.blocks
        points = [(tr.activations[b.name][0], tr.gradients[b.name][0],
                   lambda a, i=i: scalar(_run(model, a, blocks[i + 1:])[1]))
                  for i, b in enumerate(blocks)]
        if part == "probability":
            points.append((img, input_gradient(model, image_trace),
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
        # the forward over the blocks after a layer, from its activation
        img = np.random.default_rng(5).random((3, 32, 32))
        tr = forward_trace(fixture_model, img)
        blocks = fixture_model.spec.blocks
        for i, b in enumerate(blocks):
            logits = _run(fixture_model, tr.activations[b.name][0],
                          blocks[i + 1:])[1]
            assert np.max(np.abs(logits - tr.logits[0])) < 1e-12


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

    def test_missing_header_length(self, tmp_path):
        p = tmp_path / "m.icamw"
        p.write_bytes(b"ICAMW001" + b"\x00" * 7)
        with pytest.raises(ModelFormatError,
                           match="truncated payload: missing header length"):
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
        (lambda m: m["blocks"][0].update(name=7), "non-empty strings"),
        (lambda m: m["blocks"][0].update(name=""), "non-empty strings"),
        (lambda m: m["blocks"][2].update(name=["block3"]),
         "non-empty strings"),
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

    @pytest.mark.parametrize("field, convert", [
        ("offset", str), ("nbytes", str), ("offset", float),
        ("nbytes", lambda v: v + 0.5), ("offset", lambda v: -v),
        ("nbytes", lambda v: v > 0)])
    def test_offset_and_nbytes_must_be_integers(self, tmp_path, fixture_model,
                                                field, convert):
        # int() would read "20" and 20.5 as 20 and load the file
        def mutate(header):
            header["head.bias"][field] = convert(header["head.bias"][field])
        p = self._save_with_header(tmp_path, fixture_model, mutate)
        with pytest.raises(ModelFormatError,
                           match=rf"tensor 'head\.bias': {field} .* must be "
                                 rf"an integer >= 0"):
            load_model(p)

    def test_tensor_not_named_by_meta_rejected(self, tmp_path,
                                               fixture_model):
        weights = dict(fixture_model.weights, junk=np.ones(3),
                       **{"block9.bias": np.ones(2)})
        p = tmp_path / "m.icamw"
        save_model(Model(fixture_model.spec, weights), p)
        with pytest.raises(ModelFormatError,
                           match=r"\['block9\.bias', 'junk'\] are not named"):
            load_model(p)

    def test_missing_meta(self, tmp_path):
        p = tmp_path / "m.icamw"
        hdr = b"{}"
        p.write_bytes(b"ICAMW001" + len(hdr).to_bytes(8, "little") + hdr)
        with pytest.raises(ModelFormatError, match="__meta__"):
            load_model(p)
