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
        assert tr.probabilities.shape == (5,)
        assert abs(tr.probabilities.sum() - 1.0) < 1e-12


class TestForwardTrace:
    def test_zero_image(self, fixture_model):
        tr = forward_trace(fixture_model, np.zeros((3, 32, 32)))
        assert abs(tr.probabilities.sum() - 1.0) < 1e-12
        assert np.allclose(tr.probabilities,
                           np.exp(tr.logits) / np.exp(tr.logits).sum())

    def test_gap_linear_gradient_is_analytic(self, gap_linear_model):
        # gradient of a logit at the scoring point is head.weight[c,k]/(H*W)
        img = np.random.default_rng(1).random((4, 6, 6)) + 0.1
        tr = forward_trace(gap_linear_model, img, class_index=2,
                           scalar_kind="logit")
        expected = gap_linear_model.weights["head.weight"][2] / 36.0
        g = tr.gradients["block1"]
        assert np.max(np.abs(g - expected[:, None, None])) < 1e-12

    def test_deterministic(self, fixture_model):
        img = np.random.default_rng(2).random((3, 32, 32))
        t1 = forward_trace(fixture_model, img, scalar_kind="probability")
        t2 = forward_trace(fixture_model, img, scalar_kind="probability")
        assert np.array_equal(t1.input_gradient, t2.input_gradient)
        assert t1.class_index == t2.class_index

    def test_argmax_consistent_between_scalar_kinds(self, fixture_model):
        rng = np.random.default_rng(3)
        for _ in range(10):
            img = rng.random((3, 32, 32))
            a = forward_trace(fixture_model, img, scalar_kind="logit")
            b = forward_trace(fixture_model, img, scalar_kind="probability")
            assert a.class_index == b.class_index
            assert int(np.argmax(a.logits)) == int(np.argmax(a.probabilities))

    def test_class_index_out_of_range(self, fixture_model):
        with pytest.raises(IndexError):
            forward_trace(fixture_model, np.zeros((3, 32, 32)), class_index=5)

    def test_bad_image_shape(self, fixture_model):
        with pytest.raises(ShapeError):
            forward_trace(fixture_model, np.zeros((3, 16, 16)))

    def test_scalar_kinds_give_different_gradients(self, fixture_model):
        img = np.random.default_rng(4).random((3, 32, 32))
        a = forward_trace(fixture_model, img, scalar_kind="logit")
        b = forward_trace(fixture_model, img, scalar_kind="probability")
        assert not np.allclose(a.gradients["block3"], b.gradients["block3"])

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
        assert forward_trace(fixture_model, img,
                             scalar_kind="logit").input_gradient is None

    def test_forward_matches_trace_logits(self, fixture_model):
        imgs = np.random.default_rng(9).random((3, 3, 32, 32))
        assert np.array_equal(forward(fixture_model, imgs[0]),
                              forward_trace(fixture_model, imgs[0]).logits)
        for img, logits in zip(imgs, forward(fixture_model, imgs)):
            assert np.max(np.abs(logits - forward(fixture_model, img))) <= 1e-12


class TestBatchedTrace:
    @pytest.mark.parametrize("scalar_kind", ["logit", "probability"])
    @pytest.mark.parametrize("class_index", [None, 2])
    def test_rows_equal_single_image_calls(self, fixture_model, scalar_kind,
                                           class_index):
        rng = np.random.default_rng(8)
        imgs = np.stack([rng.random((3, 32, 32)), np.zeros((3, 32, 32)),
                         3.0 * rng.random((3, 32, 32)) - 1.0,
                         rng.random((3, 32, 32))])
        batch = forward_trace(fixture_model, imgs, class_index=class_index,
                              scalar_kind=scalar_kind)
        assert isinstance(batch, list) and len(batch) == len(imgs)
        for img, tb in zip(imgs, batch):
            ts = forward_trace(fixture_model, img, class_index=class_index,
                               scalar_kind=scalar_kind)
            assert tb.class_index == ts.class_index
            assert tb.scalar_kind == ts.scalar_kind == scalar_kind
            pairs = [(tb.image, ts.image), (tb.logits, ts.logits),
                     (tb.probabilities, ts.probabilities)]
            pairs += [(tb.activations[n], ts.activations[n])
                      for n in ts.activations]
            pairs += [(tb.gradients[n], ts.gradients[n]) for n in ts.gradients]
            if scalar_kind == "probability":
                pairs.append((tb.input_gradient, ts.input_gradient))
            else:
                assert tb.input_gradient is None
            for got, want in pairs:
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12


class TestEngineFiniteDifferences:
    """forward_trace gradients at every scoring point, and at the input for
    probability traces, vs central differences through the real network."""

    @pytest.mark.parametrize("scalar_kind", ["logit", "probability"])
    def test_gradients_match_central_differences(self, fixture_model,
                                                 scalar_kind):
        model = fixture_model
        img = np.random.default_rng(6).random((3, 32, 32))
        tr = forward_trace(model, img, scalar_kind=scalar_kind)
        c = tr.class_index

        def scalar(logits):
            if scalar_kind == "logit":
                return float(logits[c])
            e = np.exp(logits - logits.max())
            return float(e[c] / e.sum())

        points = [(tr.activations[n], tr.gradients[n],
                   lambda a, n=n: scalar(forward_from(model, n, a)))
                  for n in model.spec.scoring_points]
        if scalar_kind == "probability":
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
            logits = forward_from(fixture_model, layer, tr.activations[layer])
            assert np.max(np.abs(logits - tr.logits)) < 1e-12

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

    def test_missing_meta(self, tmp_path):
        p = tmp_path / "m.icamw"
        hdr = b"{}"
        p.write_bytes(b"ICAMW001" + len(hdr).to_bytes(8, "little") + hdr)
        with pytest.raises(ModelFormatError, match="__meta__"):
            load_model(p)
