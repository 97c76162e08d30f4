import tracemalloc

import numpy as np
import pytest

from mrbnn import bnn
from mrbnn.bnn import (Layer, LayerKind, QuantModel, accuracy,
                       activation_layer, batch_norm_layer, binarize,
                       conv_layer, fc_layer, make_blobs, make_mlp, pool_layer,
                       quantize_activation, reference_inference, ste_gradient,
                       ste_train)
from mrbnn.errors import DomainError
from mrbnn.mapping import AcceleratorConfig, ModelStructure, build_work_plan


def brute_conv2d(x, k, stride=1):
    """Direct correlation-style convolution oracle ([c,h,w] x [oc,ic,kh,kw])."""
    oc, ic, kh, kw = k.shape
    _, h, w = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    out = np.zeros((oc, oh, ow))
    for c in range(oc):
        for oy in range(oh):
            for ox in range(ow):
                patch = x[:, oy * stride:oy * stride + kh,
                          ox * stride:ox * stride + kw]
                out[c, oy, ox] = np.sum(patch * k[c])
    return out


class TestBinarize:
    def test_values(self):
        assert binarize(0.3) == 1.0
        assert binarize(-0.2) == -1.0
        assert binarize(0.0) == 1.0  # documented tie-break

    def test_array(self):
        out = binarize(np.array([-1.5, 0.0, 2.0]))
        assert np.array_equal(out, [-1.0, 1.0, 1.0])

    def test_odd_away_from_zero(self):
        rng = np.random.Generator(np.random.PCG64(1))
        w = rng.normal(size=200)
        w = w[w != 0]
        assert np.array_equal(binarize(-w), -binarize(w))

    def test_nonfinite(self):
        with pytest.raises(DomainError):
            binarize(float("nan"))


class TestQuantizeActivation:
    def test_endpoints_are_levels(self):
        assert quantize_activation(0.0, 4) == 0.0
        assert quantize_activation(1.0, 4) == 1.0
        assert quantize_activation(-0.5, 4) == 0.0  # clamped
        assert quantize_activation(2.0, 4) == 1.0

    def test_midpoint_rounds_up(self):
        # round(0.5 * 15) = 8 -> 8/15
        assert quantize_activation(0.5, 4) == pytest.approx(8 / 15, rel=1e-12)

    def test_idempotent(self):
        rng = np.random.Generator(np.random.PCG64(2))
        v = rng.uniform(-0.5, 1.5, 300)
        q1 = quantize_activation(v, 4)
        assert np.array_equal(quantize_activation(q1, 4), q1)

    def test_error_at_most_half_step(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for bits in (1, 2, 4, 8):
            v = rng.uniform(0, 1, 500)
            q = quantize_activation(v, bits)
            step = 1.0 / (2**bits - 1)
            assert np.all(np.abs(v - q) <= step / 2 + 1e-12)

    def test_custom_range(self):
        assert quantize_activation(0.0, 2, lo=-1.0, hi=1.0) \
            == pytest.approx(1 / 3, rel=1e-12)  # rounds up at the midpoint

    @pytest.mark.parametrize("bits, lo, hi",
                             [(1, 0.0, 1.0), (4, 0.0, 1.0), (4, 0.2, 0.8),
                              (3, -1.0, 1.0), (8, 0.0, 1.0), (3, 0, 1)])
    def test_levels_are_the_quantizer_outputs(self, bits, lo, hi):
        # bit for bit: codes stand for these values; one read-only table
        # per quantizer
        levels = bnn.activation_levels(bits, lo, hi)
        assert levels is bnn.activation_levels(bits, lo, hi)
        assert not levels.flags.writeable
        assert levels.size == 2 ** bits and np.all(np.diff(levels) > 0)
        assert levels[0] == lo and levels[-1] == hi
        assert np.array_equal(quantize_activation(levels, bits, lo, hi),
                              levels)
        rng = np.random.Generator(np.random.PCG64(4))
        q = quantize_activation(rng.uniform(lo - 0.5, hi + 0.5, 2000), bits,
                                lo, hi)
        assert np.all(np.isin(q, levels))

    def test_validation(self):
        with pytest.raises(DomainError):
            quantize_activation(0.5, 0)
        with pytest.raises(DomainError):
            quantize_activation(0.5, 4, lo=1.0, hi=0.0)
        with pytest.raises(DomainError):
            bnn.activation_levels(4, 1.0, 1.0)


def formula_quantize(v, bits, lo, hi):
    """The quantizer in one expression: code floor((clip(v) - lo) / (hi -
    lo) * steps + 0.5), value lo + code * (hi - lo) / steps."""
    steps = float(2 ** bits - 1)
    arr = np.clip(np.asarray(v, dtype=np.float64), lo, hi)
    code = np.floor((arr - lo) / (hi - lo) * steps + 0.5)
    return lo + code * (hi - lo) / steps


class TestCodes:
    """The layer walk carries a narrow quantizer's outputs as integer codes
    whose levels are the quantizer's floats, bit for bit."""

    @pytest.mark.parametrize("bits, lo, hi", [(1, 0.0, 1.0), (4, 0.0, 1.0),
                                              (5, -1.0, 1.0), (2, 0.2, 0.8),
                                              (3, 0.0, 0.5), (3, -0.0, 1.0)])
    def test_codes_stand_for_the_quantizer_values(self, bits, lo, hi):
        rng = np.random.Generator(np.random.PCG64(5))
        # a conv output's layout: channels are not the innermost axis
        v = rng.uniform(lo - 0.5, hi + 0.5, (3, 6, 5, 4)).transpose(0, 3, 1, 2)
        v[0, 0, 0, :3] = (-np.inf, np.inf, lo)
        got = bnn._quantize(v, bits, lo, hi)
        assert isinstance(got, bnn.Codes) and got.codes.dtype == np.uint8
        want = quantize_activation(v, bits, lo, hi)
        assert want.tobytes() == formula_quantize(v, bits, lo, hi).tobytes()
        values = bnn.to_values(got)
        assert values.tobytes() == want.tobytes()
        assert values.strides == want.strides
        assert np.array_equal(got.levels[got.codes], want)

    @pytest.mark.parametrize("bits", [6, 24, 40])
    def test_wide_quantizers_give_values(self, bits):
        v = np.random.Generator(np.random.PCG64(6)).uniform(-0.5, 1.5, 200)
        got = bnn._quantize(v, bits, 0.0, 1.0)
        assert isinstance(got, np.ndarray)
        assert got.tobytes() == quantize_activation(v, bits).tobytes()

    def test_nan_gives_values(self):
        v = np.array([[0.3, np.nan], [1.2, -0.1]])
        got = bnn._quantize(v, 2, 0.0, 1.0)
        assert isinstance(got, np.ndarray)
        np.testing.assert_array_equal(got, quantize_activation(v, 2))
        assert np.isnan(got[0, 1])

    def test_max_pool_keeps_codes_avg_pool_makes_values(self):
        rng = np.random.Generator(np.random.PCG64(7))
        x = rng.uniform(0.0, 1.0, (2, 2, 6, 6))
        for mode, kind in (("max", bnn.Codes), ("avg", np.ndarray)):
            model = QuantModel((
                conv_layer(rng.normal(size=(3, 2, 1, 1))), activation_layer(),
                pool_layer(2, mode), conv_layer(rng.normal(size=(4, 3, 2, 2))),
                activation_layer(), fc_layer(rng.normal(size=(2, 16)))),
                activation_bits=3)
            seen = []

            def dot(li, layer, v):
                seen.append(type(v))
                return bnn.exact_dot(li, layer, v)

            logits = bnn.forward(model, x, dot)
            assert seen == [np.ndarray, kind, bnn.Codes]
            assert isinstance(logits, np.ndarray)
            # the reference walk on values: quantize, pool, unfold
            a = x
            for layer in model.layers:
                if layer.weighted:
                    w = layer.effective_weights()
                    if layer.kind == LayerKind.CONV2D:
                        cols, oh, ow = bnn.im2col(a, *w.shape[2:], 1)
                        a = (cols @ w.reshape(w.shape[0], -1).T).transpose(
                            0, 2, 1).reshape(a.shape[0], -1, oh, ow)
                    else:
                        a = a.reshape(a.shape[0], -1) @ w.T
                elif layer.kind == LayerKind.ACTIVATION:
                    a = quantize_activation(np.maximum(a, 0.0), 3)
                else:
                    a = bnn._apply_pool(a, 2, mode)
            assert logits.tobytes() == a.tobytes()

    @pytest.mark.parametrize("binarized, between, folded, kind", [
        (True, (), False, bnn.Codes),
        (False, (), False, np.ndarray),     # a full-precision layer
        (True, ("bn",), True, np.ndarray),  # the fold flush multiplies
        (True, ("bn",), False, np.ndarray),
        (True, ("act",), False, np.ndarray),
    ])
    def test_codes_reach_only_binarized_dots(self, binarized, between,
                                             folded, kind):
        rng = np.random.Generator(np.random.PCG64(9))
        extra = {"bn": batch_norm_layer(np.ones(6), np.zeros(6), np.zeros(6),
                                        np.ones(6)),
                 "act": activation_layer(quantize=False)}
        model = QuantModel((fc_layer(rng.normal(size=(6, 4))),
                            activation_layer(),
                            *(extra[b] for b in between),
                            fc_layer(rng.normal(size=(2, 6)),
                                     binarized=binarized)),
                           activation_bits=3)
        x = rng.uniform(0.0, 1.0, (5, 4))
        seen = []

        def dot(li, layer, v):
            seen.append(type(v))
            return bnn.exact_dot(li, layer, v)

        logits = bnn.forward(model, x, dot, folded=folded)
        assert seen == [np.ndarray, kind]
        want, _ = reference_inference(model, x, folded=folded)
        assert logits.tobytes() == want.tobytes()

    def test_trainer_tape_holds_values(self):
        model = make_mlp([3, 4, 2], seed=1)
        x = np.random.Generator(np.random.PCG64(8)).uniform(0, 1, (5, 3))
        tape = {}
        bnn._ste_step(model, x, np.array([0, 1, 0, 1, 1]), "xent", tape)
        assert all(isinstance(v, np.ndarray) and v.dtype == np.float64
                   for v, _ in tape.values())
        assert np.array_equal(tape[2][0],
                              quantize_activation(np.maximum(tape[0][1], 0),
                                                  4))


def fold_gain(weights, *bns):
    """Folded gain of one weighted layer followed by ``bns``."""
    return QuantModel((fc_layer(weights), *bns)).fold_gains()[0]


def zero_bn(gamma, var):
    h = len(gamma)
    return batch_norm_layer(gamma, np.zeros(h), np.zeros(h), var)


class TestBnFold:
    def test_unit_gain(self):
        bn = batch_norm_layer([2.0], [0.0], [0.0], [3.0], epsilon=1.0)
        assert fold_gain(np.ones((1, 4)), bn)[0] == \
            pytest.approx(1.0, rel=1e-12)

    def test_matched_gamma(self):
        var = np.array([0.5, 2.0, 7.0])
        eps = 1e-3
        bn = batch_norm_layer(np.sqrt(var + eps), np.zeros(3), np.zeros(3),
                              var, epsilon=eps)
        assert np.allclose(fold_gain(np.ones((3, 4)), bn), 1.0, atol=1e-12)

    def test_small_variance(self):
        bn = batch_norm_layer([1.0], [0.0], [0.0], [0.0], epsilon=1e-5)
        assert fold_gain(np.ones((1, 2)), bn)[0] == \
            pytest.approx(1.0 / np.sqrt(1e-5), rel=1e-12)

    def test_channel_mismatch(self):
        bn = batch_norm_layer([1.0, 1.0], [0.0] * 2, [0.0] * 2, [1.0] * 2)
        with pytest.raises(DomainError, match="channel mismatch"):
            fold_gain(np.ones((3, 4)), bn)

    def test_consecutive_bns_multiply(self):
        gains = QuantModel((
            fc_layer(np.ones((2, 3))), zero_bn([2.0, 1.0], [1.0, 3.0]),
            activation_layer(), zero_bn([3.0, 0.5], [0.0, 1.0]),
            fc_layer(np.ones((4, 2))), zero_bn([1.0] * 4, [0.0] * 4),
        )).fold_gains()
        c1 = np.array([2.0, 1.0]) / np.sqrt([1.0 + 1e-5, 3.0 + 1e-5])
        c2 = np.array([3.0, 0.5]) / np.sqrt([1e-5, 1.0 + 1e-5])
        assert sorted(gains) == [0, 4]
        assert np.array_equal(gains[0], c1 * c2)
        assert np.allclose(gains[4], 1.0 / np.sqrt(1e-5), rtol=1e-12)

    def test_no_bn_no_gain(self):
        model = make_mlp([4, 8, 2], seed=0)
        assert model.fold_gains() == {}

    def test_bn_layer_validation(self):
        with pytest.raises(DomainError):
            batch_norm_layer([1.0], [0.0], [0.0], [-1.0])
        with pytest.raises(DomainError):
            batch_norm_layer([1.0], [0.0], [0.0], [1.0], epsilon=0.0)


class TestReferenceInference:
    def test_identity_fc_one_hot(self):
        model = QuantModel((fc_layer(np.eye(4), binarized=False),),
                           last_layer_full_precision=True)
        x = np.zeros(4)
        x[2] = 1.0
        logits, cls = reference_inference(model, x)
        assert logits[2] == 1.0
        assert cls == 2

    def test_conv_dot_example(self):
        k = np.array([[[[1.0, -1.0], [1.0, -1.0]]]])
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        model = QuantModel((conv_layer(k, binarized=True),))
        logits, _ = reference_inference(model, x)
        assert logits[0] == pytest.approx(-2.0, abs=1e-12)  # 1-2+3-4

    def test_conv_matches_brute_force(self):
        rng = np.random.Generator(np.random.PCG64(5))
        for stride, (kh, kw) in ((1, (3, 3)), (2, (3, 3)), (3, (2, 3))):
            k = binarize(rng.normal(size=(3, 2, kh, kw)))
            x = rng.uniform(0, 1, size=(2, 8, 8))
            model = QuantModel((conv_layer(k, stride=stride,
                                           binarized=False),))
            logits, _ = reference_inference(model, x)
            assert np.allclose(logits,
                               brute_conv2d(x, k, stride).reshape(-1),
                               atol=1e-12)
            cols, oh, ow = bnn.im2col(x[None], kh, kw, stride)
            patches = [x[:, oy * stride:oy * stride + kh,
                         ox * stride:ox * stride + kw].reshape(-1)
                       for oy in range(oh) for ox in range(ow)]
            assert np.array_equal(cols[0], patches)

    def test_pool_modes(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        for mode, expected in (("max", [[5, 7], [13, 15]]),
                               ("avg", [[2.5, 4.5], [10.5, 12.5]])):
            model = QuantModel((Layer(LayerKind.POOL, pool_window=2,
                                      pool_mode=mode),))
            logits, _ = reference_inference(model, x)
            assert np.allclose(logits.reshape(2, 2), expected)

    def test_folded_equals_explicit_zero_mean_bias(self):
        rng = np.random.Generator(np.random.PCG64(7))
        for _ in range(20):
            h = int(rng.integers(2, 8))
            gamma = rng.uniform(0.5, 2.0, h)
            var = rng.uniform(0.1, 3.0, h)
            layers = (
                fc_layer(rng.normal(size=(h, 5))),
                batch_norm_layer(gamma, np.zeros(h), np.zeros(h), var),
                activation_layer(),
                fc_layer(rng.normal(size=(3, h)), binarized=False),
            )
            model = QuantModel(layers)
            x = rng.uniform(0, 1, size=(6, 5))
            le, _ = reference_inference(model, x, folded=False)
            lf, _ = reference_inference(model, x, folded=True)
            assert np.allclose(le, lf, atol=1e-9)

    @pytest.mark.parametrize("between", [(), (activation_layer(),)],
                             ids=["bn-bn", "bn-relu-bn"])
    def test_folded_consecutive_bns(self, between):
        # FC -> BN(gamma=2) -> [ReLU] -> BN(gamma=3) -> ReLU -> FC: both
        # gains apply, as in the explicit pass, and the plan carries their
        # product
        rng = np.random.Generator(np.random.PCG64(9))
        h = 4
        bn1 = zero_bn(np.full(h, 2.0), rng.uniform(0.1, 3.0, h))
        bn2 = zero_bn(np.full(h, 3.0), rng.uniform(0.1, 3.0, h))
        model = QuantModel((
            fc_layer(rng.normal(size=(h, 5))), bn1, *between, bn2,
            activation_layer(quantize=False),
            fc_layer(rng.normal(size=(3, h)), binarized=False)))
        x = rng.uniform(0, 1, size=(6, 5))
        le, _ = reference_inference(model, x, folded=False)
        lf, _ = reference_inference(model, x, folded=True)
        assert np.allclose(le, lf, rtol=0, atol=1e-9)
        plan = build_work_plan(model, AcceleratorConfig(5, 1, 1))
        first = plan.slices[plan.slices["layer"] == 0]
        want = (2.0 / np.sqrt(bn1.bn_var + 1e-5)
                * (3.0 / np.sqrt(bn2.bn_var + 1e-5)))
        assert np.array_equal(first["c_fold"], want[first["output"]])

    def test_folded_conv_bn(self):
        rng = np.random.Generator(np.random.PCG64(8))
        layers = (
            conv_layer(binarize(rng.normal(size=(4, 1, 2, 2)))),
            batch_norm_layer(rng.uniform(0.5, 2, 4), np.zeros(4),
                             np.zeros(4), rng.uniform(0.1, 2, 4)),
            activation_layer(),
        )
        model = QuantModel(layers)
        x = rng.uniform(0, 1, size=(3, 1, 5, 5))
        le, _ = reference_inference(model, x, folded=False)
        lf, _ = reference_inference(model, x, folded=True)
        assert np.allclose(le, lf, atol=1e-9)

    def test_deterministic(self, toy_model, toy_data):
        a, _ = reference_inference(toy_model, toy_data.x_test)
        b, _ = reference_inference(toy_model, toy_data.x_test)
        assert a.tobytes() == b.tobytes()

    def test_shape_mismatch(self):
        model = QuantModel((fc_layer(np.ones((2, 3))),))
        with pytest.raises(DomainError):
            reference_inference(model, np.ones(4))


class TestModelConstruction:
    def test_fc_chain_validation(self):
        with pytest.raises(DomainError):
            QuantModel((fc_layer(np.ones((4, 2))),
                        fc_layer(np.ones((3, 5)))))

    @pytest.mark.parametrize("layers", [
        # the 1-channel BN broadcasts over 4 outputs in the explicit pass
        (fc_layer(np.ones((4, 3))), zero_bn([1.0], [1.0]),
         activation_layer()),
        (conv_layer(np.ones((2, 1, 2, 2))), activation_layer(),
         pool_layer(2), zero_bn([1.0] * 3, [1.0] * 3)),
        (fc_layer(np.ones((4, 3))), zero_bn([1.0] * 4, [1.0] * 4),
         activation_layer(), fc_layer(np.ones((2, 4))),
         zero_bn([1.0] * 4, [1.0] * 4)),
        # beta alone is short
        (fc_layer(np.ones((2, 3))),
         batch_norm_layer([1.0, 1.0], [0.0], [0.0, 0.0], [1.0, 1.0])),
    ])
    def test_bn_channel_check(self, layers):
        with pytest.raises(DomainError, match="channel mismatch"):
            QuantModel(layers)

    @pytest.mark.parametrize("kind, shape", [
        (LayerKind.FULLY_CONNECTED, (6,)),
        (LayerKind.CONV2D, (2, 3, 3)),
        (LayerKind.CONV2D, None),
    ])
    def test_weight_rank(self, kind, shape):
        weights = None if shape is None else np.ones(shape)
        with pytest.raises(DomainError, match="axes"):
            Layer(kind, weights=weights)

    def test_leading_bn_unchecked(self):
        # a BN ahead of every weighted layer normalizes the input
        model = QuantModel((zero_bn([1.0] * 3, [1.0] * 3),
                            fc_layer(np.ones((2, 3)))))
        assert model.fold_gains() == {}

    def test_activation_bits_validation(self):
        with pytest.raises(DomainError):
            QuantModel((), activation_bits=0)

    def test_parameter_count(self):
        model = QuantModel((fc_layer(np.ones((4, 2))), activation_layer(),
                            fc_layer(np.ones((3, 4)))))
        assert ModelStructure.from_model(model).parameter_count == 8 + 12

    def test_make_mlp_last_layer_full_precision(self):
        model = make_mlp([4, 8, 2], seed=0)
        fcs = [l for l in model.layers if l.weighted]
        assert fcs[0].binarized and not fcs[1].binarized


class TestSteTrain:
    def test_zero_lr_keeps_weights(self):
        data = make_blobs(64, 16, 4, 2, 0.2, 1)
        model = make_mlp([4, 8, 2], seed=3)
        before = [l.weights.copy() for l in model.layers if l.weighted]
        trained, _ = ste_train(model, data.x_train, data.y_train,
                               epochs=5, lr=0.0)
        after = [l.weights for l in trained.layers if l.weighted]
        for b, a in zip(before, after):
            assert np.array_equal(b, a)

    def test_separable_blobs_reach_95(self):
        # diagonal blob pair: the +-1 separator passes through the origin
        rng = np.random.Generator(np.random.PCG64(21))
        n = 256
        y = np.arange(n) % 2
        centers = np.array([[0.8, 0.2], [0.2, 0.8]])
        x = np.clip(centers[y] + 0.1 * rng.normal(size=(n, 2)), 0.0, 1.0)
        model = make_mlp([2, 16, 2], seed=5)
        trained, losses = ste_train(model, x, y, epochs=50, lr=0.05)
        assert accuracy(trained, x, y) >= 0.95
        assert losses[-1] < losses[0]

    def test_loss_non_increasing_small_lr(self):
        data = make_blobs(128, 64, 4, 2, 0.08, 3)
        model = make_mlp([4, 8, 2], seed=5)
        _, losses = ste_train(model, data.x_train, data.y_train,
                              epochs=40, lr=0.005)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_single_neuron_crosses_zero(self):
        # forward with sign(w): at w = -0.1 the network outputs -x, so the
        # STE gradient is sum((out - y)/n * x) = -2 and one step at lr 0.1
        # moves the shadow weight to +0.1
        layer = fc_layer(np.array([[-0.1]]), binarized=True)
        model = QuantModel((layer,), last_layer_full_precision=False)
        x = np.array([[1.0], [-1.0]])
        y = np.array([[1.0], [-1.0]])
        trained, _ = ste_train(model, x, y, epochs=1, lr=0.1, loss="mse")
        w = next(l for l in trained.layers if l.weighted).weights[0, 0]
        assert w == pytest.approx(0.1, rel=1e-12)
        logits, _ = reference_inference(trained, x)
        assert np.array_equal(np.sign(logits[:, 0]), y[:, 0])

    def test_trainer_rejects_conv(self):
        model = QuantModel((conv_layer(np.ones((1, 1, 2, 2))),))
        with pytest.raises(DomainError):
            ste_train(model, np.ones((4, 4)), np.zeros(4, dtype=int),
                      epochs=1, lr=0.1)

    def test_training_is_deterministic(self):
        data = make_blobs(64, 16, 4, 2, 0.15, 9)
        runs = []
        for _ in range(2):
            model = make_mlp([4, 8, 2], seed=3)
            trained, losses = ste_train(model, data.x_train, data.y_train,
                                        epochs=10, lr=0.05)
            first = next(l for l in trained.layers if l.weighted)
            runs.append((first.weights.copy(), tuple(losses)))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]


# labels whose shape is not [n] for a batch of n: numpy would broadcast them
BAD_LABELS = {"class 0": lambda y: [0], "column": lambda y: y[:, None],
              "short": lambda y: y[:-1], "none": lambda y: y[:0]}


class TestAccuracyLabels:
    @pytest.fixture(scope="class")
    def toy(self):
        data = make_blobs(40, 24, 8, 3, 0.3, seed=2)
        return make_mlp([8, 16, 3], seed=1), data.x_test, data.y_test

    @pytest.mark.parametrize("kind", BAD_LABELS)
    def test_rejects_labels_that_do_not_match_the_batch(self, toy, kind):
        model, x, y = toy
        with pytest.raises(DomainError, match="labels of shape"):
            accuracy(model, x, BAD_LABELS[kind](y))

    def test_one_unbatched_sample(self, toy):
        model, x, y = toy
        _, want = reference_inference(model, x[0])
        assert accuracy(model, x[0], y[0]) == float(want == y[0])
        assert accuracy(model, x[0], [y[0]]) == float(want == y[0])
        with pytest.raises(DomainError, match="labels of shape"):
            accuracy(model, x[0], y[:2])

    def test_empty_batch_has_no_accuracy(self, toy):
        model, x, y = toy
        with pytest.raises(DomainError, match="empty batch"):
            accuracy(model, x[:0], y[:0])

    @pytest.mark.parametrize("name", ["fc", "conv"])
    def test_empty_batch_has_no_logits(self, name):
        model, x = raw_input_models()[name]
        for folded in (False, True):
            with pytest.raises(DomainError, match="empty batch"):
                reference_inference(model, x[:0], folded=folded)

    def test_is_the_mean_of_the_matches(self, toy):
        model, x, y = toy
        _, classes = reference_inference(model, x)
        got = accuracy(model, x, y)
        assert type(got) is float and got == float(np.mean(classes == y))


class TestSteGradient:
    def test_matches_finite_difference_of_identity_surrogate(self):
        # three-neuron net: 2 binarized hidden neurons + 1 full-precision
        # output; activation quantization disabled so the surrogate loss is
        # smooth. The finite-difference oracle perturbs the forward weights
        # (sign replaced by identity) at the binarization point.
        rng = np.random.Generator(np.random.PCG64(13))
        w1 = rng.normal(size=(2, 2)) + 0.3
        w2 = rng.normal(size=(1, 2))
        act = activation_layer(quantize=False)
        model = QuantModel((fc_layer(w1, binarized=True), act,
                            fc_layer(w2, binarized=False)))
        x = rng.uniform(0.1, 1.0, size=(8, 2))
        y = rng.uniform(-1, 1, size=(8, 1))
        grads = ste_gradient(model, x, y, loss="mse")

        def loss_at(w1_eff, w2_eff):
            m = QuantModel((fc_layer(w1_eff, binarized=False), act,
                            fc_layer(w2_eff, binarized=False)))
            out, _ = reference_inference(m, x)
            return 0.5 * np.mean(np.sum((out - y) ** 2, axis=1))

        eps = 1e-6
        w1_bin = binarize(w1)
        for layer_idx, (w_eff_base, other) in enumerate(
                ((w1_bin, w2), (w2, w1_bin))):
            num = np.zeros_like(w_eff_base)
            for i in range(w_eff_base.shape[0]):
                for j in range(w_eff_base.shape[1]):
                    hi = w_eff_base.copy()
                    lo = w_eff_base.copy()
                    hi[i, j] += eps
                    lo[i, j] -= eps
                    if layer_idx == 0:
                        num[i, j] = (loss_at(hi, w2) - loss_at(lo, w2)) \
                            / (2 * eps)
                    else:
                        num[i, j] = (loss_at(w1_bin, hi)
                                     - loss_at(w1_bin, lo)) / (2 * eps)
            rel = np.abs(grads[layer_idx] - num) \
                / np.maximum(np.abs(num), 1e-8)
            assert np.max(rel) < 1e-4


def ordered_model(order: str, quantize: bool) -> QuantModel:
    """A 3 -> 4 -> 2 net from a layer order such as "fc relu fc"; the first
    FC layer is binarized, the others full precision."""
    rng = np.random.Generator(np.random.PCG64(31))
    widths = iter((3, 4, 2))
    n_in = next(widths)
    layers = []
    for name in order.split():
        if name == "fc":
            n_out = next(widths)
            layers.append(fc_layer(rng.normal(size=(n_out, n_in)),
                                   binarized=not layers))
            n_in = n_out
        else:
            layers.append(activation_layer(name, quantize=quantize))
    return QuantModel(tuple(layers))


def order_data():
    rng = np.random.Generator(np.random.PCG64(32))
    return rng.uniform(0.1, 1.0, size=(8, 3)), rng.uniform(-1, 1, (8, 2))


TRAINABLE_ORDERS = {"toy-mlp": "fc relu fc", "fc-fc": "fc fc",
                    "fc-identity-fc": "fc identity fc",
                    "fc-relu-fc-relu": "fc relu fc relu"}


class TestTrainerRunsInferenceWalk:
    @pytest.mark.parametrize("order", TRAINABLE_ORDERS.values(),
                             ids=TRAINABLE_ORDERS.keys())
    def test_training_forward_is_reference_inference(self, order,
                                                     monkeypatch):
        # the [0, 1] quantizer clamps like a ReLU, so an identity activation
        # only differs from a ReLU when unquantized
        x, y = order_data()
        seen = []
        loss_and_grad = bnn._loss_and_grad
        monkeypatch.setattr(bnn, "_loss_and_grad", lambda out, *rest: (
            seen.append(out) or loss_and_grad(out, *rest)))
        for quantize in (True, False):
            model = ordered_model(order, quantize)
            ste_gradient(model, x, y, loss="mse")
            logits, _ = reference_inference(model, x)
            assert np.array_equal(seen.pop(), logits)

    @pytest.mark.parametrize("order", TRAINABLE_ORDERS.values(),
                             ids=TRAINABLE_ORDERS.keys())
    def test_gradient_matches_central_differences(self, order):
        # surrogate: sign replaced by the identity at the binarization
        # point, activations unquantized, as in acceptance criterion 8
        model = ordered_model(order, quantize=False)
        x, y = order_data()
        grads = ste_gradient(model, x, y, loss="mse")
        base = [l.effective_weights() for l in model.layers if l.weighted]

        def loss_at(weights):
            it = iter(weights)
            m = QuantModel(tuple(
                fc_layer(next(it), binarized=False)
                if l.kind == LayerKind.FULLY_CONNECTED else l
                for l in model.layers))
            out, _ = reference_inference(m, x)
            return 0.5 * np.mean(np.sum((out - y) ** 2, axis=1))

        eps = 1e-6
        for k, w in enumerate(base):
            num = np.zeros_like(w)
            for idx in np.ndindex(w.shape):
                hi = [b.copy() for b in base]
                lo = [b.copy() for b in base]
                hi[k][idx] += eps
                lo[k][idx] -= eps
                num[idx] = (loss_at(hi) - loss_at(lo)) / (2 * eps)
            rel = np.abs(grads[k] - num) / np.maximum(np.abs(num), 1e-8)
            assert np.max(rel) < 1e-4

    @pytest.mark.parametrize("order", ["fc relu relu fc", "relu fc relu fc"])
    def test_undifferentiable_order_rejected(self, order):
        model = ordered_model(order, quantize=True)
        x, y = order_data()
        with pytest.raises(DomainError):
            ste_gradient(model, x, y, loss="mse")
        with pytest.raises(DomainError):
            ste_train(model, x, y, epochs=1, lr=0.1, loss="mse")


def raw_input_models():
    """{name: (model, batch)} of models whose first layers work on the raw
    input: a batch norm and a ReLU ("fc", "conv"), or a quantizer alone
    ("quantized-input"). Further on, ReLU, the fold and a quantizer follow
    a dot output, and an identity quantizer reads one."""
    rng = np.random.Generator(np.random.PCG64(73))

    def bn(c):
        return batch_norm_layer(rng.uniform(0.5, 1.5, c),
                                rng.normal(0.0, 0.1, c),
                                rng.normal(0.0, 0.1, c),
                                rng.uniform(0.5, 1.5, c))
    fc = QuantModel((
        bn(8), activation_layer(),
        fc_layer(rng.normal(size=(6, 8))), bn(6), activation_layer(),
        fc_layer(rng.normal(size=(5, 6))), activation_layer("identity"),
        fc_layer(rng.normal(size=(3, 5)), binarized=False)))
    conv = QuantModel((
        bn(3), activation_layer(),
        conv_layer(rng.normal(size=(4, 3, 3, 3))), bn(4), activation_layer(),
        pool_layer(2),
        conv_layer(rng.normal(size=(5, 4, 2, 2))),
        activation_layer("identity"),
        fc_layer(rng.normal(size=(3, 20)), binarized=False)))
    quantized = QuantModel((
        activation_layer("identity"), fc_layer(rng.normal(size=(4, 8))),
        activation_layer(), fc_layer(rng.normal(size=(3, 4)),
                                     binarized=False)))
    # binarized layers on values outside [0, 1]: a 1x1 conv whose patches
    # are a view of the batch, and an FC on another FC's dot output
    raw_conv = QuantModel((
        conv_layer(rng.normal(size=(2, 1, 1, 1))),
        fc_layer(rng.normal(size=(4, 72))), fc_layer(rng.normal(size=(3, 4))),
        activation_layer("identity"),
        fc_layer(rng.normal(size=(3, 3)), binarized=False)))
    return {"fc": (fc, rng.uniform(-0.2, 1.2, (9, 8))),
            "conv": (conv, rng.uniform(-0.2, 1.2, (5, 3, 8, 8))),
            "quantized-input": (quantized, rng.uniform(-0.2, 1.2, (9, 8))),
            "raw-conv": (raw_conv, rng.uniform(-0.2, 1.2, (5, 1, 6, 6)))}


def warm_up_walk():
    """A reference walk of a conv model whose shapes no test model has, so
    that the kernels' workspace holds its scratch from another model."""
    rng = np.random.Generator(np.random.PCG64(79))
    model = QuantModel((
        conv_layer(rng.normal(size=(7, 2, 3, 3))), activation_layer(),
        pool_layer(2), conv_layer(rng.normal(size=(9, 7, 2, 2))),
        activation_layer(), fc_layer(rng.normal(size=(4, 324)))))
    reference_inference(model, rng.uniform(0.0, 1.0, (23, 2, 16, 16)))


class TestWalkKeepsItsInputs:
    """The walk works in place only on arrays it allocated: never on the
    caller's batch, nor on what a dot callback returned; each test runs
    after a walk of another model (``warm_up_walk``)."""

    @pytest.fixture(autouse=True)
    def warm_workspace(self):
        warm_up_walk()

    @pytest.mark.parametrize("folded", [False, True])
    @pytest.mark.parametrize("name", list(raw_input_models()))
    def test_batch_and_dot_results(self, name, folded):
        model, x = raw_input_models()[name]
        before = x.tobytes()
        returned = []

        def dot(li, layer, v):
            out = bnn.exact_dot(li, layer, v)
            returned.append((out, out.tobytes()))
            return out

        logits = bnn.forward(model, x, dot, folded)
        assert x.tobytes() == before
        assert len(returned) == sum(l.weighted for l in model.layers)
        for out, bytes_at_return in returned:
            assert out.tobytes() == bytes_at_return
        ref, _ = reference_inference(model, x, folded=folded)
        assert x.tobytes() == before
        assert ref.tobytes() == logits.tobytes()

    @pytest.mark.parametrize("order", TRAINABLE_ORDERS.values(),
                             ids=TRAINABLE_ORDERS.keys())
    def test_ste_gradient_equals_a_walk_on_copies(self, order):
        # small inputs put pre-activations in (0, 1/30), which the 4-bit
        # quantizer sends to 0: a tape whose FC outputs had been quantized
        # in place would mask them out of the ReLU gradient
        model = ordered_model(order, quantize=True)
        x, y = order_data()
        x = x / 20.0
        before = x.tobytes()
        kept, a = {}, x.copy()
        for li, layer in enumerate(model.layers):
            if layer.kind == LayerKind.FULLY_CONNECTED:
                kept[li] = (a, a @ layer.effective_weights().T)
                a = kept[li][1].copy()
            else:
                if layer.activation == "relu":
                    a = np.maximum(a, 0.0)
                a = quantize_activation(a, model.activation_bits)
        _, g = bnn._loss_and_grad(a, y, "mse")
        want = {}
        for li in reversed(range(len(model.layers))):
            layer = model.layers[li]
            if layer.kind == LayerKind.FULLY_CONNECTED:
                want[li] = g.T @ kept[li][0]
                g = g @ layer.effective_weights()
            elif layer.activation == "relu":
                g = g * (kept[li - 1][1] > 0.0)
        assert any(0.0 < v < 1 / 30 for h in kept.values()
                   for v in h[1].ravel())
        got = ste_gradient(model, x, y, loss="mse")
        assert x.tobytes() == before
        assert len(got) == len(want)
        for g_got, li in zip(got, sorted(want)):
            assert np.array_equal(g_got, want[li])


class TestToValues:
    """``to_values`` lays the levels out in memory as the codes are, and
    holds no more than its result while it reads them; ``exact_dot`` reads
    codes a block of samples at a time."""

    @pytest.mark.parametrize("view", [
        lambda c: c, lambda c: c.transpose(2, 0, 1), lambda c: c[:, ::2],
        lambda c: c.transpose(1, 0, 2)[:, :, 1:]],
        ids=["C", "transposed", "strided", "transposed-strided"])
    def test_layout_and_values(self, view):
        levels = bnn.activation_levels(3)
        codes = view(np.random.Generator(np.random.PCG64(3)).integers(
            0, levels.size, (4, 6, 5)).astype(np.uint8))
        got = bnn.to_values(bnn.Codes(codes, levels))
        want = np.empty_like(codes, dtype=np.float64)
        want[...] = levels[codes]
        assert got.strides == want.strides
        assert np.array_equal(got, want)

    def test_peak_is_the_result(self):
        levels = bnn.activation_levels(4)
        codes = np.random.Generator(np.random.PCG64(4)).integers(
            0, levels.size, (3136, 144)).astype(np.uint8)
        tracemalloc.start()
        try:
            bnn.to_values(bnn.Codes(codes, levels))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.05 * codes.size * 8

    @pytest.mark.parametrize("shape", [(37, 20), (9, 5, 12)],
                             ids=["fc", "conv"])
    def test_exact_dot_in_blocks(self, monkeypatch, shape):
        rng = np.random.Generator(np.random.PCG64(8))
        levels = bnn.activation_levels(3)
        codes = rng.integers(0, levels.size, shape).astype(np.uint8)
        layer = fc_layer(rng.normal(size=(6, shape[-1])))
        want = levels[codes] @ layer.effective_weights().T
        # blocks of 3 samples
        monkeypatch.setattr(bnn, "BLOCK_BYTES", 3 * codes[0].size * 8)
        got = bnn.exact_dot(0, layer, bnn.Codes(codes, levels))
        assert got.shape == shape[:-1] + (6,)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_exact_dot_holds_one_block(self):
        rng = np.random.Generator(np.random.PCG64(9))
        levels = bnn.activation_levels(4)
        codes = rng.integers(0, levels.size, (512, 1568)).astype(np.uint8)
        layer = fc_layer(rng.normal(size=(128, 1568)))
        tracemalloc.start()
        try:
            bnn.exact_dot(0, layer, bnn.Codes(codes, levels))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the layer's float weights, the result and one block of values
        assert peak <= (128 * 1568 + 512 * 128) * 8 + 1.25 * bnn.BLOCK_BYTES


class TestChunks:
    """A walk takes the batch in balanced chunks within ``CHUNK_BYTES``,
    which the layers before the first FC layer take in balanced parts; a
    batch that fits is one part of one chunk."""

    def test_toy_batch_is_one_chunk(self, toy_model, toy_data):
        assert len(toy_data.x_test) == 256
        assert bnn.chunks(toy_model, toy_data.x_test) == [[slice(0, 256)]]

    def test_conv_sim_batch_is_two_halves(self, conv_sim):
        model, x = conv_sim
        assert len(x) == 64
        assert bnn.chunks(model, x) == [[slice(0, 32), slice(32, 64)]]

    @staticmethod
    def assert_balanced(parts, start, stop, largest):
        """``parts`` tile ``start:stop`` in lengths that differ by at most
        1, each within the budget for ``largest`` elements a sample, or
        are one part."""
        sizes = [s.stop - s.start for s in parts]
        assert parts[0].start == start and parts[-1].stop == stop
        assert all(a.stop == b.start for a, b in zip(parts, parts[1:]))
        assert max(sizes) - min(sizes) <= 1
        assert len(parts) == 1 or max(sizes) * largest * 8 <= bnn.CHUNK_BYTES

    @pytest.mark.parametrize("n", [0, 1, 37, 38, 65, 208, 209, 1024])
    def test_balanced_within_budget(self, conv_sim, n):
        model, x = conv_sim
        batch = np.broadcast_to(x[:1], (n,) + x.shape[1:])
        plan = bnn.chunks(model, batch)
        # the FC layers' largest array of a sample is their 1,568 inputs
        self.assert_balanced([slice(p[0].start, p[-1].stop) for p in plan],
                             0, n, 32 * 7 * 7)
        # the convs' is conv 1's patches, 18 * 18 positions of 27 inputs
        for parts in plan:
            self.assert_balanced(parts, parts[0].start, parts[-1].stop,
                                 18 * 18 * 27)
        assert len(plan) == (1 if n <= 208 else -(-n // 208))

    def test_fc_chunk_does_not_follow_the_patches(self, monkeypatch):
        # 3 x 32 x 32 images: 194 KB of conv patches an image, so the conv
        # takes 13 images at a time, and the FC all 64 (28.8 KB an image)
        rng = np.random.Generator(np.random.PCG64(5))
        model = QuantModel((
            conv_layer(rng.normal(size=(16, 3, 3, 3))), activation_layer(),
            pool_layer(2), fc_layer(rng.normal(size=(10, 16 * 15 * 15)))))
        x = rng.uniform(0.0, 1.0, (64, 3, 32, 32))
        plan = bnn.chunks(model, x)
        assert [[s.stop - s.start for s in p] for p in plan] == \
            [[12, 13, 13, 13, 13]]
        rows = []
        original = bnn.exact_dot

        def spy(li, layer, v):
            rows.append((li, v.shape[0]))
            return original(li, layer, v)

        monkeypatch.setattr(bnn, "exact_dot", spy)
        logits = bnn.walk(model, x, bnn.exact_dot)
        assert rows == [(0, 12), (0, 13), (0, 13), (0, 13), (0, 13), (3, 64)]
        np.testing.assert_allclose(logits, bnn.forward(model, x, original),
                                   rtol=1e-12, atol=1e-12)

    def test_model_without_fc(self):
        # one slice in 4 parts (13 images fit the budget), whose outputs
        # are the logits
        rng = np.random.Generator(np.random.PCG64(6))
        model = QuantModel((conv_layer(rng.normal(size=(4, 3, 3, 3))),
                            activation_layer()))
        x = rng.uniform(0.0, 1.0, (40, 3, 32, 32))
        assert [[s.stop - s.start for s in p]
                for p in bnn.chunks(model, x)] == [[10, 10, 10, 10]]
        np.testing.assert_allclose(bnn.walk(model, x, bnn.exact_dot),
                                   bnn.forward(model, x, bnn.exact_dot),
                                   rtol=1e-12, atol=1e-12)

    def test_walk_is_forward_per_chunk(self, conv_sim, monkeypatch):
        model, x = conv_sim
        whole = bnn.forward(model, x, bnn.exact_dot)
        walked = []
        original = bnn.forward

        def spy(model, a, *args, **kwargs):
            walked.append((a.shape[0], kwargs))
            return original(model, a, *args, **kwargs)

        monkeypatch.setattr(bnn, "forward", spy)
        logits, _ = reference_inference(model, x)
        # the convs walk the halves, the layers from the first FC (7) on
        # the joined codes
        calls = [(32, {"stop": 7}), (32, {"stop": 7}), (64, {"start": 7})]
        assert walked == calls
        np.testing.assert_allclose(logits, whole, rtol=1e-12, atol=1e-12)
        assert accuracy(model, x, np.argmax(whole, axis=1)) == 1.0
        assert walked == calls * 2


class TestBlobs:
    def test_deterministic(self):
        a = make_blobs(100, 20, 5, 3, 0.2, 42)
        b = make_blobs(100, 20, 5, 3, 0.2, 42)
        assert np.array_equal(a.x_train, b.x_train)
        assert np.array_equal(a.y_test, b.y_test)

    def test_unit_range(self):
        d = make_blobs(200, 50, 6, 4, 0.3, 8)
        allx = np.vstack([d.x_train, d.x_test])
        assert allx.min() >= 0.0 and allx.max() <= 1.0

    def test_shapes_and_labels(self):
        d = make_blobs(90, 30, 4, 3, 0.2, 1)
        assert d.x_train.shape == (90, 4)
        assert d.x_test.shape == (30, 4)
        assert set(np.unique(d.y_train)) <= {0, 1, 2}
