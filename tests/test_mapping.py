import math

import numpy as np
import pytest

from mrbnn import bnn
from mrbnn.bnn import (LayerShape, QuantModel, activation_layer, conv_layer,
                       fc_layer)
from mrbnn.errors import DomainError, PhysicalConstraintError
from mrbnn.mapping import (AcceleratorConfig, ModelStructure, build_comb,
                           build_work_plan, decompose_conv, decompose_fc)


def direct_conv(kernel, x, stride=1):
    k = np.asarray(kernel, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if k.ndim == 2:
        k = k[None, None]
    if x.ndim == 2:
        x = x[None]
    oc, ic, kh, kw = k.shape
    _, h, w = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    out = np.zeros((oc, oh, ow))
    for c in range(oc):
        for oy in range(oh):
            for ox in range(ow):
                out[c, oy, ox] = np.sum(
                    x[:, oy * stride:oy * stride + kh,
                      ox * stride:ox * stride + kw] * k[c])
    return out


class TestDecomposeConv:
    def test_single_slice_when_granularity_covers(self):
        k = np.array([[1.0, 2.0], [3.0, 4.0]])
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        (dec,) = decompose_conv(k, a, granularity=4)
        assert len(dec.weight_slices) == 1
        assert dec.reconstruct() == pytest.approx(10.0)

    def test_partial_sum_structure(self):
        k = np.array([[1.0, -1.0], [1.0, -1.0]])
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        (dec,) = decompose_conv(k, a, granularity=2)
        ps = dec.partial_sums()
        assert ps == [pytest.approx(-1.0), pytest.approx(-1.0)]
        assert dec.reconstruct() == pytest.approx(-2.0)

    def test_exact_reconstruction_all_granularities(self):
        rng = np.random.Generator(np.random.PCG64(23))
        k = rng.integers(-3, 4, size=(2, 2, 3, 3)).astype(float)
        x = rng.integers(0, 8, size=(2, 8, 8)).astype(float)
        oracle = direct_conv(k, x)
        for g in range(1, 10):
            decs = decompose_conv(k, x, granularity=g)
            rebuilt = np.zeros_like(oracle)
            for d in decs:
                rebuilt[d.output_index] = d.reconstruct()
            assert np.array_equal(rebuilt, oracle)  # integer domain: exact

    def test_strided(self):
        rng = np.random.Generator(np.random.PCG64(4))
        k = rng.integers(-2, 3, size=(1, 1, 2, 2)).astype(float)
        x = rng.integers(0, 5, size=(1, 6, 6)).astype(float)
        oracle = direct_conv(k, x, stride=2)
        decs = decompose_conv(k, x, granularity=3, stride=2)
        rebuilt = np.zeros_like(oracle)
        for d in decs:
            rebuilt[d.output_index] = d.reconstruct()
        assert np.array_equal(rebuilt, oracle)

    def test_coverage(self):
        k = np.ones((1, 1, 3, 3))
        x = np.ones((1, 5, 5))
        for g in (2, 4, 9):
            for d in decompose_conv(k, x, granularity=g):
                assert sum(s.size for s in d.weight_slices) == 9
                assert all(s.size <= g for s in d.weight_slices)

    def test_errors(self):
        with pytest.raises(DomainError):
            decompose_conv(np.ones((2, 2)), np.ones((2, 2)), granularity=0)
        with pytest.raises(DomainError):
            decompose_conv(np.ones((4, 4)), np.ones((2, 2)), granularity=2)


class TestDecomposeFc:
    def test_one_by_one(self):
        (dec,) = decompose_fc(np.array([[3.0]]), np.array([2.0]), 4)
        assert dec.reconstruct() == pytest.approx(6.0)

    def test_sign_matrix(self):
        rng = np.random.Generator(np.random.PCG64(6))
        w = bnn.binarize(rng.normal(size=(4, 4)))
        a = rng.integers(0, 16, size=4).astype(float)
        oracle = w @ a
        decs = decompose_fc(w, a, granularity=2)
        rebuilt = np.array([d.reconstruct() for d in decs])
        assert np.array_equal(rebuilt, oracle)

    def test_wide_granularity_single_slice_per_row(self):
        w = np.ones((3, 5))
        decs = decompose_fc(w, np.ones(5), granularity=8)
        assert all(len(d.weight_slices) == 1 for d in decs)

    def test_random_exactness(self):
        rng = np.random.Generator(np.random.PCG64(7))
        for _ in range(20):
            rows, cols = rng.integers(1, 9, 2)
            g = int(rng.integers(1, 10))
            w = rng.integers(-5, 6, size=(rows, cols)).astype(float)
            a = rng.integers(0, 10, size=cols).astype(float)
            rebuilt = [d.reconstruct() for d in decompose_fc(w, a, g)]
            assert np.array_equal(rebuilt, w @ a)

    def test_float_reconstruction_tolerance(self):
        # non-integer values: the order-stable partial-sum reduction stays
        # within 1e-9 of the direct product
        rng = np.random.Generator(np.random.PCG64(9))
        w = rng.normal(size=(6, 40))
        a = rng.normal(size=40)
        for g in (1, 3, 7, 40):
            rebuilt = [d.reconstruct() for d in decompose_fc(w, a, g)]
            assert np.allclose(rebuilt, w @ a, atol=1e-9)


DUMP_LITERAL = """\
layer output chunk vdp arm step len c_fold
0 0 0 0 0 0 4 0.577350269
0 0 1 0 1 0 1 0.577350269
0 1 0 0 2 0 4 0.5
0 1 1 1 0 0 1 0.5
3 0 0 0 0 0 2 1
3 1 0 0 1 0 2 1
3 2 0 0 2 0 2 1
3 3 0 1 0 0 2 1
3 4 0 1 1 0 2 1
3 5 0 1 2 0 2 1
3 6 0 0 0 1 2 1
"""


class TestWorkPlan:
    def small_cfg(self, **kw):
        base = dict(n_a=4, n_vdp=2, n_wg=3, mr_pitch_um=5.0)
        base.update(kw)
        return AcceleratorConfig(**base)

    def test_single_step_when_capacity_matches(self):
        cfg = self.small_cfg()
        # one layer with exactly n_vdp * n_wg * n_a = 24 weights
        model = QuantModel((fc_layer(np.ones((6, 4))),))
        plan = build_work_plan(model, cfg)
        assert plan.steps_per_layer == (1,)

    def test_empty_model(self):
        plan = build_work_plan(QuantModel(()), self.small_cfg())
        assert len(plan.slices) == 0
        assert plan.total_steps == 0

    def test_every_weight_exactly_once(self):
        rng = np.random.Generator(np.random.PCG64(8))
        model = QuantModel((
            fc_layer(rng.normal(size=(5, 7))), activation_layer(),
            fc_layer(rng.normal(size=(3, 5)), binarized=False)))
        cfg = self.small_cfg()
        s = build_work_plan(model, cfg).slices
        assert (s["length"].sum()
                == ModelStructure.from_model(model).parameter_count)
        assert np.array_equal(s["offset"], s["chunk"] * cfg.n_a)
        # count how often each weight of each layer is covered
        for li, layer in enumerate(model.layers):
            if layer.weights is None:
                continue
            covered = np.zeros(layer.weights.shape, dtype=int)
            for row in s[s["layer"] == li]:
                covered[row["output"],
                        row["offset"]:row["offset"] + row["length"]] += 1
            assert np.all(covered == 1)

    def test_slice_length_cap_and_round_robin(self):
        cfg = self.small_cfg()
        model = QuantModel((fc_layer(np.ones((4, 10))),))
        s = build_work_plan(model, cfg).slices
        assert np.all(s["length"] <= cfg.n_a)
        slots = list(zip(s["vdp"][:6].tolist(), s["arm"][:6].tolist()))
        assert slots == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
        assert s["step"][6] == 1

    def test_steps_non_increasing_in_resources(self):
        model = QuantModel((fc_layer(np.ones((16, 16))),))
        base = dict(n_a=2, n_vdp=2, n_wg=2)
        steps0 = build_work_plan(model, AcceleratorConfig(**base)).total_steps
        for key in ("n_a", "n_vdp", "n_wg"):
            grown = dict(base)
            grown[key] = 4
            assert build_work_plan(
                model, AcceleratorConfig(**grown)).total_steps <= steps0

    def test_fold_constant_attached(self):
        gamma = np.array([2.0, 0.5])
        var = np.array([3.0, 0.0])
        model = QuantModel((
            fc_layer(np.ones((2, 4))),
            bnn.batch_norm_layer(gamma, np.zeros(2), np.zeros(2), var,
                                 epsilon=1.0),
            activation_layer()))
        s = build_work_plan(model, self.small_cfg()).slices
        expected = gamma / np.sqrt(var + 1.0)
        assert np.allclose(s["c_fold"], expected[s["output"]], rtol=1e-12)

    def test_dump_is_textual(self):
        model = QuantModel((fc_layer(np.ones((2, 3))),))
        text = build_work_plan(model, self.small_cfg()).dump()
        assert text.startswith("layer output chunk vdp arm step len c_fold")
        assert len(text.strip().split("\n")) == 3

    def test_dump_literal(self):
        # two weighted layers, the first folded with a batch norm; the
        # second spills into a second step
        model = QuantModel((
            fc_layer(np.ones((2, 5))),
            bnn.batch_norm_layer([1.0, 0.5], np.zeros(2), np.zeros(2),
                                 [2.0, 0.0], epsilon=1.0),
            activation_layer(),
            fc_layer(np.ones((7, 2)), binarized=False)))
        assert build_work_plan(model, self.small_cfg()).dump() == DUMP_LITERAL


class TestAcceleratorConfig:
    def test_basic_counts(self):
        cfg = AcceleratorConfig(n_a=10, n_vdp=50, n_wg=10)
        assert cfg.weights_per_vdp_step == 100
        assert cfg.arm_activation_mrs == 10
        assert cfg.mrs_per_arm == 31    # activations, two rails, filter
        assert cfg.total_mrs == 50 * 10 * 31
        assert cfg.n_lambda == 10
        assert cfg.dacs_per_vdp == 10

    def test_overcommitted_n_a_distributes_over_arms(self):
        cfg = AcceleratorConfig(n_a=50, n_vdp=200, n_wg=10)
        assert cfg.weights_per_vdp_step == 500   # throughput-side reading
        assert cfg.arm_activation_mrs == 5       # physical-side reading
        assert cfg.n_lambda == 5
        cfg.validate()

    def test_validation_errors(self):
        with pytest.raises(DomainError):
            AcceleratorConfig(n_a=0, n_vdp=1, n_wg=1)
        with pytest.raises(PhysicalConstraintError):
            AcceleratorConfig(n_a=21, n_vdp=1, n_wg=1).validate()


class TestWavelengths:
    @staticmethod
    def comb(cfg):
        return build_comb(cfg.n_lambda, cfg.channel_spacing_nm,
                          cfg.center_wavelength_nm, cfg.passband_nm)

    def test_reuse_across_arms(self):
        # one comb serves every arm: N_lambda = N_A, not N_A * N_WG
        cfg = AcceleratorConfig(n_a=10, n_vdp=3, n_wg=10)
        assert cfg.n_lambda == cfg.arm_activation_mrs == 10
        assert len(set(self.comb(cfg))) == 10

    def test_comb_fits_passband(self):
        comb = build_comb(15, 1.0, 1550.0, 20.0)
        assert max(comb) - min(comb) == pytest.approx(14.0)

    def test_passband_violation(self):
        with pytest.raises(PhysicalConstraintError):
            build_comb(21, 1.0, 1550.0, 20.0)
        cfg = AcceleratorConfig(n_a=21, n_vdp=1, n_wg=1)
        with pytest.raises(PhysicalConstraintError):
            cfg.validate()
        with pytest.raises(PhysicalConstraintError):
            self.comb(cfg)

    def test_spacing_violation(self):
        with pytest.raises(PhysicalConstraintError):
            build_comb(15, 1.5, 1550.0, 20.0)

    def test_n_lambda_equals_n_a_for_valid_configs(self):
        for n_a in (1, 5, 10, 15):
            for n_wg in (1, 4, 10):
                cfg = AcceleratorConfig(n_a=n_a, n_vdp=2, n_wg=n_wg)
                cfg.validate()
                assert cfg.n_lambda == n_a
                assert len(set(self.comb(cfg))) == n_a


class TestModelStructure:
    def test_counts(self):
        s = ModelStructure.from_counts((59508, 1064, 70))
        assert s.shapes == (LayerShape(0, 1, 59508), LayerShape(1, 1, 1064),
                            LayerShape(2, 1, 70))
        assert s.parameter_count == 60642
        assert s.total_bits == 60642 * 5
        assert ModelStructure.from_counts(()).shapes == ()

    def test_from_model(self):
        model = QuantModel((fc_layer(np.ones((4, 8))), activation_layer(),
                            fc_layer(np.ones((2, 4)), binarized=False)))
        s = ModelStructure.from_model(model)
        assert s.shapes == (LayerShape(0, 4, 8), LayerShape(2, 2, 4))
        assert s.parameter_count == 40
        assert s.activation_bits == 4

    @pytest.mark.parametrize("seed", range(20))
    def test_a_count_keeps_its_steps(self, seed):
        # an FC layer of one row and c inputs takes ceil(c / (n_a * slots))
        # steps, slots = n_vdp * n_wg: what a workload count c stands for
        rng = np.random.Generator(np.random.PCG64(seed))
        cfg = AcceleratorConfig(n_a=int(rng.integers(1, 60)),
                                n_vdp=int(rng.integers(1, 12)),
                                n_wg=int(rng.integers(1, 12)))
        c = int(rng.integers(1, 5000))
        model = QuantModel((fc_layer(np.ones((1, c))),))
        assert build_work_plan(model, cfg).steps_per_layer == (
            math.ceil(c / (cfg.n_a * cfg.n_vdp * cfg.n_wg)),)
        assert ModelStructure.from_counts((c,)).shapes == model.shapes
