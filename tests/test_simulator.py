import math
from dataclasses import replace

import numpy as np
import pytest

from mrbnn import bnn, config, photonics, simulator
from mrbnn.bnn import (QuantModel, activation_layer, fc_layer,
                       quantize_activation, reference_inference)
from mrbnn.errors import DomainError
from mrbnn.mapping import (AcceleratorConfig, ModelStructure, build_comb,
                           build_work_plan)
from mrbnn.photonics import RingClass
from mrbnn.simulator import (ChipFpvMap, LossBudget, _perturbation_ratios,
                             area_estimate, area_from_counts,
                             build_photonic_mapping, chip_budget,
                             chip_fpv_map, fpv_accuracy_sweep, laser_power,
                             loss_accounting, mr_footprint_um2,
                             noisy_inference, path_loss_db, pipeline_time,
                             power_and_epb, required_bandwidth_gb_s,
                             tuning_power_budget)


@pytest.fixture(scope="module")
def eo_cfg(toolkit_config):
    return config.arch_config(toolkit_config, "eo")


@pytest.fixture(scope="module")
def po_cfg(toolkit_config):
    return config.arch_config(toolkit_config, "po")


def zero_chip_map(cfg):
    arms = cfg.n_vdp * cfg.n_wg
    return ChipFpvMap(
        act_delta_nm=np.zeros(arms * cfg.arm_activation_mrs),
        weight_pos_delta_nm=np.zeros(arms * cfg.arm_weight_mrs),
        weight_neg_delta_nm=np.zeros(arms * cfg.arm_weight_mrs),
        broadband_delta_nm=np.zeros(arms * cfg.n_b))


class TestLossAccounting:
    def test_zero_path(self, env):
        assert path_loss_db(env.loss) == 0.0

    def test_through_mrs_only(self, env):
        assert path_loss_db(env.loss, through_mrs=10) \
            == pytest.approx(0.2, rel=1e-12)

    def test_component_sum(self, env):
        got = path_loss_db(env.loss, length_cm=1.0, splitters=1, combiners=1)
        assert got == pytest.approx(1.0 + 0.13 + 0.9, rel=1e-12)

    def test_arm_loss_structure(self, env, eo_cfg):
        loss = loss_accounting(eo_cfg, env)
        stages = math.ceil(math.log2(eo_cfg.n_wg * eo_cfg.n_vdp))
        assert loss.fanout_db == pytest.approx(
            stages * 10 * math.log10(2), rel=1e-12)
        assert loss.arm_path_db > env.loss.broadband_insertion_db
        assert loss.total_db == loss.arm_path_db + loss.fanout_db


class TestLaserPower:
    def test_single_channel_no_loss(self):
        lp = laser_power(1, 0.0, -20.0)
        assert lp.dbm == pytest.approx(-20.0)
        assert lp.mw == pytest.approx(0.01, rel=1e-12)

    def test_ten_channels(self):
        lp = laser_power(10, 3.0, -20.0)
        assert lp.dbm == pytest.approx(-7.0, rel=1e-12)
        assert lp.mw == pytest.approx(0.19952623, rel=1e-6)

    def test_log_law(self):
        a = laser_power(10, 5.0, -20.0)
        b = laser_power(100, 5.0, -20.0)
        assert b.dbm - a.dbm == pytest.approx(10.0, rel=1e-12)

    def test_loss_multiplicative_in_mw(self):
        base = laser_power(4, 7.0, -20.0).mw
        doubled = laser_power(4, 7.0 + 10 * math.log10(2), -20.0).mw
        assert doubled == pytest.approx(2 * base, rel=1e-6)

    def test_validation(self):
        with pytest.raises(DomainError):
            laser_power(0, 0.0, -20.0)


class TestPipeline:
    def test_zero_params(self, env, eo_cfg):
        t = pipeline_time(ModelStructure("empty", ()), eo_cfg, env)
        assert t.steps == 0
        assert t.total_ns == pytest.approx(t.t_del_ns)

    def test_exact_capacity_single_step(self, env, po_cfg):
        s = ModelStructure("m", (100_000,))
        t = pipeline_time(s, po_cfg, env)
        assert t.steps == 1 and t.buffered_steps == 1

    def test_table_model_steps(self, env, po_cfg):
        assert pipeline_time(ModelStructure("m1", (59508, 1064, 70)),
                             po_cfg, env).steps == 1
        assert pipeline_time(ModelStructure("m3", (13500000, 70000, 186)),
                             po_cfg, env).steps == 136

    def test_affine_in_steps(self, env, po_cfg):
        # past the ECU buffer the buffered term is constant, so total(X)
        # must be exactly affine with slope delta_t
        per_step = po_cfg.weights_per_vdp_step * po_cfg.n_vdp
        xs, totals = [], []
        for mult in (2, 3, 5):
            s = ModelStructure("m", (per_step * mult,))
            t = pipeline_time(s, po_cfg, env)
            xs.append(t.steps)
            totals.append(t.total_ns)
        slope = (totals[1] - totals[0]) / (xs[1] - xs[0])
        assert slope == pytest.approx(t.delta_t_ns, rel=1e-12)
        predicted = totals[0] + slope * (xs[2] - xs[0])
        assert totals[2] == pytest.approx(predicted, rel=1e-12)

    def test_t_del_is_full_path(self, env, eo_cfg):
        t = pipeline_time(ModelStructure("m", (10,)), eo_cfg, env)
        p = env.power
        expected = (p.dac.latency_ns + env.tuning_params.eo_latency_ns
                    + p.photodetector.latency_ns + p.tia.latency_ns
                    + p.vcsel.latency_ns + p.adc.latency_ns)
        assert t.t_del_ns == pytest.approx(expected, rel=1e-12)


class TestArea:
    def test_single_mr_footprint(self):
        assert mr_footprint_um2(5.0, 5.0) == pytest.approx(
            math.pi * 7.5**2, rel=1e-12)
        assert mr_footprint_um2(5.0, 5.0) == pytest.approx(176.7146,
                                                           abs=1e-3)

    def test_zero_counts_is_overhead_only(self, env, eo_cfg):
        got = area_from_counts(0, 0, 0, 0, 0, 0, eo_cfg, env)
        assert got == pytest.approx(env.area.global_overhead_mm2)

    def test_monotone_in_dimensions(self, env, eo_cfg):
        base = area_estimate(eo_cfg, env)
        for key in ("n_a", "n_vdp", "n_wg"):
            grown = replace(eo_cfg, **{key: getattr(eo_cfg, key) + 1})
            assert area_estimate(grown, env) > base


class TestBandwidth:
    def test_po_within_2x_of_target(self, env, po_cfg):
        bw = required_bandwidth_gb_s(po_cfg, env)
        assert 93.75 / 2 <= bw <= 93.75 * 2

    def test_scales_with_dacs(self, env, eo_cfg, po_cfg):
        assert required_bandwidth_gb_s(po_cfg, env) \
            > required_bandwidth_gb_s(eo_cfg, env)


class TestChipMap:
    def test_deterministic(self, env, eo_cfg):
        a = chip_fpv_map(eo_cfg, env, 3)
        b = chip_fpv_map(eo_cfg, env, 3)
        assert a.act_delta_nm.tobytes() == b.act_delta_nm.tobytes()
        c = chip_fpv_map(eo_cfg, env, 4)
        assert a.act_delta_nm.tobytes() != c.act_delta_nm.tobytes()

    def test_population_sizes(self, env, eo_cfg):
        m = chip_fpv_map(eo_cfg, env, 0)
        arms = eo_cfg.n_vdp * eo_cfg.n_wg
        assert m.act_delta_nm.size == arms * eo_cfg.arm_activation_mrs
        assert m.weight_pos_delta_nm.size == arms * eo_cfg.arm_weight_mrs
        assert m.broadband_delta_nm.size == arms * eo_cfg.n_b

    def test_rails_independent(self, env, eo_cfg):
        m = chip_fpv_map(eo_cfg, env, 0)
        assert m.weight_pos_delta_nm.tobytes() \
            != m.weight_neg_delta_nm.tobytes()


class TestTuningBudget:
    def test_zero_map_zero_power(self, env, eo_cfg):
        eo, to = tuning_power_budget(eo_cfg, env, zero_chip_map(eo_cfg), 0.8)
        assert eo == 0.0 and to == 0.0

    def test_monotone_in_fraction(self, env, eo_cfg):
        m = chip_fpv_map(eo_cfg, env, 1)
        totals = [sum(tuning_power_budget(eo_cfg, env, m, f))
                  for f in (0.0, 0.4, 0.8, 1.0)]
        assert totals[0] == 0.0
        assert all(a <= b + 1e-9 for a, b in zip(totals, totals[1:]))
        assert totals[1] < totals[3]


class TestPowerAndEpb:
    def test_breakdown_sums(self, env, eo_cfg):
        rep = power_and_epb(ModelStructure("m", (60642,)), eo_cfg, env)
        assert sum(rep.power_breakdown_mw.values()) \
            == pytest.approx(rep.total_power_mw, rel=1e-9)
        assert set(rep.power_breakdown_mw) == {
            "laser", "to_tuning", "eo_tuning", "dac", "adc", "pd", "tia",
            "vcsel"}

    def test_epb_fps_identity(self, env, eo_cfg):
        s = ModelStructure("m", (60642,))
        rep = power_and_epb(s, eo_cfg, env)
        assert rep.epb_pj_per_bit * rep.fps == pytest.approx(
            rep.total_power_mw * 1e9 / s.total_bits, rel=1e-9)

    def test_zero_param_model(self, env, eo_cfg):
        rep = power_and_epb(ModelStructure("empty", ()), eo_cfg, env)
        assert rep.epb_pj_per_bit is None
        assert rep.total_power_mw > 0  # static device floor remains

    def test_doubling_vdps(self, env, eo_cfg):
        s = ModelStructure("m", (1_000_000,))
        rep1 = power_and_epb(s, eo_cfg, env)
        cfg2 = replace(eo_cfg, n_vdp=eo_cfg.n_vdp * 2)
        rep2 = power_and_epb(s, cfg2, env)
        t1 = pipeline_time(s, eo_cfg, env)
        t2 = pipeline_time(s, cfg2, env)
        assert t2.delta_t_ns * t2.steps <= t1.delta_t_ns * t1.steps
        assert rep2.total_power_mw > rep1.total_power_mw

    def test_accepts_quant_model(self, env, eo_cfg, toy_model):
        rep = power_and_epb(toy_model, eo_cfg, env)
        assert rep.fps > 0
        assert rep.noisy_accuracy is None

    @pytest.mark.parametrize("fraction", [0.0, 0.8])
    def test_budget_matches_chip_map_path(self, env, eo_cfg, toy_model,
                                          fraction):
        m = chip_fpv_map(eo_cfg, env, 5)
        budget = chip_budget(eo_cfg, env, fraction, chip_map=m)
        assert budget.chip_map is m
        for model in (toy_model, ModelStructure("m", (60642, 1000))):
            got = power_and_epb(model, eo_cfg, env, noisy_accuracy=0.5,
                                budget=budget)
            want = power_and_epb(model, eo_cfg, env, tuning_fraction=fraction,
                                 noisy_accuracy=0.5, chip_map=m)
            assert got.to_dict() == want.to_dict()
            assert list(got.power_breakdown_mw) \
                == list(want.power_breakdown_mw)

    def test_budget_of_other_config_rejected(self, env, eo_cfg, po_cfg):
        budget = chip_budget(po_cfg, env)
        with pytest.raises(DomainError, match="another configuration"):
            power_and_epb(ModelStructure("m", (1000,)), eo_cfg, env,
                          budget=budget)


class TestPerturbationRatios:
    @pytest.fixture
    def lam(self, eo_cfg):
        comb = build_comb(eo_cfg.arm_activation_mrs,
                          eo_cfg.channel_spacing_nm,
                          eo_cfg.center_wavelength_nm, eo_cfg.passband_nm)
        return np.asarray(comb)[np.arange(40) % len(comb)]

    def test_zero_residual(self, multibit, lam):
        deltas = np.linspace(-30.0, 30.0, lam.size)
        rho = _perturbation_ratios(multibit, lam, deltas, 0.0)
        assert np.all(rho == 1.0)

    @staticmethod
    def check_residual(design, lam, residual):
        deltas = np.linspace(-30.0, 30.0, lam.size)
        rho = _perturbation_ratios(design, lam, deltas, residual)
        for l, d, r in zip(lam, deltas, rho):
            want = (photonics.transmission(design, l, l + residual * d)
                    / photonics.transmission(design, l, l))
            assert r == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("ring_class", [RingClass.MULTI_BIT,
                                            RingClass.SINGLE_BIT])
    def test_never_below_one(self, designs, ring_class):
        # the nominal transmission is the through-port minimum, so no
        # shift lowers it; tiny shifts probe the rounding near resonance
        rng = np.random.Generator(np.random.PCG64(13))
        lam = rng.uniform(1540.0, 1560.0, 30000)
        deltas = np.concatenate([rng.normal(0.0, 30.0, 10000),
                                 rng.normal(0.0, 1e-3, 10000),
                                 rng.uniform(-3e-7, 3e-7, 10000)])
        for residual in (0.05, 0.5, 1.0):
            rho = _perturbation_ratios(designs[ring_class], lam, deltas,
                                       residual)
            assert np.all(rho >= 1.0)

    def test_full_residual(self, multibit, lam):
        self.check_residual(multibit, lam, 1.0)

    def test_partial_tuning(self, multibit, lam):
        self.check_residual(multibit, lam, 0.2)

    def test_used_ids_equal_full_population(self, env, eo_cfg, toy_model):
        # ratios of the mapped MRs alone equal the same elements of the
        # full-population ratios bit for bit
        mapping = build_photonic_mapping(toy_model, eo_cfg)
        m = chip_fpv_map(eo_cfg, env, 2)
        slots = eo_cfg.arm_activation_mrs
        comb = build_comb(slots, eo_cfg.channel_spacing_nm,
                          eo_cfg.center_wavelength_nm, eo_cfg.passband_nm)
        n = m.act_delta_nm.size
        full = _perturbation_ratios(
            env.designs[RingClass.MULTI_BIT],
            np.asarray(comb)[np.arange(n) % slots], m.act_delta_nm, 0.7)
        used = _perturbation_ratios(
            env.designs[RingClass.MULTI_BIT], mapping.lambda_nm,
            m.act_delta_nm[mapping.mr_ids], 0.7)
        assert np.array_equal(used, full[mapping.mr_ids])


def looped_mapping(model, cfg):
    """Scalar oracle: walk the plan slice by slice and element by element.

    Returns the per-layer [out, in] positions into the sorted used MR ids,
    and those ids.
    """
    plan = build_work_plan(model, cfg)
    slots = cfg.arm_activation_mrs
    flat = {li: np.full((layer.weights.shape[0], layer.weights[0].size), -1)
            for li, layer in enumerate(model.layers)
            if layer.weights is not None}
    for s in plan.slices:
        arm = int(s["vdp"]) * cfg.n_wg + int(s["arm"])
        for k in range(int(s["length"])):
            flat[int(s["layer"])][s["output"], s["offset"] + k] = \
                arm * slots + k % slots
    ids = sorted({int(v) for idx in flat.values() for v in idx.ravel()})
    position = {mr: i for i, mr in enumerate(ids)}
    index = {li: np.array([[position[int(v)] for v in row] for row in idx])
             for li, idx in flat.items()}
    return index, np.array(ids)


def small_conv_model():
    rng = np.random.Generator(np.random.PCG64(31))
    return QuantModel((
        bnn.conv_layer(rng.normal(size=(6, 3, 3, 3))), activation_layer(),
        bnn.pool_layer(2),
        bnn.conv_layer(rng.normal(size=(4, 6, 2, 2))), activation_layer(),
        fc_layer(rng.normal(size=(5, 16)))))


class TestPhotonicMapping:
    def test_compact_indices(self, eo_cfg, toy_model):
        mapping = build_photonic_mapping(toy_model, eo_cfg)
        ids = mapping.mr_ids
        assert np.all(np.diff(ids) > 0)
        assert mapping.lambda_nm.shape == ids.shape
        seen = np.concatenate([idx.ravel()
                               for idx in mapping.mr_index.values()])
        assert np.array_equal(np.unique(seen), np.arange(ids.size))

    # "n_a=25": 3 MRs per arm, which do not divide a 25-element slice
    @pytest.mark.parametrize("arch", ["default", "eo", "po", "n_a=25"])
    @pytest.mark.parametrize("kind", ["fc", "conv"])
    def test_matches_looped_oracle(self, toolkit_config, toy_model, arch,
                                   kind):
        cfg = (AcceleratorConfig(n_a=25, n_vdp=4, n_wg=10)
               if arch == "n_a=25" else config.arch_config(toolkit_config,
                                                           arch))
        model = toy_model if kind == "fc" else small_conv_model()
        mapping = build_photonic_mapping(model, cfg)
        want_index, want_ids = looped_mapping(model, cfg)
        assert np.array_equal(mapping.mr_ids, want_ids)
        assert mapping.mr_index.keys() == want_index.keys()
        for li, idx in want_index.items():
            assert np.array_equal(mapping.mr_index[li], idx)
        comb = build_comb(cfg.arm_activation_mrs, cfg.channel_spacing_nm,
                          cfg.center_wavelength_nm, cfg.passband_nm)
        assert np.array_equal(
            mapping.lambda_nm,
            [comb[i % cfg.arm_activation_mrs] for i in want_ids])


class TestNoisyInference:
    def test_full_tuning_reproduces_reference(self, env, eo_cfg, toy_model,
                                              toy_data):
        ref_logits, ref_cls = reference_inference(toy_model, toy_data.x_test)
        res = noisy_inference(toy_model, toy_data.x_test, toy_data.y_test,
                              eo_cfg, env, tuning_fraction=1.0, seed=5)
        assert np.allclose(res.logits, ref_logits, atol=1e-9)
        assert np.array_equal(res.predictions, ref_cls)
        assert res.accuracy == pytest.approx(
            float(np.mean(ref_cls == toy_data.y_test)))

    def test_zero_shift_map_any_fraction(self, env, eo_cfg, toy_model,
                                         toy_data):
        ref_logits, _ = reference_inference(toy_model, toy_data.x_test)
        res = noisy_inference(toy_model, toy_data.x_test, toy_data.y_test,
                              eo_cfg, env, tuning_fraction=0.3, seed=0,
                              chip_map=zero_chip_map(eo_cfg))
        assert np.allclose(res.logits, ref_logits, atol=1e-9)

    def test_encode_decode_round_trip(self, env, eo_cfg):
        # one binarized FC layer, no FPV: the dual-rail photonic dot product
        # must match the exact quantized dot product
        rng = np.random.Generator(np.random.PCG64(31))
        w = rng.normal(size=(5, 8))
        model = QuantModel((fc_layer(w, binarized=True),),
                           last_layer_full_precision=False)
        x = quantize_activation(rng.uniform(0, 1, size=(16, 8)), 4)
        res = noisy_inference(model, x, None, eo_cfg, env,
                              tuning_fraction=1.0, seed=0,
                              chip_map=zero_chip_map(eo_cfg))
        exact = x @ bnn.binarize(w).T
        assert np.allclose(res.logits, exact, atol=1e-9)

    def test_accuracy_monotone_at_endpoints(self, env, eo_cfg, toy_model,
                                            toy_data):
        accs = {f: [] for f in (0.0, 1.0)}
        mapping = build_photonic_mapping(toy_model, eo_cfg)
        for seed in range(20):
            m = chip_fpv_map(eo_cfg, env, 200 + seed)
            for f in accs:
                accs[f].append(noisy_inference(
                    toy_model, toy_data.x_test, toy_data.y_test, eo_cfg,
                    env, f, 0, mapping=mapping, chip_map=m).accuracy)
        assert np.mean(accs[1.0]) >= np.mean(accs[0.0])

    def test_deterministic(self, env, eo_cfg, toy_model, toy_data):
        a = noisy_inference(toy_model, toy_data.x_test, toy_data.y_test,
                            eo_cfg, env, 0.7, seed=9)
        b = noisy_inference(toy_model, toy_data.x_test, toy_data.y_test,
                            eo_cfg, env, 0.7, seed=9)
        assert a.logits.tobytes() == b.logits.tobytes()

    def test_fraction_validation(self, env, eo_cfg, toy_model, toy_data):
        with pytest.raises(DomainError):
            noisy_inference(toy_model, toy_data.x_test, toy_data.y_test,
                            eo_cfg, env, 1.5, seed=0)

    def test_folded_model_noisy_path(self, env, eo_cfg):
        # BN folding constants ride through the photonic partial sums
        rng = np.random.Generator(np.random.PCG64(41))
        h = 6
        gamma = rng.uniform(0.5, 2.0, h)
        var = rng.uniform(0.1, 2.0, h)
        model = QuantModel((
            fc_layer(rng.normal(size=(h, 8))),
            bnn.batch_norm_layer(gamma, np.zeros(h), np.zeros(h), var),
            activation_layer(),
            fc_layer(rng.normal(size=(3, h)), binarized=False)))
        x = rng.uniform(0, 1, size=(10, 8))
        ref, _ = reference_inference(model, x, folded=True)
        res = noisy_inference(model, x, None, eo_cfg, env, 1.0, seed=0)
        assert np.array_equal(res.logits, ref)

    @pytest.mark.parametrize(
        "case", ["single-conv", "conv-bn-act-pool", "unbinarized-conv"])
    def test_conv_noisy_path(self, env, eo_cfg, case):
        rng = np.random.Generator(np.random.PCG64(43))
        if case == "single-conv":
            model = QuantModel((
                bnn.conv_layer(rng.normal(size=(2, 1, 2, 2)), binarized=True),
                activation_layer(),))
            x = rng.uniform(0, 1, size=(4, 1, 5, 5))
        else:
            # the first block of the conv-sim benchmark model
            model = QuantModel((
                bnn.conv_layer(rng.normal(size=(16, 3, 3, 3)),
                               binarized=case == "conv-bn-act-pool"),
                bnn.batch_norm_layer(rng.uniform(0.5, 1.5, 16),
                                     rng.normal(0.0, 0.1, 16),
                                     rng.normal(0.0, 0.1, 16),
                                     rng.uniform(0.5, 1.5, 16)),
                activation_layer(), bnn.pool_layer(2),
                fc_layer(rng.normal(size=(10, 16 * 4 * 4)),
                         binarized=False)))
            x = rng.uniform(0, 1, size=(3, 3, 10, 10))
        ref, _ = reference_inference(model, x, folded=True)
        res = noisy_inference(model, x, None, eo_cfg, env, 1.0, seed=0)
        assert np.array_equal(res.logits, ref)

    @pytest.mark.parametrize("shape", [(3, 6, 6), (3 * 6 * 6,)])
    def test_single_sample_as_in_reference(self, env, eo_cfg, shape):
        # one [c, h, w] (or [features]) sample without a batch axis
        rng = np.random.Generator(np.random.PCG64(47))
        first = (bnn.conv_layer(rng.normal(size=(4, 3, 3, 3)))
                 if len(shape) == 3 else fc_layer(rng.normal(size=(64, 108))))
        model = QuantModel((first, activation_layer(),
                            fc_layer(rng.normal(size=(5, 64)),
                                     binarized=False)))
        x = rng.uniform(0, 1, size=shape)
        ref_logits, ref_class = reference_inference(model, x, folded=True)
        res = noisy_inference(model, x, None, eo_cfg, env, 1.0, seed=0)
        assert res.predictions.tolist() == [ref_class]
        assert np.array_equal(res.logits[0], ref_logits)

    def test_errors_match_reference(self, env, eo_cfg):
        rng = np.random.Generator(np.random.PCG64(53))
        w = rng.normal(size=(4, 6))
        x = rng.uniform(0, 1, size=(2, 6))
        bad_act = QuantModel((fc_layer(w), activation_layer("tanh")))
        bad_width = QuantModel((fc_layer(w),))
        for model, inputs in ((bad_act, x), (bad_width, x[:, :5])):
            with pytest.raises(DomainError) as ref_err:
                reference_inference(model, inputs)
            with pytest.raises(DomainError) as noisy_err:
                noisy_inference(model, inputs, None, eo_cfg, env, 1.0,
                                seed=0)
            assert str(noisy_err.value) == str(ref_err.value)


class TestAccuracySweep:
    def test_rows_and_reference_anchor(self, env, eo_cfg, toy_model,
                                       toy_data):
        rows = fpv_accuracy_sweep(toy_model, toy_data.x_test,
                                  toy_data.y_test, eo_cfg, env,
                                  [1.0, 0.0], n_maps=5, base_seed=50)
        assert len(rows) == 2
        ref = bnn.accuracy(toy_model, toy_data.x_test, toy_data.y_test)
        assert rows[0][1] == pytest.approx(ref, abs=1e-12)
        assert rows[0][2] == pytest.approx(0.0, abs=1e-12)

    def test_needs_one_map(self, env, eo_cfg, toy_model, toy_data):
        with pytest.raises(DomainError, match="n_maps"):
            fpv_accuracy_sweep(toy_model, toy_data.x_test, toy_data.y_test,
                               eo_cfg, env, [1.0], n_maps=0, base_seed=50)


class TestSimReport:
    def test_breakdown_mismatch_rejected(self):
        with pytest.raises(DomainError):
            simulator.SimReport(
                fps=1.0, total_power_mw=5.0,
                power_breakdown_mw={"laser": 1.0}, epb_pj_per_bit=None,
                area_mm2=1.0, inference_time_ns=1.0, noisy_accuracy=None,
                required_bandwidth_gb_s=1.0)

    def test_to_dict_round_trip_fields(self, env, eo_cfg):
        rep = power_and_epb(ModelStructure("m", (1000,)), eo_cfg, env)
        d = rep.to_dict()
        assert d["total_power_mw"] == rep.total_power_mw
        assert set(d["power_breakdown_mw"]) == set(rep.power_breakdown_mw)
