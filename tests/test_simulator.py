import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mrbnn import _kernels, bnn, config, photonics, simulator, tuning
from mrbnn.bnn import (QuantModel, activation_layer, fc_layer,
                       quantize_activation, reference_inference)
from mrbnn.errors import DomainError, PhysicalConstraintError
from mrbnn.mapping import (AcceleratorConfig, ModelStructure, build_comb,
                           build_work_plan)
from mrbnn.photonics import RingClass
from mrbnn.simulator import (ChipFpvMap, LossBudget, _perturbation_ratios,
                             area_estimate, build_photonic_mapping,
                             chip_fpv_map, fpv_accuracy_sweep, laser_power,
                             loss_accounting, mr_footprint_um2,
                             noisy_inference, path_loss_db, pipeline_time,
                             power_and_epb, required_bandwidth_gb_s,
                             tuning_power_budget)
from test_bnn import BAD_LABELS, raw_input_models, warm_up_walk
from test_tuning import bank_budget


@pytest.fixture(scope="module")
def eo_cfg(toolkit_config):
    return config.arch_config(toolkit_config, "eo")


@pytest.fixture(scope="module")
def po_cfg(toolkit_config):
    return config.arch_config(toolkit_config, "po")


def zero_chip_map(cfg):
    arms = cfg.n_vdp * cfg.n_wg
    return ChipFpvMap(tuple(np.zeros(arms * n) for _, n in cfg.arm_banks))


def inventory_cfg(toolkit_config, arch):
    # "n_a=25": 3 MRs per arm, which do not divide a 25-element slice
    return (AcceleratorConfig(n_a=25, n_vdp=4, n_wg=10) if arch == "n_a=25"
            else config.arch_config(toolkit_config, arch))


class TestRingInventory:
    """The FPV map, the tuning power, the area and the loss all count the
    rings of ``AcceleratorConfig.arm_banks``."""

    BANKS = (RingClass.MULTI_BIT, RingClass.SINGLE_BIT,
             RingClass.SINGLE_BIT, RingClass.BROADBAND)

    @pytest.mark.parametrize("arch", ["default", "eo", "po", "n_a=25"])
    def test_map_and_area_count_the_inventory(self, env, toolkit_config,
                                              arch):
        cfg = inventory_cfg(toolkit_config, arch)
        arms = cfg.n_vdp * cfg.n_wg
        assert [rc for rc, _ in cfg.arm_banks] == list(self.BANKS)
        m = chip_fpv_map(cfg, env, 0)
        assert sum(d.size for d in m.deltas_nm) == cfg.total_mrs \
            == arms * sum(n for _, n in cfg.arm_banks)
        blocks = (cfg.n_vdp * env.area.vdp_overhead_mm2
                  + cfg.n_vdp * cfg.dacs_per_vdp * env.area.dac_block_mm2
                  + cfg.n_vdp * env.area.adc_block_mm2
                  + env.area.global_overhead_mm2)
        rings = sum(arms * n * mr_footprint_um2(env.designs[rc].radius_um,
                                                cfg.mr_pitch_um)
                    for rc, n in cfg.arm_banks) * 1e-6
        assert area_estimate(cfg, env) - blocks \
            == pytest.approx(rings, rel=1e-12)

    @pytest.mark.parametrize("bank", range(4))
    def test_tuning_power_uses_each_banks_fsr(self, env, eo_cfg, bank):
        # a map that shifts one bank only costs that bank's budget, solved
        # with the FSR of that bank's ring class
        arms = eo_cfg.n_vdp * eo_cfg.n_wg
        rng = np.random.Generator(np.random.PCG64(61 + bank))
        deltas = list(zero_chip_map(eo_cfg).deltas_nm)
        deltas[bank] = rng.uniform(-40.0, 40.0, deltas[bank].size)
        [got] = tuning_power_budget([eo_cfg], env,
                                    ChipFpvMap(tuple(deltas)), 0.8)
        params = replace(env.tuning_params,
                         fsr_nm=env.designs[self.BANKS[bank]].fsr_nm)
        assert got == bank_budget(deltas[bank].reshape(arms, -1), 0.8,
                                  eo_cfg.mr_pitch_um, params)


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
        t = pipeline_time(ModelStructure.from_counts(()), eo_cfg, env)
        assert t.steps == 0
        assert t.total_ns == pytest.approx(t.t_del_ns)

    def test_exact_capacity_single_step(self, env, po_cfg):
        s = ModelStructure.from_counts((100_000,))
        t = pipeline_time(s, po_cfg, env)
        assert t.steps == 1 and t.buffered_steps == 1

    def test_table_model_steps(self, env, po_cfg):
        assert pipeline_time(ModelStructure.from_counts((59508, 1064, 70)),
                             po_cfg, env).steps == 1
        assert pipeline_time(
            ModelStructure.from_counts((13500000, 70000, 186)), po_cfg,
            env).steps == 136

    def test_affine_in_steps(self, env, po_cfg):
        # past the ECU buffer the buffered term is constant, so total(X)
        # must be exactly affine with slope delta_t
        per_step = po_cfg.weights_per_vdp_step * po_cfg.n_vdp
        xs, totals = [], []
        for mult in (2, 3, 5):
            s = ModelStructure.from_counts((per_step * mult,))
            t = pipeline_time(s, po_cfg, env)
            xs.append(t.steps)
            totals.append(t.total_ns)
        slope = (totals[1] - totals[0]) / (xs[1] - xs[0])
        assert slope == pytest.approx(t.delta_t_ns, rel=1e-12)
        predicted = totals[0] + slope * (xs[2] - xs[0])
        assert totals[2] == pytest.approx(predicted, rel=1e-12)

    def test_t_del_is_full_path(self, env, eo_cfg):
        t = pipeline_time(ModelStructure.from_counts((10,)), eo_cfg, env)
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
        c = chip_fpv_map(eo_cfg, env, 4)
        for da, db, dc in zip(a.deltas_nm, b.deltas_nm, c.deltas_nm):
            assert da.tobytes() == db.tobytes()
            assert da.tobytes() != dc.tobytes()

    def test_population_sizes(self, env, eo_cfg):
        m = chip_fpv_map(eo_cfg, env, 0)
        arms = eo_cfg.n_vdp * eo_cfg.n_wg
        assert [d.size for d in m.deltas_nm] == [
            arms * eo_cfg.arm_activation_mrs, arms * eo_cfg.arm_activation_mrs,
            arms * eo_cfg.arm_activation_mrs, arms * eo_cfg.n_b]

    def test_rails_independent(self, env, eo_cfg):
        m = chip_fpv_map(eo_cfg, env, 0)
        assert m.deltas_nm[1].tobytes() != m.deltas_nm[2].tobytes()


class TestTuningBudget:
    def test_zero_map_zero_power(self, env, eo_cfg):
        [(eo, to)] = tuning_power_budget([eo_cfg], env,
                                         zero_chip_map(eo_cfg), 0.8)
        assert eo == 0.0 and to == 0.0

    def test_monotone_in_fraction(self, env, eo_cfg):
        m = chip_fpv_map(eo_cfg, env, 1)
        totals = [sum(tuning_power_budget([eo_cfg], env, m, f)[0])
                  for f in (0.0, 0.4, 0.8, 1.0)]
        assert totals[0] == 0.0
        assert all(a <= b + 1e-9 for a, b in zip(totals, totals[1:]))
        assert totals[1] < totals[3]


    @pytest.mark.parametrize("eta", [None, 0.3])
    def test_list_equals_call_per_config(self, toolkit_config, eo_cfg, eta):
        # configurations that read one map are budgeted once per bank size;
        # each gets the bits of a call of its own, one-arm ones included,
        # or the error that call raises (at 0.3, every bank of 7 or more
        # rings: all but the 5-ring configurations)
        tc = toolkit_config if eta is None else replace(
            toolkit_config, tuning=replace(toolkit_config.tuning,
                                           crosstalk_eta=eta))
        env = config.build_environment(tc)
        cfgs = [replace(eo_cfg, n_a=a, n_vdp=v, n_wg=w)
                for a in (5, 10, 15, 25) for v in (1, 3) for w in (1, 4)]
        maps = [chip_fpv_map(c, env, 9) for c in cfgs]
        shared = ChipFpvMap(tuple(max((m.deltas_nm[k] for m in maps), key=len)
                                  for k in range(4)))
        got = tuning_power_budget(cfgs, env, shared, 0.8)
        assert len(got) == len(cfgs)
        for c, m, g in zip(cfgs, maps, got):
            [want] = tuning_power_budget([c], env, m, 0.8)
            if isinstance(want, PhysicalConstraintError):
                assert type(g) is type(want) and str(g) == str(want)
            else:
                assert g == want
                assert (c.n_vdp * c.n_wg > 1 or want[1] > 0)
        assert sum(isinstance(g, PhysicalConstraintError)
                   for g in got) == (0 if eta is None else 12)

    def test_one_fold_per_bank(self, env, eo_cfg, monkeypatch):
        # each bank is folded once, on the longest head any group reads
        folds = []
        original = tuning.fold_and_split

        def spy(deltas, fraction, params):
            folds.append(np.size(deltas))
            return original(deltas, fraction, params)

        monkeypatch.setattr(tuning, "fold_and_split", spy)
        cfgs = [replace(eo_cfg, n_a=a, n_vdp=v) for a in (5, 10, 15, 25)
                for v in (1, 3)]
        rows = [max(c.n_vdp * c.n_wg * c.arm_banks[k][1] for c in cfgs)
                for k in range(len(eo_cfg.arm_banks))]
        m = ChipFpvMap(tuple(np.ones(r) for r in rows))
        tuning_power_budget(cfgs, env, m, 0.8)
        assert folds == rows

    def test_short_bank_rejected(self, env, eo_cfg):
        # every bank must hold the configuration's rings; a longer bank is
        # read up to its head, the map a shorter draw gives
        full = chip_fpv_map(eo_cfg, env, 1)
        n = eo_cfg.arm_activation_mrs
        short = ChipFpvMap((full.deltas_nm[0][:-n], *full.deltas_nm[1:]))
        with pytest.raises(DomainError, match="bank of"):
            tuning_power_budget([eo_cfg], env, short, 0.8)
        with pytest.raises(DomainError, match="holds 1 banks"):
            tuning_power_budget([eo_cfg], env,
                                ChipFpvMap(full.deltas_nm[:1]), 0.8)
        longer = ChipFpvMap(tuple(np.concatenate([d, d])
                                  for d in full.deltas_nm))
        assert tuning_power_budget([eo_cfg], env, longer, 0.8) \
            == tuning_power_budget([eo_cfg], env, full, 0.8)


class TestPowerAndEpb:
    def test_breakdown_sums(self, env, eo_cfg):
        rep = power_and_epb(ModelStructure.from_counts((60642,)), eo_cfg, env)
        assert sum(rep.power_breakdown_mw.values()) \
            == pytest.approx(rep.total_power_mw, rel=1e-9)
        assert set(rep.power_breakdown_mw) == {
            "laser", "to_tuning", "eo_tuning", "dac", "adc", "pd", "tia",
            "vcsel"}

    def test_epb_fps_identity(self, env, eo_cfg):
        s = ModelStructure.from_counts((60642,))
        rep = power_and_epb(s, eo_cfg, env)
        assert rep.epb_pj_per_bit * rep.fps == pytest.approx(
            rep.total_power_mw * 1e9 / s.total_bits, rel=1e-9)

    def test_zero_param_model(self, env, eo_cfg):
        rep = power_and_epb(ModelStructure.from_counts(()), eo_cfg, env)
        assert rep.epb_pj_per_bit is None
        assert rep.total_power_mw > 0  # static device floor remains

    def test_doubling_vdps(self, env, eo_cfg):
        s = ModelStructure.from_counts((1_000_000,))
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


class TestEvaluate:
    # two models with bits and, between them, one of none
    MODELS = [ModelStructure.from_counts(c)
              for c in ((60642,), (), (1_000_000, 4096))]

    @pytest.fixture(scope="class")
    def dense_env(self, toolkit_config):
        # at crosstalk_eta 0.3 a bank of 7 or more rings cannot be tuned
        return config.build_environment(replace(
            toolkit_config, tuning=replace(toolkit_config.tuning,
                                           crosstalk_eta=0.3)))

    def test_untunable_listed_by_index(self, dense_env, eo_cfg):
        cfgs = [replace(eo_cfg, n_a=a, n_vdp=v)
                for a, v in ((5, 2), (10, 2), (15, 1), (5, 3))]
        ev = simulator.evaluate(cfgs, self.MODELS, dense_env, 0.8, seed=2)
        assert ev.tuned == (0, 3)
        assert [i for i, _ in ev.errors] == [1, 2]
        assert all(isinstance(e, PhysicalConstraintError)
                   and "too dense" in str(e) for _, e in ev.errors)
        assert ev.fps.shape == ev.epb_pj_per_bit.shape == (2, 3)
        assert len(ev.power_mw) == len(ev.area_mm2) == 2
        # NaN EPB for the model of no bits only
        assert np.isnan(ev.epb_pj_per_bit[:, 1]).all()
        assert np.isfinite(ev.epb_pj_per_bit[:, [0, 2]]).all()

    @pytest.mark.parametrize("fraction", [0.0, 0.8])
    def test_rows_equal_one_configuration_calls(self, dense_env, eo_cfg,
                                                fraction):
        # one shared map, sliced per configuration, gives the bits of a
        # call per configuration on a map of its own
        cfgs = [replace(eo_cfg, n_a=a, n_vdp=v, n_wg=w)
                for a, v, w in ((5, 2, 4), (10, 1, 1), (25, 3, 2),
                                (5, 1, 1), (50, 2, 10))]
        ev = simulator.evaluate(cfgs, self.MODELS, dense_env, fraction, 6)
        assert ev.errors and len(ev.tuned) >= 3
        for row, i in enumerate(ev.tuned):
            one = simulator.evaluate([cfgs[i]], self.MODELS, dense_env,
                                     fraction, 6)
            assert one.tuned == (0,) and not one.errors
            assert ev.power_breakdown_mw[row] == one.power_breakdown_mw[0]
            assert list(ev.power_breakdown_mw[row]) \
                == list(one.power_breakdown_mw[0])
            assert ev.power_mw[row] == one.power_mw[0]
            assert ev.area_mm2[row] == one.area_mm2[0]
            for name in ("total_ns", "steps", "buffered_steps"):
                assert getattr(ev.timing, name)[row].tobytes() \
                    == getattr(one.timing, name)[0].tobytes()
            assert ev.fps[row].tobytes() == one.fps[0].tobytes()
            assert ev.epb_pj_per_bit[row].tobytes() \
                == one.epb_pj_per_bit[0].tobytes()
        for i, exc in ev.errors:
            one = simulator.evaluate([cfgs[i]], self.MODELS, dense_env,
                                     fraction, 6)
            assert not one.tuned and str(one.errors[0][1]) == str(exc)

    def test_empty_list(self, env):
        ev = simulator.evaluate([], self.MODELS, env, 0.8)
        assert ev.tuned == ev.errors == ev.power_mw == ev.area_mm2 == ()
        for a in (ev.fps, ev.epb_pj_per_bit, ev.timing.total_ns,
                  ev.timing.steps, ev.timing.buffered_steps):
            assert a.shape == (0, len(self.MODELS))

    def test_report_is_the_one_pair_case(self, env, eo_cfg, toy_model):
        # the report's latency and steps are pipeline_time's for the pair
        m = chip_fpv_map(eo_cfg, env, 5)
        s = ModelStructure.from_model(toy_model)
        rep = power_and_epb(toy_model, eo_cfg, env, 0.3, chip_map=m)
        t = pipeline_time(s, eo_cfg, env)
        assert (rep.inference_time_ns, rep.pipeline_steps,
                rep.pipeline_buffered_steps) \
            == (t.total_ns, t.steps, t.buffered_steps)
        assert type(rep.pipeline_steps) is int
        ev = simulator.evaluate([eo_cfg], [s], env, 0.3, chip_map=m)
        assert rep.fps == ev.fps[0, 0]
        assert rep.epb_pj_per_bit == ev.epb_pj_per_bit[0, 0]
        assert rep.power_breakdown_mw == ev.power_breakdown_mw[0]


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
        act = m.deltas_nm[0]
        full = _perturbation_ratios(
            env.designs[RingClass.MULTI_BIT],
            np.asarray(comb)[np.arange(act.size) % slots], act, 0.7)
        used = _perturbation_ratios(
            env.designs[RingClass.MULTI_BIT], mapping.lambda_nm,
            act[mapping.mr_ids], 0.7)
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


def stride_2_model():
    """A stride-2 conv, a full-precision conv and a binarized FC; on a
    [3, 7, 9] input the FC reads 7 x 2 x 2 = 28 features."""
    rng = np.random.Generator(np.random.PCG64(37))
    return QuantModel((
        bnn.conv_layer(rng.normal(size=(5, 3, 3, 3)), stride=2),
        activation_layer(),
        bnn.conv_layer(rng.normal(size=(7, 5, 2, 3)), binarized=False),
        activation_layer(), fc_layer(rng.normal(size=(4, 28)))))


class TestPhotonicMapping:
    def test_compact_indices(self, eo_cfg, toy_model):
        mapping = build_photonic_mapping(toy_model, eo_cfg)
        ids = mapping.mr_ids
        assert np.all(np.diff(ids) > 0)
        assert mapping.lambda_nm.shape == ids.shape
        seen = np.concatenate([idx.ravel()
                               for idx in mapping.mr_index.values()])
        assert np.array_equal(np.unique(seen), np.arange(ids.size))

    @pytest.mark.parametrize("arch", ["default", "eo", "po", "n_a=25"])
    @pytest.mark.parametrize("kind", ["fc", "conv", "stride-2"])
    def test_matches_looped_oracle(self, toolkit_config, toy_model, arch,
                                   kind):
        # the toy MLP's 8 inputs and the stride-2 model's depths 27 and 28
        # are no multiple of n_a; both hold a full-precision layer
        cfg = inventory_cfg(toolkit_config, arch)
        model = {"fc": toy_model, "conv": small_conv_model(),
                 "stride-2": stride_2_model()}[kind]
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
        # every slice sits on the arm the plan schedules it on
        s = build_work_plan(model, cfg).slices
        for li, idx in mapping.mr_index.items():
            mine = s[s["layer"] == li]
            arm = (mapping.mr_ids[idx[mine["output"], mine["offset"]]]
                   // cfg.arm_activation_mrs)
            assert np.array_equal(arm, mine["vdp"] * cfg.n_wg + mine["arm"])


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
        for seed in range(20):
            m = chip_fpv_map(eo_cfg, env, 200 + seed)
            for f in accs:
                accs[f].append(noisy_inference(
                    toy_model, toy_data.x_test, toy_data.y_test, eo_cfg,
                    env, f, 0, chip_map=m).accuracy)
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
        assert res.predictions == ref_class
        assert np.array_equal(res.logits, ref_logits)

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


def broadcast_logits(model, x, cfg, env, fraction, seed):
    """Noisy logits with every binarized layer through the [n, out, in]
    broadcast formula on the values of its inputs, walked through
    ``bnn.forward``."""
    mapping = build_photonic_mapping(model, cfg)
    chip_map = chip_fpv_map(cfg, env, seed)
    rho = _perturbation_ratios(
        env.designs[RingClass.MULTI_BIT], mapping.lambda_nm,
        chip_map.deltas_nm[0][mapping.mr_ids], 1.0 - fraction)

    def dot(li, layer, v):
        if not layer.binarized:
            return bnn.exact_dot(li, layer, v)
        w = layer.effective_weights()
        w = w.reshape(w.shape[0], -1)
        v = bnn.to_values(v)
        a = v.reshape(-1, v.shape[-1])
        out = np.sum(np.clip(a[:, None, :] * rho[mapping.mr_index[li]],
                             0.0, 1.0) * w, axis=2)
        return out.reshape(*v.shape[:-1], -1)

    return bnn.forward(model, np.asarray(x, dtype=np.float64), dot,
                       folded=True)


def dispatch_model(case, rng, bits=2):
    """Small models, by default with 2-bit quantizers: their layers are
    narrow, and a table GEMM per level pays only for a few levels."""
    def bn(c):
        return bnn.batch_norm_layer(rng.uniform(0.5, 1.5, c),
                                    rng.normal(0.0, 0.1, c),
                                    rng.normal(0.0, 0.1, c),
                                    rng.uniform(0.5, 1.5, c))
    if case == "conv-sim":
        return QuantModel((
            bnn.conv_layer(rng.normal(size=(4, 3, 3, 3))), bn(4),
            activation_layer(), bnn.pool_layer(2),
            bnn.conv_layer(rng.normal(size=(6, 4, 3, 3))), bn(6),
            activation_layer(), fc_layer(rng.normal(size=(5, 24)))),
            activation_bits=bits), \
            rng.uniform(0, 1, size=(7, 3, 10, 10))
    if case == "bn-after-act":
        return QuantModel((
            fc_layer(rng.normal(size=(12, 8))), activation_layer(), bn(12),
            fc_layer(rng.normal(size=(5, 12)))), activation_bits=bits), \
            rng.uniform(0, 1, size=(9, 8))
    return QuantModel((                 # "avg-pool"
        bnn.conv_layer(rng.normal(size=(3, 2, 3, 3))), activation_layer(),
        bnn.pool_layer(2, "avg"),
        bnn.conv_layer(rng.normal(size=(4, 3, 2, 2))), activation_layer(),
        fc_layer(rng.normal(size=(5, 36)), binarized=False)),
        activation_bits=bits), \
        rng.uniform(0, 1, size=(6, 2, 11, 11))


class TestWalkKeepsItsInputs:
    """The noisy walk writes into neither the caller's batch nor what a
    binarized or ECU layer's dot returned; a non-finite binarized weight
    fails as ``bnn.binarize`` says. Each test runs after noisy and
    reference walks of other models, whose scratch the kernels' workspace
    then holds."""

    @pytest.fixture(autouse=True)
    def warm_workspace(self, env, eo_cfg):
        warm_up_walk()
        model, x = dispatch_model("conv-sim",
                                  np.random.Generator(np.random.PCG64(83)))
        noisy_inference(model, x, None, eo_cfg, env, 0.5, seed=5)

    @pytest.fixture
    def returned(self, monkeypatch):
        """(array, its bytes) of every dot result, at its return."""
        seen = []

        def spy(fn):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                seen.append((out, out.tobytes()))
                return out
            return wrapped

        monkeypatch.setattr(_kernels, "noisy_fc_forward",
                            spy(_kernels.noisy_fc_forward))
        monkeypatch.setattr(simulator, "exact_dot", spy(simulator.exact_dot))
        return seen

    @pytest.mark.parametrize("name", list(raw_input_models()))
    def test_noisy_inference_and_sweep(self, env, eo_cfg, returned, name):
        model, x = raw_input_models()[name]
        y = np.arange(len(x)) % 3
        before = x.tobytes()
        for fraction in (0.5, 1.0):
            noisy_inference(model, x, y, eo_cfg, env, fraction, seed=3)
        fpv_accuracy_sweep(model, x, y, eo_cfg, env, (0.0, 0.5, 1.0), 2, 5)
        assert x.tobytes() == before
        assert len(returned) > 0
        for out, bytes_at_return in returned:
            assert out.tobytes() == bytes_at_return

    def test_full_tuning_clamps_a_copy(self, env, eo_cfg, returned):
        # the 1x1 conv's patches are a view of the batch, and the last
        # binarized FC reads the previous one's output: full tuning clamps
        # both to [0, 1] without writing into either
        model, x = raw_input_models()["raw-conv"]
        assert np.shares_memory(bnn.im2col(x, 1, 1, 1)[0], x)
        before = x.tobytes()
        res = noisy_inference(model, x, None, eo_cfg, env, 1.0, seed=3)
        assert x.tobytes() == before
        for out, bytes_at_return in returned:
            assert out.tobytes() == bytes_at_return
        np.testing.assert_allclose(
            res.logits, broadcast_logits(model, x, eo_cfg, env, 1.0, 3),
            rtol=1e-12, atol=1e-12)
        ref, _ = reference_inference(model, x, folded=True)
        assert not np.allclose(res.logits, ref)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_binarized_weight(self, env, eo_cfg, toy_model,
                                         toy_data, bad):
        w = toy_model.layers[0].weights.copy()
        w[1, 2] = bad
        model = replace(toy_model, layers=(
            replace(toy_model.layers[0], weights=w), *toy_model.layers[1:]))
        x, y = toy_data.x_test, toy_data.y_test
        for fraction in (0.5, 1.0):
            with pytest.raises(DomainError,
                               match="binarize requires finite weights"):
                noisy_inference(model, x, y, eo_cfg, env, fraction, seed=3)
        with pytest.raises(DomainError,
                           match="binarize requires finite weights"):
            fpv_accuracy_sweep(model, x, y, eo_cfg, env, (0.5, 1.0), 2, 5)


class TestKernelDispatch:
    """The layers fed by a quantizer's codes may take the level table; every
    binarized layer keeps the broadcast formula's result."""

    @pytest.fixture
    def code_calls(self, monkeypatch):
        """Whether each noisy-kernel call got codes."""
        calls = []
        original = _kernels.noisy_fc_forward

        def spy(acts, w_pos, w_neg, table, levels=None):
            calls.append(levels is not None)
            return original(acts, w_pos, w_neg, table, levels=levels)

        monkeypatch.setattr(_kernels, "noisy_fc_forward", spy)
        return calls

    @pytest.mark.parametrize("case, bits, code_layers, level_layers", [
        ("conv-sim", 2, 2, 2),     # conv 2 and the FC read codes
        ("bn-after-act", 2, 0, 0),  # the fold makes values
        ("avg-pool", 2, 0, 0),     # averages of levels are values
        ("conv-sim", 4, 2, 0),     # 15 level GEMMs do not pay on 5-6 outputs
        ("conv-sim", 24, 0, 0),    # too many levels to carry codes
    ])
    def test_matches_broadcast_formula(self, env, eo_cfg, level_calls,
                                       code_calls, case, bits, code_layers,
                                       level_layers):
        model, x = dispatch_model(case,
                                  np.random.Generator(np.random.PCG64(59)),
                                  bits)
        res = noisy_inference(model, x, None, eo_cfg, env, 0.5, seed=3)
        assert sum(code_calls) == code_layers
        assert len(level_calls) == level_layers
        np.testing.assert_allclose(
            res.logits, broadcast_logits(model, x, eo_cfg, env, 0.5, 3),
            rtol=1e-12, atol=1e-12)

    def test_critical_coupling_keeps_the_broadcast_result(self, env, eo_cfg,
                                                          level_calls):
        # r = a: the activation rings transmit nothing on resonance, the
        # ratios are infinite, and zero inputs give NaN as in the formula
        ring = env.designs[RingClass.MULTI_BIT]
        critical = replace(env, designs={
            **env.designs, RingClass.MULTI_BIT:
                replace(ring, self_coupling_r=ring.amplitude_a)})
        model, x = dispatch_model("conv-sim",
                                  np.random.Generator(np.random.PCG64(59)))
        with np.errstate(divide="ignore", invalid="ignore"):
            res = noisy_inference(model, x, None, eo_cfg, critical, 0.5,
                                  seed=3)
            want = broadcast_logits(model, x, eo_cfg, critical, 0.5, 3)
        assert level_calls == [] and np.isnan(want).any()
        np.testing.assert_array_equal(res.logits, want)

    def test_full_tuning_keeps_the_clamp(self, env, eo_cfg):
        # BN gains > 1 push inputs of the second FC above 1; rho = 1 does
        # not switch the [0, 1] clamp off
        model, x = dispatch_model("bn-after-act",
                                  np.random.Generator(np.random.PCG64(61)))
        res = noisy_inference(model, x, None, eo_cfg, env, 1.0, seed=3)
        want = broadcast_logits(model, x, eo_cfg, env, 1.0, 3)
        np.testing.assert_allclose(res.logits, want, rtol=1e-12, atol=1e-12)
        ref, _ = reference_inference(model, x, folded=True)
        assert not np.allclose(want, ref)


class TestChunkedWalk:
    """Noisy and reference passes walk the batch in chunks: their traced
    peaks barely grow with the batch, and each chunk takes the kernel
    paths the whole batch takes."""

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peaks_bounded_in_the_batch(self, env, eo_cfg, conv_sim):
        model, x = conv_sim
        peaks = {}
        for n in (64, 1024):
            batch = np.random.Generator(np.random.PCG64(n)).uniform(
                0.0, 1.0, (n,) + x.shape[1:])
            peaks[n] = (
                self.traced_peak(lambda: noisy_inference(
                    model, batch, None, eo_cfg, env, 0.8, seed=7)),
                self.traced_peak(lambda: reference_inference(model, batch)))
        for small, large in zip(peaks[64], peaks[1024]):
            assert large <= 1.25 * small

    @pytest.fixture
    def paths(self, monkeypatch):
        """(path, rows, inputs) of each noisy-kernel form called."""
        calls = []
        for name in ("_level_gemm", "_blocked_broadcast", "_input_major"):
            def spy(acts, *args, _name=name,
                    _original=getattr(_kernels, name)):
                calls.append((_name, *acts.shape))
                return _original(acts, *args)
            monkeypatch.setattr(_kernels, name, spy)
        return calls

    def test_each_chunk_takes_the_batch_paths(self, env, eo_cfg, conv_sim,
                                              paths, monkeypatch):
        model, x = conv_sim
        tables = []
        original = _kernels.layer_table

        def spy(w_pos, *args):
            tables.append(w_pos.shape)
            return original(w_pos, *args)

        monkeypatch.setattr(_kernels, "layer_table", spy)
        chunked = noisy_inference(model, x, None, eo_cfg, env, 0.8, seed=7)
        # one table per binarized layer, whatever the chunks
        assert tables == [(16, 27), (32, 144), (128, 1568)]
        per_chunk = list(paths)
        paths.clear()
        monkeypatch.setattr(bnn, "CHUNK_BYTES", 1 << 40)
        whole = noisy_inference(model, x, None, eo_cfg, env, 0.8, seed=7)
        # conv 1 (27 inputs, 324 positions), conv 2 (144, 49), the FC
        # (1,568, 1)
        assert paths == [("_input_major", 64 * 324, 27),
                         ("_level_gemm", 64 * 49, 144),
                         ("_level_gemm", 64, 1568)]
        # the convs walk 2 x 32 images, the FC all 64: its 15 levels pay
        # at 64 and 32 rows, not at 16
        convs = [(p, rows // 2, k) for p, rows, k in paths[:2]]
        assert per_chunk == convs * 2 + paths[2:]
        assert _kernels._table_pays(15, 32, 128)
        assert not _kernels._table_pays(15, 16, 128)
        np.testing.assert_allclose(chunked.logits, whole.logits,
                                   rtol=1e-12, atol=1e-12)

    def test_fc_table_per_slice(self, env, eo_cfg, conv_sim, monkeypatch):
        # a budget that cuts 64 images into 2 slices of 32 for the FC
        # layers, each in 7 parts for the convs: the conv tables serve
        # every part, the FC builds one per slice
        model, x = conv_sim
        whole = noisy_inference(model, x, None, eo_cfg, env, 0.8, seed=7)
        monkeypatch.setattr(bnn, "CHUNK_BYTES", 32 * 1568 * 8)
        assert [len(p) for p in bnn.chunks(model, x)] == [7, 7]
        tables = []
        original = _kernels.layer_table

        def spy(w_pos, *args):
            tables.append(w_pos.shape)
            return original(w_pos, *args)

        monkeypatch.setattr(_kernels, "layer_table", spy)
        sliced = noisy_inference(model, x, None, eo_cfg, env, 0.8, seed=7)
        assert tables == [(16, 27), (32, 144), (128, 1568), (128, 1568)]
        np.testing.assert_allclose(sliced.logits, whole.logits,
                                   rtol=1e-12, atol=1e-12)


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

    def test_full_tuning_walked_once(self, env, eo_cfg, toy_model,
                                     toy_data, monkeypatch):
        # the all-ones row reads no map: one walk serves all five maps
        walks = []
        original = simulator._photonic_logits

        def spy(model, batch, mapping, rho_act, *rest):
            walks.append(bool(np.all(rho_act == 1.0)))
            return original(model, batch, mapping, rho_act, *rest)

        monkeypatch.setattr(simulator, "_photonic_logits", spy)
        fpv_accuracy_sweep(toy_model, toy_data.x_test, toy_data.y_test,
                           eo_cfg, env, [1.0, 0.0, 0.5], n_maps=5,
                           base_seed=50)
        assert walks.count(True) == 1 and walks.count(False) == 10

    def test_needs_one_map(self, env, eo_cfg, toy_model, toy_data):
        with pytest.raises(DomainError, match="n_maps"):
            fpv_accuracy_sweep(toy_model, toy_data.x_test, toy_data.y_test,
                               eo_cfg, env, [1.0], n_maps=0, base_seed=50)


class TestLabels:
    """Labels must hold one entry per sample; numpy would broadcast any
    other shape against the predictions."""

    @pytest.mark.parametrize("kind", BAD_LABELS)
    def test_noisy_inference_rejects(self, env, eo_cfg, toy_model, toy_data,
                                     kind):
        y = BAD_LABELS[kind](toy_data.y_test)
        with pytest.raises(DomainError, match="labels of shape"):
            noisy_inference(toy_model, toy_data.x_test, y, eo_cfg, env, 0.5,
                            seed=0)

    @pytest.mark.parametrize("kind", BAD_LABELS)
    def test_sweep_rejects(self, env, eo_cfg, toy_model, toy_data, kind):
        y = BAD_LABELS[kind](toy_data.y_test)
        with pytest.raises(DomainError, match="labels of shape"):
            fpv_accuracy_sweep(toy_model, toy_data.x_test, y, eo_cfg, env,
                               [0.5], n_maps=1, base_seed=0)

    def test_one_unbatched_sample(self, env, eo_cfg, toy_model, toy_data):
        x, y = toy_data.x_test[0], toy_data.y_test[0]
        _, want = reference_inference(toy_model, x)
        for label in (y, [y]):
            res = noisy_inference(toy_model, x, label, eo_cfg, env, 1.0,
                                  seed=0)
            assert res.accuracy == float(want == y)
            [row] = fpv_accuracy_sweep(toy_model, x, label, eo_cfg, env,
                                       [1.0], n_maps=1, base_seed=0)
            assert row == (1.0, float(want == y), 0.0)
        for call in (
                lambda: noisy_inference(toy_model, x, [y, y], eo_cfg, env,
                                        1.0, seed=0),
                lambda: fpv_accuracy_sweep(toy_model, x, [y, y], eo_cfg,
                                           env, [1.0], n_maps=1,
                                           base_seed=0)):
            with pytest.raises(DomainError, match="labels of shape"):
                call()

    @pytest.mark.parametrize("name", ["fc", "conv"])
    def test_empty_batch(self, env, eo_cfg, name):
        model, x = raw_input_models()[name]
        y = np.zeros(0, dtype=int)
        for labels in (None, y):
            with pytest.raises(DomainError, match="empty batch"):
                noisy_inference(model, x[:0], labels, eo_cfg, env, 0.5,
                                seed=0)
            with pytest.raises(DomainError, match="empty batch"):
                fpv_accuracy_sweep(model, x[:0], labels, eo_cfg, env, [0.5],
                                   n_maps=1, base_seed=0)

    def test_accuracy_is_the_mean_of_the_matches(self, env, eo_cfg,
                                                 toy_model, toy_data):
        res = noisy_inference(toy_model, toy_data.x_test, toy_data.y_test,
                              eo_cfg, env, 0.5, seed=0)
        want = float(np.mean(res.predictions == toy_data.y_test))
        assert type(res.accuracy) is float and res.accuracy == want


class TestDrawWhatIsRead:
    """Inference draws only the activation bank, up to the largest mapped
    id, and gets the bits that the full chip map gives."""

    @pytest.fixture
    def draws(self, monkeypatch):
        """(designs, count) of every FPV draw."""
        calls = []
        original = photonics.sample_fpv_map

        def spy(designs, stats, count, seed=None):
            calls.append((len(designs), count))
            return original(designs, stats, count, seed)

        monkeypatch.setattr(photonics, "sample_fpv_map", spy)
        return calls

    @pytest.mark.parametrize("arch", ["eo", "po"])
    def test_noisy_inference_equals_full_map(self, env, toolkit_config,
                                             toy_model, toy_data, arch,
                                             draws):
        cfg = config.arch_config(toolkit_config, arch)
        last = int(build_photonic_mapping(toy_model, cfg).mr_ids[-1])
        for f in (0.0, 0.5):
            full = noisy_inference(toy_model, toy_data.x_test,
                                   toy_data.y_test, cfg, env, f, seed=4,
                                   chip_map=chip_fpv_map(cfg, env, 4))
            del draws[:]
            drawn = noisy_inference(toy_model, toy_data.x_test,
                                    toy_data.y_test, cfg, env, f, seed=4)
            assert draws == [(1, last + 1)]
            assert drawn.logits.tobytes() == full.logits.tobytes()

    @staticmethod
    def sweep_case(case, toy_model, toy_data):
        """A model and data whose first binarized layer takes the given
        form of the noisy kernel: the toy MLP's 8 raw features run
        input-major, 64 run the blocked broadcast."""
        if case == "input-major":
            return toy_model, toy_data.x_test, toy_data.y_test
        model = bnn.make_mlp([64, 16, 3], seed=5)
        x = np.random.Generator(np.random.PCG64(5)).uniform(0, 1, (64, 64))
        return model, x, reference_inference(model, x, folded=True)[1]

    @pytest.mark.parametrize("arch", ["eo", "po"])
    def test_accuracy_sweep_equals_full_maps(self, env, toolkit_config,
                                             toy_model, toy_data, arch,
                                             draws, input_major_calls):
        cfg = config.arch_config(toolkit_config, arch)
        fractions = [0.0, 0.5, 0.8, 1.0]
        maps = [chip_fpv_map(cfg, env, 11 + i) for i in range(3)]
        for case in ("input-major", "blocked"):
            model, x, y = self.sweep_case(case, toy_model, toy_data)
            mapping = build_photonic_mapping(model, cfg)
            accs = [[noisy_inference(model, x, y, cfg, env, f, 0,
                                     chip_map=m).accuracy
                     for m in maps]
                    for f in fractions]
            del draws[:], input_major_calls[:]
            rows = fpv_accuracy_sweep(model, x, y, cfg, env, fractions,
                                      n_maps=3, base_seed=11)
            assert draws == [(1, int(mapping.mr_ids[-1]) + 1)] * 3
            assert rows == [(f, float(np.mean(a)), float(np.std(a)))
                            for f, a in zip(fractions, accs)]
            # three maps by three noisy fractions; full tuning runs
            # exact_dot
            assert input_major_calls == ([(len(x), 8)] * 9
                                         if case == "input-major" else [])
            # one ratio call per map gives each fraction's row bit for bit
            design = env.designs[RingClass.MULTI_BIT]
            for m in maps:
                deltas = m.deltas_nm[0][mapping.mr_ids]
                rho = _perturbation_ratios(design, mapping.lambda_nm, deltas,
                                           1.0 - np.asarray(fractions))
                assert rho.shape == (len(fractions), mapping.mr_ids.size)
                for f, row in zip(fractions, rho):
                    assert row.tobytes() == _perturbation_ratios(
                        design, mapping.lambda_nm, deltas, 1.0 - f).tobytes()

    @pytest.mark.parametrize("bad", [1.5, -0.1, math.nan])
    def test_sweep_checks_fractions_before_drawing(self, env, eo_cfg,
                                                   toy_model, toy_data,
                                                   draws, bad):
        with pytest.raises(DomainError, match="tuning_fraction"):
            fpv_accuracy_sweep(toy_model, toy_data.x_test, toy_data.y_test,
                               eo_cfg, env, [0.5, bad], n_maps=2,
                               base_seed=0)
        assert draws == []

    def test_short_activation_bank_rejected(self, env, eo_cfg, toy_model,
                                            toy_data):
        # the head up to the largest mapped id is enough, one row less is not
        last = int(build_photonic_mapping(toy_model, eo_cfg).mr_ids[-1])
        bank = chip_fpv_map(eo_cfg, env, 4).deltas_nm[0]
        args = (toy_model, toy_data.x_test, None, eo_cfg, env, 0.5, 4)
        noisy_inference(*args, chip_map=ChipFpvMap((bank[:last + 1],)))
        with pytest.raises(DomainError, match="activation bank"):
            noisy_inference(*args, chip_map=ChipFpvMap((bank[:last],)))

    def test_no_binarized_layer_draws_nothing(self, env, eo_cfg, draws):
        rng = np.random.Generator(np.random.PCG64(23))
        model = QuantModel((
            fc_layer(rng.normal(size=(6, 8)), binarized=False),
            activation_layer(),
            fc_layer(rng.normal(size=(3, 6)), binarized=False)))
        x = rng.uniform(0.0, 1.0, size=(10, 8))
        ref, cls = reference_inference(model, x, folded=True)
        res = noisy_inference(model, x, cls, eo_cfg, env, 0.0, seed=0)
        assert res.logits.tobytes() == ref.tobytes()
        assert fpv_accuracy_sweep(model, x, cls, eo_cfg, env, [0.0, 0.5],
                                  n_maps=2, base_seed=0) \
            == [(0.0, 1.0, 0.0), (0.5, 1.0, 0.0)]
        assert draws == []


class TestSimReport:
    def test_breakdown_mismatch_rejected(self):
        with pytest.raises(DomainError):
            simulator.SimReport(
                fps=1.0, total_power_mw=5.0,
                power_breakdown_mw={"laser": 1.0}, epb_pj_per_bit=None,
                area_mm2=1.0, inference_time_ns=1.0, pipeline_steps=1,
                pipeline_buffered_steps=1, noisy_accuracy=None,
                required_bandwidth_gb_s=1.0)

    def test_to_dict_round_trip_fields(self, env, eo_cfg):
        rep = power_and_epb(ModelStructure.from_counts((1000,)), eo_cfg, env)
        d = rep.to_dict()
        assert d["total_power_mw"] == rep.total_power_mw
        assert set(d["power_breakdown_mw"]) == set(rep.power_breakdown_mw)
