import numpy as np
import pytest

from mrbnn.errors import DomainError, IllConditionedLayoutError
from mrbnn.tuning import (TuningParams, bank_tuning_budget,
                          fold_to_nearest_resonance, hybrid_split,
                          ted_spacing_sweep, ted_tuning_power,
                          thermal_crosstalk_matrix, uniform_positions_um)


@pytest.fixture
def params():
    return TuningParams()


class TestHybridSplit:
    def test_zero_shift(self, params):
        s = hybrid_split(0.0, params)
        assert (s.eo_shift_nm, s.to_shift_nm, s.power_mw) == (0.0, 0.0, 0.0)
        assert s.latency_ns == params.eo_latency_ns

    def test_eo_only_rate(self):
        p = TuningParams(eo_max_shift_nm=2.0)
        s = hybrid_split(1.0, p)
        assert s.to_shift_nm == 0.0
        assert s.power_mw == pytest.approx(0.004, rel=1e-12)  # 4 uW
        assert s.latency_ns == p.eo_latency_ns

    def test_hybrid_rates(self):
        p = TuningParams(eo_max_shift_nm=2.0, fsr_nm=10.0)
        s = hybrid_split(3.0, p)
        assert s.eo_shift_nm == 2.0
        assert s.to_shift_nm == 1.0
        # 2 nm * 4 uW/nm + (1/10) FSR * 27.5 mW
        assert s.power_mw == pytest.approx(0.008 + 2.75, rel=1e-12)
        assert s.latency_ns == 4000.0

    def test_power_continuous_with_slope_break(self, params):
        eo_max = params.eo_max_shift_nm
        eps = 1e-7
        below = hybrid_split(eo_max - eps, params).power_mw
        at = hybrid_split(eo_max, params).power_mw
        above = hybrid_split(eo_max + eps, params).power_mw
        assert at == pytest.approx(below, abs=1e-8)
        assert at == pytest.approx(above, abs=1e-3)
        # piecewise-linear slopes differ across the break
        slope_lo = (at - hybrid_split(eo_max - 0.1, params).power_mw) / 0.1
        slope_hi = (hybrid_split(eo_max + 0.1, params).power_mw - at) / 0.1
        assert slope_hi > slope_lo * 10

    def test_monotone_in_shift(self, params):
        shifts = np.linspace(0, params.fsr_nm / 2, 200)
        powers = [hybrid_split(s, params).power_mw for s in shifts]
        assert all(b >= a for a, b in zip(powers, powers[1:]))

    def test_rejects_unfolded(self, params):
        with pytest.raises(DomainError):
            hybrid_split(params.fsr_nm, params)
        with pytest.raises(DomainError):
            hybrid_split(-0.1, params)


class TestFold:
    def test_within_half_fsr(self):
        assert fold_to_nearest_resonance(3.0, 10.0) == 3.0

    def test_wraps_to_neighbour(self):
        assert fold_to_nearest_resonance(9.5, 10.0) == pytest.approx(0.5)
        assert fold_to_nearest_resonance(-9.5, 10.0) == pytest.approx(0.5)
        assert fold_to_nearest_resonance(24.4, 10.0) == pytest.approx(4.4)

    def test_never_exceeds_half(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for d in rng.uniform(-100, 100, 500):
            assert fold_to_nearest_resonance(d, 18.2) <= 18.2 / 2 + 1e-12


class TestCrosstalkMatrix:
    def test_structure(self):
        k = thermal_crosstalk_matrix(uniform_positions_um(5, 5.0), 0.1, 10.0)
        assert np.allclose(np.diag(k), 1.0)
        assert np.allclose(k, k.T)
        assert np.all((k >= 0) & (k <= 1))
        # decay: nearer pairs couple more
        assert k[0, 1] > k[0, 2] > k[0, 4]

    def test_accepts_distance_matrix(self):
        pos = uniform_positions_um(4, 3.0)
        d = np.abs(pos[:, None] - pos[None, :])
        a = thermal_crosstalk_matrix(pos, 0.1, 10.0)
        b = thermal_crosstalk_matrix(d, 0.1, 10.0)
        assert np.array_equal(a, b)


class TestTed:
    def test_single_mr_no_reduction(self, params):
        res = ted_tuning_power([1.0], [0.0], params)
        assert res.p_ted_mw == pytest.approx(res.p_naive_mw, rel=1e-12)
        assert res.reduction_fraction == pytest.approx(0.0, abs=1e-12)

    def test_no_crosstalk_no_reduction(self, params):
        from dataclasses import replace
        p0 = replace(params, crosstalk_eta=0.0,
                     heater_efficiency_nm_per_mw=None)
        t = np.array([1.0, 2.0, 0.5, 1.5])
        res = ted_tuning_power(t, uniform_positions_um(4, 5.0), p0)
        assert res.p_ted_mw == pytest.approx(res.p_naive_mw, rel=1e-9)
        assert res.p_ted_mw == pytest.approx(
            t.sum() / p0.heater_efficiency_nm_per_mw, rel=1e-9)

    def test_fitted_anchor_reductions(self, params):
        r5 = ted_tuning_power(np.ones(10), uniform_positions_um(10, 5.0),
                              params)
        r7 = ted_tuning_power(np.ones(10), uniform_positions_um(10, 7.0),
                              params)
        assert r5.reduction_fraction == pytest.approx(0.51, abs=0.10)
        assert r7.reduction_fraction == pytest.approx(0.41, abs=0.10)
        assert r5.reduction_fraction > r7.reduction_fraction

    def test_reduction_vanishes_with_spacing(self, params):
        reds = [ted_tuning_power(np.ones(10),
                                 uniform_positions_um(10, d),
                                 params).reduction_fraction
                for d in (5.0, 10.0, 20.0, 40.0, 80.0)]
        assert all(a >= b - 1e-12 for a, b in zip(reds, reds[1:]))
        assert reds[-1] < 0.02

    def test_ted_never_worse_than_naive(self):
        # 1000 random diagonally dominant crosstalk matrices, driven through
        # ted_tuning_power itself by encoding each matrix as a distance
        # matrix (eta = 1, d0 = 1 makes K_ij = exp(-d_ij))
        rng = np.random.Generator(np.random.PCG64(11))
        p1 = TuningParams(crosstalk_eta=1.0, crosstalk_decay_um=1.0)
        for _ in range(1000):
            n = int(rng.integers(2, 12))
            m = rng.uniform(1e-6, 1.0, (n, n))
            m = (m + m.T) / 2
            np.fill_diagonal(m, 0.0)
            m *= rng.uniform(0.05, 0.95) / m.sum(axis=1).max()
            distances = np.full((n, n), 0.0)
            off = ~np.eye(n, dtype=bool)
            distances[off] = -np.log(m[off])
            t = rng.uniform(0, 5, n)
            res = ted_tuning_power(t, distances, p1)
            assert res.p_ted_mw <= res.p_naive_mw + 1e-9

    def test_non_dominant_rejected(self, params):
        from dataclasses import replace
        dense = replace(params, crosstalk_eta=0.45, crosstalk_decay_um=1e6,
                        heater_efficiency_nm_per_mw=None)
        with pytest.raises(IllConditionedLayoutError):
            ted_tuning_power(np.ones(10), uniform_positions_um(10, 5.0),
                             dense)

    def test_negative_targets_rejected(self, params):
        with pytest.raises(DomainError):
            ted_tuning_power([1.0, -1.0], uniform_positions_um(2, 5.0),
                             params)


class TestBankBudget:
    def test_zero_fraction_zero_power(self, params):
        banks = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        b = bank_tuning_budget(banks, 0.0, 5.0, params)
        assert b.total_power_mw == 0.0

    def test_monotone_in_fraction(self, params):
        banks = np.array([[0.4, 1.2, 2.5, 0.9], [3.0, 0.1, 1.7, 2.2]])
        budgets = [bank_tuning_budget(banks, f, 5.0, params).total_power_mw
                   for f in (0.2, 0.5, 0.8, 1.0)]
        assert all(b1 <= b2 + 1e-12 for b1, b2 in zip(budgets, budgets[1:]))
        assert budgets[1] < budgets[3]

    def test_eo_only_arithmetic(self, params):
        b = bank_tuning_budget(np.ones((3, 10)), 0.8, 5.0, params)
        assert b.to_power_mw == 0.0
        # 3 banks * 10 MRs * 0.8 nm * 4 uW/nm = 96 uW
        assert b.total_power_mw == pytest.approx(0.096, rel=1e-12)
        assert b.worst_latency_ns == params.eo_latency_ns

    def test_to_engages_latency(self, params):
        # one all-EO bank and one bank that needs heaters
        b = bank_tuning_budget(np.array([[0.5] * 4, [5.0] * 4]), 1.0, 5.0,
                               params)
        assert b.to_power_mw > 0
        assert b.worst_latency_ns == params.to_latency_ns

    def test_folding_applied(self, params):
        near = bank_tuning_budget([[0.5, 3.0]], 1.0, 5.0,
                                  params).total_power_mw
        wrapped = bank_tuning_budget(
            [[params.fsr_nm - 0.5, -(2 * params.fsr_nm + 3.0)]], 1.0, 5.0,
            params).total_power_mw
        assert wrapped == pytest.approx(near, rel=1e-9)

    def test_single_bank_is_one_row(self, params):
        deltas = [0.4, 1.2, 2.5, 0.9]
        assert bank_tuning_budget(deltas, 0.8, 5.0, params) \
            == bank_tuning_budget([deltas], 0.8, 5.0, params)

    def test_bad_fraction(self, params):
        with pytest.raises(DomainError):
            bank_tuning_budget([[1.0]], 1.5, 5.0, params)

    def test_dense_layout_rejected(self):
        dense = TuningParams(crosstalk_eta=0.5, crosstalk_decay_um=50.0)
        with pytest.raises(IllConditionedLayoutError):
            bank_tuning_budget(np.full((2, 10), 5.0), 1.0, 5.0, dense)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_oracles(self, params, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        n_banks, size = 7, 9
        banks = rng.normal(0.0, 12.0, (n_banks, size))
        banks[0] = rng.uniform(-0.9, 0.9, size)                   # all EO
        banks[1] += rng.choice([-2.0, 1.0, 3.0], size) * params.fsr_nm
        fraction = rng.uniform(0.3, 1.0)
        spacing = 5.0
        eo_nm = 0.0
        to_mw = 0.0
        for bank in banks:
            splits = [hybrid_split(
                fraction * fold_to_nearest_resonance(d, params.fsr_nm),
                params) for d in bank]
            eo_nm += sum(s.eo_shift_nm for s in splits)
            to = np.array([s.to_shift_nm for s in splits])
            if np.any(to > 0):
                to_mw += ted_tuning_power(
                    to, uniform_positions_um(size, spacing),
                    params).p_ted_mw
        eo_mw = eo_nm * params.eo_power_uw_per_nm * 1e-3
        b = bank_tuning_budget(banks, fraction, spacing, params)
        assert b.eo_power_mw == pytest.approx(eo_mw, rel=1e-12)
        assert b.to_power_mw == pytest.approx(to_mw, rel=1e-12)
        assert b.total_power_mw == pytest.approx(eo_mw + to_mw, rel=1e-12)
        assert b.worst_latency_ns == params.to_latency_ns
        all_eo = bank_tuning_budget(banks[:1], fraction, spacing, params)
        assert all_eo.to_power_mw == 0.0
        assert all_eo.worst_latency_ns == params.eo_latency_ns


class TestSpacingSweep:
    def test_rows_and_monotonicity(self, params):
        rows = ted_spacing_sweep([3.0, 5.0, 7.0, 9.0], 10, 1.0, params)
        assert len(rows) == 4
        assert all(len(r) == 4 for r in rows)
        reductions = [r[3] for r in rows]
        assert all(a >= b - 1e-12 for a, b in
                   zip(reductions, reductions[1:]))
        for _, p_naive, p_ted, red in rows:
            assert p_ted <= p_naive
            assert red == pytest.approx(1 - p_ted / p_naive, rel=1e-12)
