import numpy as np
import pytest

from mrbnn.errors import DomainError, IllConditionedLayoutError
from mrbnn.tuning import (TuningParams, fold_and_split, ted_drives,
                          ted_spacing_sweep, ted_tuning_power,
                          thermal_crosstalk_matrix, uniform_positions_um)


@pytest.fixture
def params():
    return TuningParams()


def naive_jacobi(t, k):
    """Reference: the naive heaters' iteration s <- t + (K - I) |s|."""
    s, off = t, k - np.eye(t.size)
    for _ in range(100_000):
        s, prev = t + off @ np.abs(s), s
        if np.max(np.abs(s - prev)) <= 1e-14 * np.max(s):
            return s
    raise AssertionError("naive iteration did not converge")


def bank_budget(banks, fraction, spacing, params):
    """(eo_mw, to_mw) of a [n_banks, bank_size] set of banks:
    ``fold_and_split``, then ``ted_drives`` on the TO remainders."""
    eo, to = fold_and_split(np.asarray(banks, float), fraction, params)
    s = ted_drives([to], spacing, params)
    return (float(np.sum(eo)) * params.eo_power_uw_per_nm * 1e-3,
            float(np.sum(np.abs(s))) / params.heater_efficiency_nm_per_mw)


def one_ring(shift_nm, params, fraction=1.0):
    """The (eo_mw, to_mw) of one one-ring bank."""
    return bank_budget([[shift_nm]], fraction, 5.0, params)


def fold(delta_nm, fsr_nm):
    """Oracle: shift magnitude to the nearest comb resonance."""
    x = abs(delta_nm) % fsr_nm
    return min(x, fsr_nm - x)


def eo_to_split(shift_nm, params):
    """Oracle: EO takes up to eo_max_shift_nm, the heater the rest."""
    eo = min(shift_nm, params.eo_max_shift_nm)
    return eo, shift_nm - eo


class TestHybridSplit:
    # the EO/TO split of one ring, read off one-ring banks
    def test_zero_shift(self, params):
        assert one_ring(0.0, params) == (0.0, 0.0)

    def test_eo_only_rate(self):
        p = TuningParams(eo_max_shift_nm=2.0)
        eo, to = one_ring(1.0, p)
        assert to == 0.0
        assert eo == pytest.approx(0.004, rel=1e-12)  # 4 uW

    def test_heater_efficiency_follows_fsr(self, params):
        from dataclasses import replace
        p = replace(params, fsr_nm=40.0)
        assert p.heater_efficiency_nm_per_mw == 40.0 / p.to_power_mw_per_fsr
        for bad in ({"fsr_nm": 0.0}, {"to_power_mw_per_fsr": 0.0}):
            with pytest.raises(DomainError):
                replace(params, **bad)

    def test_hybrid_rates(self):
        p = TuningParams(eo_max_shift_nm=2.0, fsr_nm=10.0)
        eo, to = one_ring(3.0, p)
        # 2 nm * 4 uW/nm + (1/10) FSR * 27.5 mW
        assert eo == pytest.approx(0.008, rel=1e-12)
        assert to == pytest.approx(2.75, rel=1e-12)

    def test_power_continuous_with_slope_break(self, params):
        eo_max = params.eo_max_shift_nm
        eps = 1e-7

        def power(shift):
            return sum(one_ring(shift, params))

        below, at, above = power(eo_max - eps), power(eo_max), \
            power(eo_max + eps)
        assert at == pytest.approx(below, abs=1e-8)
        assert at == pytest.approx(above, abs=1e-3)
        # piecewise-linear slopes differ across the break
        slope_lo = (at - power(eo_max - 0.1)) / 0.1
        slope_hi = (power(eo_max + 0.1) - at) / 0.1
        assert slope_hi > slope_lo * 10

    def test_monotone_in_shift(self, params):
        shifts = np.linspace(0, params.fsr_nm / 2, 200)
        powers = [sum(one_ring(s, params)) for s in shifts]
        assert all(b >= a for a, b in zip(powers, powers[1:]))

    def test_folds_unfolded(self, params):
        # a shift beyond FSR/2 or below zero is folded to the nearest
        # resonance before it is split
        fsr = params.fsr_nm
        for shift, folded in ((fsr, 0.0), (-0.1, 0.1), (fsr - 2.0, 2.0),
                              (-(fsr + 3.0), 3.0)):
            assert sum(one_ring(shift, params)) \
                == pytest.approx(sum(one_ring(folded, params)),
                                 rel=1e-9, abs=1e-12)


class TestFold:
    # an EO range wider than FSR/2 makes the EO power the folded shift
    P = TuningParams(eo_max_shift_nm=9.0, fsr_nm=10.0)

    def folded(self, delta_nm, params=P):
        return (one_ring(delta_nm, params)[0]
                / (params.eo_power_uw_per_nm * 1e-3))

    def test_within_half_fsr(self):
        assert self.folded(3.0) == pytest.approx(3.0, rel=1e-12)

    def test_wraps_to_neighbour(self):
        assert self.folded(9.5) == pytest.approx(0.5)
        assert self.folded(-9.5) == pytest.approx(0.5)
        assert self.folded(24.4) == pytest.approx(4.4)

    def test_never_exceeds_half(self):
        p = TuningParams(eo_max_shift_nm=18.0, fsr_nm=18.2)
        rng = np.random.Generator(np.random.PCG64(3))
        for d in rng.uniform(-100, 100, 500):
            assert self.folded(d, p) <= 18.2 / 2 + 1e-12


class TestFoldShortcut:
    # the fold skips the remainder below the FSR and the min up to FSR/2;
    # it must give the bits of the whole fold on each side of both bounds
    FSR = TuningParams().fsr_nm
    HALF = FSR / 2
    CASES = {
        "half": [HALF, -HALF],
        "above-half": [np.nextafter(HALF, np.inf)],
        "below-fsr": [np.nextafter(FSR, 0.0), -np.nextafter(FSR, 0.0)],
        "fsr": [FSR, -FSR],
        "above-fsr": [FSR + 0.5, -(3 * FSR + 1.0)],
        "mixed-half": [0.0, -0.0, 0.3, -1.2, HALF],
        "mixed-above-half": [0.0, 0.3, -1.2, np.nextafter(HALF, np.inf)],
        "mixed-below-fsr": [0.3, -1.2, np.nextafter(FSR, 0.0)],
        "mixed-fsr": [0.3, -1.2, FSR],
        "mixed-above-fsr": [[0.3, -1.2], [HALF, 2 * FSR + 0.7]],
        "nan": [0.3, np.nan],
        "inf": [0.3, -np.inf],
        "empty": [],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("fraction", [0.8, 1.0])
    def test_equals_whole_fold(self, params, case, fraction):
        deltas = np.array(self.CASES[case])
        with np.errstate(invalid="ignore"):     # inf % fsr is NaN
            x = np.abs(deltas) % params.fsr_nm
            corrected = fraction * np.minimum(x, params.fsr_nm - x)
            eo, to = fold_and_split(deltas, fraction, params)
        want_eo = np.minimum(corrected, params.eo_max_shift_nm)
        want_to = corrected - want_eo
        assert eo.shape == to.shape == deltas.shape
        assert eo.tobytes() == want_eo.tobytes()
        assert to.tobytes() == want_to.tobytes()


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

    def test_infinite_distance_decouples(self):
        d = np.array([[0.0, np.inf], [np.inf, 0.0]])
        assert np.array_equal(thermal_crosstalk_matrix(d, 0.1, 10.0),
                              np.eye(2))

    @pytest.mark.parametrize("d", [[[0.0, -1.0], [-1.0, 0.0]], []],
                             ids=["negative", "empty"])
    def test_bad_distances_rejected(self, d):
        with pytest.raises(DomainError):
            thermal_crosstalk_matrix(d, 0.1, 10.0)

    @pytest.mark.parametrize("eta", [0.45, np.nan])
    def test_checks_own_dominance(self, eta):
        # a NaN row sum must fail the check as well
        with pytest.raises(IllConditionedLayoutError):
            thermal_crosstalk_matrix(uniform_positions_um(10, 5.0), eta, 1e6)


class TestTed:
    def test_single_mr_no_reduction(self, params):
        res = ted_tuning_power([1.0], [0.0], params)
        assert res.p_ted_mw == pytest.approx(res.p_naive_mw, rel=1e-12)
        assert res.reduction_fraction == pytest.approx(0.0, abs=1e-12)

    def test_no_crosstalk_no_reduction(self, params):
        from dataclasses import replace
        p0 = replace(params, crosstalk_eta=0.0)
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
            k = thermal_crosstalk_matrix(distances, 1.0, 1.0)
            want = (np.sum(np.abs(naive_jacobi(t, k)))
                    / p1.heater_efficiency_nm_per_mw)
            assert res.p_naive_mw == pytest.approx(want, rel=1e-12, abs=0)

    def test_non_dominant_rejected(self, params):
        from dataclasses import replace
        dense = replace(params, crosstalk_eta=0.45, crosstalk_decay_um=1e6)
        with pytest.raises(IllConditionedLayoutError):
            ted_tuning_power(np.ones(10), uniform_positions_um(10, 5.0),
                             dense)

    def test_negative_targets_rejected(self, params):
        with pytest.raises(DomainError):
            ted_tuning_power([1.0, -1.0], uniform_positions_um(2, 5.0),
                             params)

    @pytest.mark.parametrize("target, spacings", [
        ([1.0, np.nan], uniform_positions_um(2, 5.0)),
        ([1.0, np.inf], uniform_positions_um(2, 5.0)),
        ([1.0, 1.0], [[0.0, np.nan], [np.nan, 0.0]]),
    ], ids=["nan-target", "inf-target", "nan-distance"])
    def test_non_finite_inputs_rejected(self, params, target, spacings):
        with pytest.raises(DomainError):
            ted_tuning_power(target, spacings, params)


class TestBankBudget:
    def test_zero_fraction_zero_power(self, params):
        banks = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert bank_budget(banks, 0.0, 5.0, params) == (0.0, 0.0)

    def test_monotone_in_fraction(self, params):
        banks = np.array([[0.4, 1.2, 2.5, 0.9], [3.0, 0.1, 1.7, 2.2]])
        budgets = [sum(bank_budget(banks, f, 5.0, params))
                   for f in (0.2, 0.5, 0.8, 1.0)]
        assert all(b1 <= b2 + 1e-12 for b1, b2 in zip(budgets, budgets[1:]))
        assert budgets[1] < budgets[3]

    def test_eo_only_arithmetic(self, params):
        eo, to = bank_budget(np.ones((3, 10)), 0.8, 5.0, params)
        assert to == 0.0
        # 3 banks * 10 MRs * 0.8 nm * 4 uW/nm = 96 uW
        assert eo == pytest.approx(0.096, rel=1e-12)

    def test_folding_applied(self, params):
        near = sum(bank_budget([[0.5, 3.0]], 1.0, 5.0, params))
        wrapped = sum(bank_budget(
            [[params.fsr_nm - 0.5, -(2 * params.fsr_nm + 3.0)]], 1.0, 5.0,
            params))
        assert wrapped == pytest.approx(near, rel=1e-9)

    def test_single_bank_is_one_row(self, params):
        # the split is element-wise, so a flat run of banks split once
        # reshapes into the split of each bank
        flat = np.array([0.4, 1.2, 2.5, 0.9, 30.0, -7.5])
        for whole, rows in zip(fold_and_split(flat, 0.8, params),
                               fold_and_split(flat.reshape(2, 3), 0.8,
                                              params)):
            assert np.array_equal(whole.reshape(2, 3), rows)

    def test_bad_fraction(self, params):
        with pytest.raises(DomainError):
            bank_budget([[1.0]], 1.5, 5.0, params)

    def test_dense_layout_rejected(self):
        dense = TuningParams(crosstalk_eta=0.5, crosstalk_decay_um=50.0)
        with pytest.raises(IllConditionedLayoutError):
            bank_budget(np.full((2, 10), 5.0), 1.0, 5.0, dense)

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
            splits = [eo_to_split(fraction * fold(d, params.fsr_nm), params)
                      for d in bank]
            eo_nm += sum(eo for eo, _ in splits)
            to = np.array([to for _, to in splits])
            if np.any(to > 0):
                to_mw += ted_tuning_power(
                    to, uniform_positions_um(size, spacing),
                    params).p_ted_mw
        eo_mw = eo_nm * params.eo_power_uw_per_nm * 1e-3
        eo, to = bank_budget(banks, fraction, spacing, params)
        assert eo == pytest.approx(eo_mw, rel=1e-12)
        assert to == pytest.approx(to_mw, rel=1e-12)
        assert bank_budget(banks[:1], fraction, spacing, params)[1] == 0.0


class TestHeads:
    # the drives of the first a banks are the first a rows of the drives
    # of all of them, bit for bit, at every width, one bank included
    WIDTHS = (1, 2, 7, 150, 301)

    @pytest.mark.parametrize("size", [1, 3, 5, 10, 15])
    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.8, 1.0])
    def test_equals_call_per_head(self, params, size, fraction):
        rng = np.random.Generator(np.random.PCG64(size))
        banks = rng.normal(0.0, 12.0, (301, size))
        banks[0] = 5.0 + rng.uniform(0.0, 0.5, size)   # needs heaters
        cool = banks.copy()
        cool[:3] = rng.uniform(-0.9, 0.9, (3, size))    # widths 1, 2: all EO
        cool[5] = 0.0
        k = thermal_crosstalk_matrix(uniform_positions_um(size, 5.0),
                                     params.crosstalk_eta,
                                     params.crosstalk_decay_um)
        for deltas in (banks, cool):
            _, to = fold_and_split(deltas, fraction, params)
            whole = ted_drives([to], 5.0, params)
            for a in self.WIDTHS:
                assert np.array_equal(ted_drives([to[:a]], 5.0, params),
                                      whole[:a])
            # the oracle: one LAPACK solve per bank
            want = np.array([np.linalg.solve(k, row) for row in to])
            scale = np.max(np.abs(want), axis=1, keepdims=True)
            assert np.all(np.abs(whole - want) <= 1e-12 * scale)
        assert (bank_budget(banks[:1], fraction, 5.0, params)[1] > 0) \
            == (fraction > 0)
        assert bank_budget(cool[:2], fraction, 5.0, params)[1] == 0.0

    def test_one_head_is_the_call(self, params):
        # each bank alone gets its row of the call on all of them
        _, to = fold_and_split(np.array([[0.4, 1.2, 12.5], [3.0, 0.1, 1.7],
                                         [9.0, 14.0, 7.5]]), 0.8, params)
        whole = ted_drives([to], 5.0, params)
        for b in range(3):
            assert np.array_equal(ted_drives([to[b:b + 1]], 5.0, params),
                                  whole[b:b + 1])

    def test_dense_layout_rejected_for_all_heads(self):
        dense = TuningParams(crosstalk_eta=0.5, crosstalk_decay_um=50.0)
        for a in (1, 3):
            with pytest.raises(IllConditionedLayoutError):
                ted_drives([np.zeros((a, 10))], 5.0, dense)


def solve_alone(k, row):
    """Reference: one bank's drives as the sum over j of t[j] times column
    j of K^-1, in that order, with no row skipped."""
    k_inv = np.linalg.inv(k)
    s = row[0] * k_inv[:, 0]
    for j in range(1, row.size):
        s = s + row[j] * k_inv[:, j]
    return s


class TestColdRows:
    # a bank whose TO targets are all 0 gets a zero drive without a solve;
    # the others get, after np.abs, the bits of a solve of their own
    @pytest.mark.parametrize("size", [1, 3, 10, 15])
    @pytest.mark.parametrize("cold", [0.0, 0.6, 1.0])
    def test_mixed_rows_equal_each_row_alone(self, params, size, cold):
        rng = np.random.Generator(np.random.PCG64(size))
        to = rng.uniform(0.0, 3.0, (40, size))
        to[rng.random(40) < cold] = 0.0
        to[1, 0] = 0.0                      # a hot row may hold a zero
        to[2] = -0.0
        to[3] *= -1.0                       # any sign is solved
        to[4, -1] = np.nan                  # and NaN is no zero
        k = thermal_crosstalk_matrix(uniform_positions_um(size, 5.0),
                                     params.crosstalk_eta,
                                     params.crosstalk_decay_um)
        # two stacked blocks and one block give the same rows
        for blocks in ([to], [to[:7], to[7:]]):
            s = ted_drives(blocks, 5.0, params)
            assert s.shape == to.shape
            assert s.flags.c_contiguous
            for b, row in enumerate(to):
                assert (np.abs(s[b]).tobytes()
                        == np.abs(solve_alone(k, row)).tobytes()), b

    def test_all_zero_block(self, params):
        s = ted_drives([np.zeros((5, 4)), np.zeros((2, 4))], 5.0, params)
        assert s.shape == (7, 4) and s.flags.c_contiguous
        assert not np.any(s)


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
