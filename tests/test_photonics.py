import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from mrbnn import _kernels, photonics
from mrbnn.errors import DegenerateResonatorError, DomainError
from mrbnn.photonics import (FpvStatistics, MrDesign, RingClass,
                             channel_resolution, fwhm_and_q, sample_fpv_map,
                             transmission)


def brute_force_noise(lams, q):
    """Independent oracle: direct double-loop crosstalk summation."""
    out = []
    for i, li in enumerate(lams):
        delta = li / (2.0 * q)
        acc = 0.0
        for j, lj in enumerate(lams):
            if i != j:
                acc += delta**2 / ((li - lj)**2 + delta**2)
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# transmission
# ---------------------------------------------------------------------------

class TestTransmission:
    def test_lossless_allpass_is_unity(self):
        phis = np.linspace(0, 2 * np.pi, 37)
        for r in (0.1, 0.5, 0.9, 0.99):
            t = _kernels.all_pass_transmission(np.cos(phis), r, 1.0)
            assert np.allclose(t, 1.0, atol=1e-12)

    def test_critical_coupling_extinction(self):
        for ra in (0.3, 0.7, 0.95):
            assert _kernels.all_pass_transmission(1.0, ra, ra) \
                == pytest.approx(0.0, abs=1e-12)

    def test_antiresonance_closed_form(self):
        # oracle: at cos(phi) = -1 the expression reduces to
        # ((a + r) / (1 + r a))^2
        r, a = 0.9, 0.95
        expected = ((a + r) / (1 + r * a)) ** 2
        assert _kernels.all_pass_transmission(-1.0, r, a) == pytest.approx(
            expected, rel=1e-12)
        assert expected == pytest.approx(0.9946164296975465, rel=1e-12)

    def test_bounded_on_grid(self):
        rng = np.random.Generator(np.random.PCG64(42))
        r = rng.uniform(0.01, 0.999, 10_000)
        a = rng.uniform(0.01, 1.0, 10_000)
        cos_phi = np.cos(rng.uniform(0, 2 * np.pi, 10_000))
        t = photonics._kernels.all_pass_transmission(cos_phi, 0.9, 0.95)
        t_grid = [_kernels.all_pass_transmission(c, ri, ai)
                  for c, ri, ai in zip(cos_phi[:100], r[:100], a[:100])]
        assert np.all((t >= -1e-9) & (t <= 1 + 1e-9))
        assert np.all((np.array(t_grid) >= -1e-9)
                      & (np.array(t_grid) <= 1 + 1e-9))

    def test_resonance_is_minimum(self, multibit):
        lam0 = multibit.resonant_wavelength_nm
        offsets = np.linspace(-0.5, 0.5, 501)
        t = transmission(multibit, lam0 + offsets, lam0)
        assert np.argmin(t) == 250
        assert t[250] == pytest.approx(
            ((multibit.amplitude_a - multibit.self_coupling_r)
             / (1 - multibit.self_coupling_r * multibit.amplitude_a)) ** 2,
            abs=1e-9)

    def test_phase_periodicity(self):
        phis = np.linspace(0, 2 * np.pi, 100)
        t1 = _kernels.all_pass_transmission(np.cos(phis), 0.8, 0.9)
        t2 = _kernels.all_pass_transmission(np.cos(phis + 2 * np.pi), 0.8, 0.9)
        assert np.allclose(t1, t2, atol=1e-12)

    def test_shifted_resonance_moves_dip(self, multibit):
        lam0 = multibit.resonant_wavelength_nm
        t_on = transmission(multibit, lam0, lam0)
        t_off = transmission(multibit, lam0, lam0 + 1.0)
        assert t_off > t_on

    def test_nonfinite_rejected(self, multibit):
        with pytest.raises(DomainError):
            transmission(multibit, float("nan"), 1550.0)
        with pytest.raises(DomainError):
            transmission(multibit, 1550.0, float("inf"))
        with pytest.raises(DomainError):
            transmission(multibit, -1.0, 1550.0)


class TestFwhmAndQ:
    def test_q_is_lambda_over_fwhm(self, multibit):
        fwhm, q = fwhm_and_q(multibit)
        assert q == pytest.approx(multibit.resonant_wavelength_nm / fwhm,
                                  rel=1e-12)

    def test_fwhm_inversion_at_q5000(self):
        # lambda = 1550 nm and Q = 5000 imply FWHM = 0.31 nm
        assert 1550.0 / 5000.0 == pytest.approx(0.31, rel=1e-12)

    def test_multibit_q_within_window(self, multibit):
        _, q = fwhm_and_q(multibit)
        assert abs(q - 5000.0) / 5000.0 <= 0.10

    def test_singlebit_q(self, designs):
        _, q = fwhm_and_q(designs[RingClass.SINGLE_BIT])
        assert q == pytest.approx(25000.0, rel=1e-6)

    def test_degenerate_resonator(self):
        fake = SimpleNamespace(self_coupling_r=1.0, amplitude_a=1.0,
                               resonant_wavelength_nm=1550.0,
                               group_index_ng=4.2,
                               circumference_nm=31415.9)
        with pytest.raises(DegenerateResonatorError):
            fwhm_and_q(fake)


# ---------------------------------------------------------------------------
# crosstalk / resolution
# ---------------------------------------------------------------------------

def crosstalk_phi(lambda_i_nm, lambda_j_nm, q_factor):
    """phi(i, j): the noise channel i of a two-channel comb reads from
    channel j at unit power."""
    return _kernels.channel_noise_powers([lambda_i_nm, lambda_j_nm],
                                         q_factor, [1.0, 1.0])[0]


class TestCrosstalk:
    def test_zero_detuning(self):
        assert crosstalk_phi(1550.0, 1550.0, 5000.0) == 1.0

    def test_one_nm_detuning_value(self):
        delta = 1550.0 / (2 * 5000.0)
        expected = delta**2 / (1.0 + delta**2)
        got = crosstalk_phi(1550.0, 1551.0, 5000.0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.0234613, abs=1e-6)

    def test_high_q_limit(self):
        assert crosstalk_phi(1550.0, 1551.0, 1e12) < 1e-12

    def test_symmetric_with_shared_delta(self):
        # evaluated with delta taken from the same reference channel
        assert crosstalk_phi(1550.0, 1552.0, 5000.0) == pytest.approx(
            crosstalk_phi(1550.0, 1548.0, 5000.0), rel=1e-12)

    def test_strictly_decreasing_in_detuning_and_q(self):
        dets = [0.5, 1.0, 2.0, 4.0]
        vals = [crosstalk_phi(1550.0, 1550.0 + d, 5000.0) for d in dets]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        qs = [2000.0, 5000.0, 10000.0, 50000.0]
        vals = [crosstalk_phi(1550.0, 1551.0, q) for q in qs]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestChannelResolution:
    def comb(self, n, spacing=1.0, center=1550.0):
        return [center + (i - (n - 1) / 2) * spacing for i in range(n)]

    def test_matches_brute_force(self):
        lams = self.comb(15)
        res = channel_resolution(lams, 5000.0)
        oracle = brute_force_noise(lams, 5000.0)
        assert np.allclose(res.noise_powers, oracle, rtol=1e-12)
        assert res.levels == pytest.approx(1.0 / max(oracle), rel=1e-12)

    def test_q5000_fifteen_channels(self):
        # the uncalibrated Q = 5000 comb resolves 14 levels (3 bits); the
        # 4-bit claim needs the calibrated design window (next test)
        res = channel_resolution(self.comb(15), 5000.0)
        assert res.levels == pytest.approx(14.0015, abs=1e-3)
        assert res.bits == 3

    def test_calibrated_multibit_reaches_4_bits(self, multibit):
        _, q = fwhm_and_q(multibit)
        res = channel_resolution(self.comb(15), q)
        assert res.levels >= 16.0
        assert res.bits >= 4

    def test_middle_channel_pairwise_sum(self):
        lams = [1550.0, 1551.0, 1552.0]
        res = channel_resolution(lams, 5000.0)
        expected = (brute_force_noise([1551.0, 1550.0], 5000.0)[0]
                    + brute_force_noise([1551.0, 1552.0], 5000.0)[0])
        assert res.noise_powers[1] == pytest.approx(expected, rel=1e-12)

    def test_single_channel_sentinel(self):
        res = channel_resolution([1550.0], 5000.0)
        assert res.levels == math.inf
        assert res.bits == 16

    def test_wide_detuning_levels_grow(self):
        prev = 0.0
        for spacing in (1.0, 2.0, 4.0, 8.0):
            res = channel_resolution(self.comb(2, spacing), 5000.0)
            assert res.levels > prev
            prev = res.levels

    def test_adding_channel_never_decreases_noise(self):
        for n in range(2, 12):
            a = channel_resolution(self.comb(n), 5000.0)
            b = channel_resolution(self.comb(n + 1), 5000.0)
            assert max(b.noise_powers) >= max(a.noise_powers) - 1e-15

    def test_doubling_spacing_never_decreases_levels(self):
        for n in (3, 7, 15):
            a = channel_resolution(self.comb(n, 1.0), 5000.0)
            b = channel_resolution(self.comb(n, 2.0), 5000.0)
            assert b.levels >= a.levels

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            channel_resolution([], 5000.0)


# ---------------------------------------------------------------------------
# FPV sampling
# ---------------------------------------------------------------------------

class TestFpvSampling:
    def test_zero_sigma_zero_shift(self, multibit):
        stats = FpvStatistics(sigma_nm=(0.0, 0.0, 0.0), seed=1)
        fmap = sample_fpv_map([multibit], stats, 100)
        assert np.all(fmap.delta_lambdas_nm == 0.0)

    def test_shift_arithmetic(self, multibit):
        # zero sigma: every deviation is the mean
        d = replace(multibit, slopes_nm_per_nm=(1.0, 1.0, 1.0))
        stats = FpvStatistics(mean_nm=(4.9, 1.5, 0.75),
                              sigma_nm=(0.0, 0.0, 0.0))
        fmap = sample_fpv_map([d], stats, 3)
        assert fmap.delta_lambdas_nm == pytest.approx([7.15] * 3, rel=1e-12)

    def test_linearity_in_deviations(self, multibit):
        def shift(dw, dt, dr):
            stats = FpvStatistics(mean_nm=(dw, dt, dr),
                                  sigma_nm=(0.0, 0.0, 0.0))
            return sample_fpv_map([multibit], stats, 1).delta_lambdas_nm[0]
        base = shift(1.3, -0.4, 0.2)
        for c in (-2.0, 0.5, 3.0):
            assert shift(1.3 * c, -0.4 * c, 0.2 * c) \
                == pytest.approx(c * base, rel=1e-12)

    def test_seed_reproducibility(self, multibit):
        stats = FpvStatistics(seed=77)
        a = sample_fpv_map([multibit], stats, 500)
        b = sample_fpv_map([multibit], stats, 500)
        assert a.delta_lambdas_nm.tobytes() == b.delta_lambdas_nm.tobytes()
        c = sample_fpv_map([multibit], stats, 500, seed=78)
        assert a.delta_lambdas_nm.tobytes() != c.delta_lambdas_nm.tobytes()

    def test_component_statistics(self, multibit):
        # a one-slope design's shift is that one deviation
        n = 20000
        for axis, sigma in enumerate((4.9, 1.5, 0.75)):
            slopes = [0.0, 0.0, 0.0]
            slopes[axis] = 1.0
            d = replace(multibit, slopes_nm_per_nm=tuple(slopes))
            vals = sample_fpv_map([d], FpvStatistics(seed=5),
                                  n).delta_lambdas_nm
            assert vals.shape == (n,)
            assert abs(np.mean(vals)) <= 3 * sigma / math.sqrt(n)
            assert abs(np.std(vals) - sigma) <= 3 * sigma / math.sqrt(n)

    def test_sample_invariant(self, designs):
        # two designs: rows are design-major, each a block of one standard
        # normal stream scaled by its own sigma' and shifted by its mu';
        # the oracle is that formula, bit for bit
        pair = [designs[RingClass.MULTI_BIT], designs[RingClass.BROADBAND]]
        stats = FpvStatistics(mean_nm=(0.4, -1.1, 0.25), seed=9)
        fmap = sample_fpv_map(pair, stats, 50)
        z = np.random.Generator(np.random.PCG64(9)).standard_normal(100)
        blocks = []
        for i, d in enumerate(pair):
            s = d.slopes_nm_per_nm
            mean = s[0] * 0.4 + s[1] * -1.1 + s[2] * 0.25
            w, t, r = s[0] * 4.9, s[1] * 1.5, s[2] * 0.75
            sigma = math.sqrt(w * w + t * t + r * r)
            blocks.append(z[i * 50:(i + 1) * 50] * sigma + mean)
        expected = np.concatenate(blocks)
        assert fmap.delta_lambdas_nm.tobytes() == expected.tobytes()
        assert fmap.delta_mean_nm == np.mean(expected)
        assert fmap.delta_std_nm == np.std(expected)

    def test_one_normal_matches_three(self, multibit):
        # s.(mu + sigma*z) over three independent normals is N(mu', sigma'^2)
        n = 20000
        slopes = (0.7, 1.3, 0.4)
        means = (0.5, -0.3, 1.2)
        sigmas = (4.9, 1.5, 0.75)
        d = replace(multibit, slopes_nm_per_nm=slopes)
        vals = sample_fpv_map([d], FpvStatistics(mean_nm=means, seed=3),
                              n).delta_lambdas_nm
        mean = sum(s * m for s, m in zip(slopes, means))
        sigma = math.sqrt(sum((s * g) ** 2 for s, g in zip(slopes, sigmas)))
        tol = 3 * sigma / math.sqrt(n)
        assert abs(np.mean(vals) - mean) <= tol
        assert abs(np.std(vals) - sigma) <= tol

    @pytest.mark.parametrize("seed", [0, 2**31])
    def test_prefix_stable(self, multibit, seed):
        # the first m shifts of a long draw are the draw of count m
        stats = FpvStatistics()
        full = sample_fpv_map([multibit], stats, 1000,
                              seed=seed).delta_lambdas_nm
        for m in (1, 3, 318, 999):
            head = sample_fpv_map([multibit], stats, m,
                                  seed=seed).delta_lambdas_nm
            assert head.tobytes() == full[:m].tobytes()

    def test_population_calibration(self, toolkit_config):
        from mrbnn.config import population_design
        design = population_design(toolkit_config)
        stats = FpvStatistics(seed=toolkit_config.fpv.seed)
        fmap = sample_fpv_map([design], stats, 10_000)
        assert abs(fmap.delta_std_nm - 24.417) / 24.417 <= 0.05
        assert abs(fmap.delta_mean_nm - (-0.1461)) <= 0.5

    def test_count_validation(self, multibit):
        with pytest.raises(DomainError):
            sample_fpv_map([multibit], FpvStatistics(), 0)
        with pytest.raises(DomainError):
            sample_fpv_map([], FpvStatistics(), 5)


class TestMrDesign:
    def test_round_trip_length_derived(self, multibit):
        assert multibit.circumference_nm == pytest.approx(
            2 * math.pi * multibit.radius_um * 1000.0, rel=1e-12)

    def test_field_validation(self, multibit):
        from dataclasses import replace
        with pytest.raises(DomainError):
            replace(multibit, radius_um=-1.0)
        with pytest.raises(DomainError):
            replace(multibit, amplitude_a=1.5)
        for name in ("resonant_wavelength_nm", "group_index_ng",
                     "effective_index_neff"):
            for bad in (0.0, -4.2, math.nan, math.inf):
                with pytest.raises(DomainError, match=name):
                    replace(multibit, **{name: bad})
