import numpy as np
import pytest

from mrbnn import _kernels


rng = np.random.Generator(np.random.PCG64(71))


class TestBackendEquivalence:
    """The vectorized kernels must agree tightly with scalar loop forms."""

    def test_all_pass(self):
        cos_phi = np.cos(rng.uniform(0, 2 * np.pi, 5000))
        got = _kernels.all_pass_transmission(cos_phi, 0.96, 0.99)
        ra = 0.96 * 0.99
        expected = [(0.99**2 - 2 * ra * c + 0.96**2)
                    / (1 - 2 * ra * c + ra**2) for c in cos_phi]
        assert np.allclose(got, expected, rtol=1e-13, atol=1e-15)

    def test_all_pass_scalar(self):
        got = _kernels.all_pass_transmission(1.0, 0.5, 0.5)
        assert isinstance(got, float)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_channel_noise(self):
        lams = 1550.0 + np.arange(15) - 7.0
        p = rng.uniform(0.1, 1.0, 15)
        got = _kernels.channel_noise_powers(lams, 5425.0, p)
        expected = np.zeros(15)
        for i in range(15):
            d2 = (lams[i] / (2 * 5425.0)) ** 2
            expected[i] = sum(d2 / ((lams[i] - lams[j]) ** 2 + d2) * p[j]
                              for j in range(15) if j != i)
        assert np.allclose(got, expected, rtol=1e-13)

    def test_noisy_fc(self):
        # row by row: one clipped GEMV per output
        n, o, k = 13, 7, 9
        acts = rng.uniform(0, 1, (n, k))
        w = np.sign(rng.normal(size=(o, k)))
        wp = (w > 0).astype(float)
        wn = (w < 0).astype(float)
        ra = rng.uniform(0.8, 3.0, (o, k))
        got = _kernels.noisy_fc_forward(acts, wp, wn, ra)
        rail = wp - wn
        expected = np.stack([np.clip(acts * ra[j], 0, 1) @ rail[j]
                             for j in range(o)], axis=1)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-14)


class TestNoisyFcSemantics:
    def test_matches_elementwise_oracle(self):
        acts = rng.uniform(0, 1, (4, 5))
        w = np.sign(rng.normal(size=(3, 5)))
        wp = (w > 0).astype(float)
        wn = (w < 0).astype(float)
        ra = rng.uniform(0.5, 4.0, (3, 5))
        got = _kernels.noisy_fc_forward(acts, wp, wn, ra)
        expected = np.zeros((4, 3))
        for s in range(4):
            for o in range(3):
                acc = 0.0
                for j in range(5):
                    ae = min(max(acts[s, j] * ra[o, j], 0.0), 1.0)
                    acc += ae * (wp[o, j] - wn[o, j])
                expected[s, o] = acc
        assert np.allclose(got, expected, rtol=1e-12)

    def test_unit_ratios_reduce_to_matmul(self):
        acts = rng.uniform(0, 1, (6, 8))
        w = np.sign(rng.normal(size=(4, 8)))
        wp = (w > 0).astype(float)
        wn = (w < 0).astype(float)
        ones = np.ones((4, 8))
        got = _kernels.noisy_fc_forward(acts, wp, wn, ones)
        assert np.allclose(got, acts @ w.T, atol=1e-12)

    def test_clamps_apply(self):
        acts = np.array([[0.9]])
        wp = np.array([[1.0]])
        wn = np.array([[0.0]])
        big = np.array([[10.0]])
        got = _kernels.noisy_fc_forward(acts, wp, wn, big)
        assert got[0, 0] == pytest.approx(1.0)  # 0.9*10 clamped to 1


class TestDeterminism:
    def test_repeated_calls_bitwise_equal(self):
        cos_phi = np.cos(rng.uniform(0, 2 * np.pi, 1000))
        a = _kernels.all_pass_transmission(cos_phi, 0.9, 0.95)
        b = _kernels.all_pass_transmission(cos_phi, 0.9, 0.95)
        assert a.tobytes() == b.tobytes()

    def test_backend_flag_consistent(self):
        assert _kernels.BACKEND == "numpy"
