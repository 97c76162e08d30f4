import numpy as np
import pytest

from mrbnn import _kernels, bnn


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


def loop_oracle(acts, wp, wn, ra):
    """The noisy product element by element."""
    n, k = acts.shape
    expected = np.zeros((n, wp.shape[0]))
    for s in range(n):
        for o in range(wp.shape[0]):
            acc = 0.0
            for j in range(k):
                ae = min(max(acts[s, j] * ra[o, j], 0.0), 1.0)
                acc += ae * (wp[o, j] - wn[o, j])
            expected[s, o] = acc
    return expected


def dual_rail(o, k):
    w = np.sign(rng.normal(size=(o, k)))
    return (w > 0).astype(float), (w < 0).astype(float)


class TestNoisyFcSemantics:
    def test_matches_elementwise_oracle(self):
        acts = rng.uniform(0, 1, (4, 5))
        wp, wn = dual_rail(3, 5)
        ra = rng.uniform(0.5, 4.0, (3, 5))
        got = _kernels.noisy_fc_forward(acts, wp, wn, ra)
        assert np.allclose(got, loop_oracle(acts, wp, wn, ra), rtol=1e-12)

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


class TestLevelTable:
    """Inputs given as a quantizer's codes take the level path."""

    @pytest.mark.parametrize("bits, act_range, zeros, used, ratios", [
        # many zero activations (after a ReLU)
        pytest.param(4, (0.0, 1.0), 0.6, None, (0.9, 3.0),
                     id="4-act_range0-0.6"),
        pytest.param(1, (0.0, 1.0), 0.0, None, (0.9, 3.0),
                     id="1-act_range1-0.0"),
        # level 0 is 0.2 and contributes
        pytest.param(4, (0.2, 0.8), 0.0, None, (0.9, 3.0),
                     id="4-act_range2-0.0"),
        # 7/15 * 2 < 1: no level present clamps, one GEMM for them all
        pytest.param(4, (0.0, 1.0), 0.0, range(8), (1.0, 2.0),
                     id="never-clamping-levels"),
        pytest.param(4, (0.0, 1.0), 0.0, (0, 15), (0.9, 3.0),
                     id="top-level-only"),
        pytest.param(4, (0.0, 1.0), 0.0, None, (0.5, 3.0),
                     id="ratios-below-1"),
        # levels 1-14 on about 0.7 % of the inputs each; 1-7 are negative,
        # clamped at 0, and must not be added as clip(v * rho * rail, -1, 1)
        pytest.param(4, (-0.5, 0.5), 0.0,
                     [0] * 60 + [15] * 60 + list(range(1, 15)), (0.9, 3.0),
                     id="rare-levels-some-negative"),
    ])
    def test_matches_oracle(self, level_calls, bits, act_range, zeros, used,
                            ratios):
        n, o, k = 64, 64, 13      # wide enough for 16 level GEMMs to pay
        levels = bnn.activation_levels(bits, *act_range)
        used = range(levels.size) if used is None else used
        codes = rng.choice(list(used), (n, k)).astype(np.uint8)
        codes[rng.uniform(size=(n, k)) < zeros] = 0     # level 0 is 0.0
        wp, wn = dual_rail(o, k)
        ra = rng.uniform(*ratios, (o, k))
        got = _kernels.noisy_fc_forward(codes, wp, wn, ra, levels=levels)
        assert level_calls == [(n, k)]
        np.testing.assert_allclose(
            got, loop_oracle(levels[codes], wp, wn, ra),
            rtol=1e-12, atol=1e-13)

    def test_off_level_inputs_take_the_broadcast(self, level_calls):
        # a batch-norm gain between the quantizer and the layer makes
        # values; on the levels or off them, values are not codes
        levels = bnn.activation_levels(4)
        acts = levels[rng.integers(0, levels.size, (9, 11))]
        acts[4, 7] = levels[5] * 1.3
        wp, wn = dual_rail(5, 11)
        ra = rng.uniform(0.9, 3.0, (5, 11))
        got = _kernels.noisy_fc_forward(acts, wp, wn, ra)
        assert level_calls == []
        np.testing.assert_allclose(got, loop_oracle(acts, wp, wn, ra),
                                   rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("bits, n", [
        (4, 1),       # one sample: a table per level costs more than it saves
        (8, 64),      # 255 levels present
    ])
    def test_too_many_levels_take_the_broadcast(self, level_calls, bits, n):
        o, k = 64, 20
        levels = bnn.activation_levels(bits)
        codes = rng.integers(1, levels.size, (n, k)).astype(np.uint8)
        codes.flat[:levels.size - 1] = range(1, levels.size)  # every level > 0
        wp, wn = dual_rail(o, k)
        ra = rng.uniform(0.9, 3.0, (o, k))
        got = _kernels.noisy_fc_forward(codes, wp, wn, ra, levels=levels)
        assert level_calls == []
        np.testing.assert_allclose(
            got, loop_oracle(levels[codes], wp, wn, ra),
            rtol=1e-12, atol=1e-13)

    def test_non_finite_ratios_take_the_broadcast(self, level_calls):
        # a critically coupled ring has zero on-resonance transmission, so
        # its ratio is infinite; the broadcast gives 0 * inf = NaN there
        levels = bnn.activation_levels(1)      # 0.0 and 1.0
        codes = np.array([[0, 1], [1, 1]], dtype=np.uint8)
        wp, wn = np.eye(2), np.zeros((2, 2))
        ra = np.array([[np.inf, 1.0], [1.0, 1.0]])
        with np.errstate(invalid="ignore"):
            got = _kernels.noisy_fc_forward(codes, wp, wn, ra, levels=levels)
        assert level_calls == []
        np.testing.assert_array_equal(got, [[np.nan, 1.0], [1.0, 1.0]])
        # a negative ratio clamps every input to 0, which the signed table
        # of the level path would not
        ra[0, 0] = -0.5
        got = _kernels.noisy_fc_forward(codes, wp, wn, ra, levels=levels)
        assert level_calls == []
        np.testing.assert_array_equal(got, [[0.0, 1.0], [0.0, 1.0]])

    def test_blocks_that_do_not_divide_the_samples(self, monkeypatch):
        n, o, k = 11, 3, 7
        acts = rng.uniform(-0.2, 1.2, (n, k))
        wp, wn = dual_rail(o, k)
        ra = rng.uniform(0.5, 3.0, (o, k))
        monkeypatch.setattr(_kernels, "BLOCK_BYTES", 4 * o * k * 8)
        got = _kernels.noisy_fc_forward(acts, wp, wn, ra)   # 4 + 4 + 3 rows
        np.testing.assert_allclose(got, loop_oracle(acts, wp, wn, ra),
                                   rtol=1e-12, atol=1e-13)
        # each output sums over the input axis as one unblocked pass would
        one_block = np.sum(np.clip(acts[:, None, :] * ra, 0.0, 1.0)
                           * (wp - wn), axis=2)
        assert np.array_equal(got, one_block)

    def test_empty_batch(self):
        wp, wn = dual_rail(3, 4)
        for acts, levels in ((np.zeros((0, 4)), None),
                             (np.zeros((0, 4), np.uint8),
                              bnn.activation_levels(4))):
            got = _kernels.noisy_fc_forward(acts, wp, wn, np.ones((3, 4)),
                                            levels=levels)
            assert got.shape == (0, 3)


class TestLevelSplit:
    """Levels that never clamp share one GEMM, a clamping level with many
    inputs keeps its one-hot GEMM, and rare clamping levels are added pair
    by pair; the result matches the element-wise oracle."""

    def test_unit_ratios_are_one_gemm(self, level_calls):
        # no level clamps, so all of them share the one GEMM
        n, o, k = 64, 64, 13
        levels = bnn.activation_levels(4)
        codes = rng.integers(0, levels.size, (n, k)).astype(np.uint8)
        wp, wn = dual_rail(o, k)
        got = _kernels.noisy_fc_forward(codes, wp, wn, np.ones((o, k)),
                                        levels=levels)
        assert level_calls == [(n, k)]
        np.testing.assert_array_equal(got, levels[codes] @ (wp - wn).T)

    def test_rare_clamping_levels_across_blocks(self, level_calls,
                                                monkeypatch):
        n, o, k = 64, 64, 13
        levels = bnn.activation_levels(4)
        codes = rng.choice([0, 2, 15], (n, k)).astype(np.uint8)
        # levels 8/15 to 14/15, each on at most 2 of the 832 inputs; the
        # five pairs of sample 0 span two blocks of three
        rows = [0, 0, 0, 0, 0, 1, 5, 5, 9]
        cols = [0, 2, 4, 6, 8, 3, 1, 11, 12]
        codes[rows, cols] = [8, 9, 10, 11, 12, 13, 14, 8, 9]
        wp, wn = dual_rail(o, k)
        ra = rng.uniform(1.0, 3.0, (o, k))
        pairs = []
        original = _kernels._direct_sums

        def spy(out, idx, levels, direct, signed):
            pairs.append(np.count_nonzero(direct[idx]))
            return original(out, idx, levels, direct, signed)

        monkeypatch.setattr(_kernels, "_direct_sums", spy)
        monkeypatch.setattr(_kernels, "BLOCK_BYTES", 3 * o * 8)
        got = _kernels.noisy_fc_forward(codes, wp, wn, ra, levels=levels)
        assert level_calls == [(n, k)] and pairs == [len(rows)]
        np.testing.assert_allclose(
            got, loop_oracle(levels[codes], wp, wn, ra),
            rtol=1e-12, atol=1e-13)

    def test_a_lone_rare_level_keeps_its_gemm(self):
        # the pass that finds the pairs pays only when levels share it: on
        # conv 2's shape, one clamping level on 0.7 % of the inputs keeps
        # its GEMM, seven such levels are summed directly
        n, k, o = 3136, 144, 32
        counts = np.zeros(16, dtype=np.intp)
        counts[8] = 0.007 * n * k
        assert not _kernels._direct_pays(counts, n, k, o).any()
        counts[8:15] = counts[8]
        assert np.array_equal(np.flatnonzero(
            _kernels._direct_pays(counts, n, k, o)), range(8, 15))

    def test_levels_below_zero_add_nothing(self, monkeypatch):
        # a quantizer range below 0, as a loaded model may set: clip(v *
        # rho, 0, 1) = 0 for v < 0, so only the 8 levels above 0 are
        # priced and reach a GEMM or a direct sum
        n, o, k = 64, 64, 13
        levels = bnn.activation_levels(4, -1.0, 1.0)
        codes = rng.integers(0, levels.size, (n, k)).astype(np.uint8)
        wp, wn = dual_rail(o, k)
        ra = rng.uniform(1.0, 1.5, (o, k))
        priced, present = [], []
        table_pays, level_gemm = _kernels._table_pays, _kernels._level_gemm

        def price(n_levels, *shape):
            priced.append(n_levels)
            return table_pays(n_levels, *shape)

        def gemm(idx, levels, counts, *args):
            present.append(counts.copy())
            return level_gemm(idx, levels, counts, *args)

        monkeypatch.setattr(_kernels, "_table_pays", price)
        monkeypatch.setattr(_kernels, "_level_gemm", gemm)
        got = _kernels.noisy_fc_forward(codes, wp, wn, ra, levels=levels)
        assert priced == [8] and len(present) == 1
        assert not present[0][levels <= 0.0].any()
        assert present[0][levels > 0.0].all()
        np.testing.assert_allclose(
            got, loop_oracle(levels[codes], wp, wn, ra),
            rtol=1e-12, atol=1e-13)

    def test_layer_without_inputs(self, level_calls):
        wp, wn = dual_rail(3, 0)
        got = _kernels.noisy_fc_forward(np.zeros((5, 0), np.uint8), wp, wn,
                                        np.ones((3, 0)),
                                        levels=bnn.activation_levels(4))
        assert level_calls == [(5, 0)]
        np.testing.assert_array_equal(got, np.zeros((5, 3)))
        # values take the broadcast, never the input-major form
        got = _kernels.noisy_fc_forward(np.zeros((5, 0)), wp, wn,
                                        np.ones((3, 0)))
        np.testing.assert_array_equal(got, np.zeros((5, 3)))


# the most inputs that take the input-major form, at any batch size
CROSSOVER = max(k for k in range(1, 129)
                if _kernels._input_major_pays(k, 1 << 40, 1))


def block_rows(o, k):
    """Rows per block of the element-wise forms on an [o, k] layer."""
    return _kernels.BLOCK_BYTES // (o * k * 8)


class TestInputMajor:
    """Below the crossover the broadcast runs input-major, and every output
    equals the blocked broadcast's np.sum bit for bit, folded or not."""

    @pytest.mark.parametrize("k", range(1, CROSSOVER + 9))
    def test_bit_identical_to_blocked(self, k):
        o = 3
        for n in (0, 1, 7, block_rows(o, k), block_rows(o, k) + 1):
            acts = rng.uniform(-0.5, 1.5, (n, k))   # raw features, > 1
            acts[rng.uniform(size=(n, k)) < 0.2] = 0.0
            rail = np.sign(rng.normal(size=(o, k)))
            ra = rng.uniform(0.5, 3.0, (o, k))
            if n:
                # zero inputs on negative rails: -0.0 products sum to +0.0
                acts[0] = 0.0
                rail[0] = -1.0
            for args in ((acts, ra * rail), (acts, ra, rail)):
                want = _kernels._blocked_broadcast(*args)
                got = _kernels._input_major(*args)
                np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(np.signbit(got),
                                              np.signbit(want))
                if n:
                    assert got[0, 0] == 0.0 and not np.signbit(got[0, 0])
            # critical coupling: an infinite ratio, 0 * inf = NaN
            ra[-1, k // 2] = np.inf
            with np.errstate(invalid="ignore"):
                want = _kernels._blocked_broadcast(acts, ra, rail)
                got = _kernels._input_major(acts, ra, rail)
            assert not n or np.isnan(want[0, -1])
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    def test_dispatch(self, input_major_calls):
        # _pairwise_sum follows numpy's order for at most 128 inputs
        assert CROSSOVER + 8 <= 128
        # conv 1 of the benchmark's conv BNN runs input-major
        assert _kernels._input_major_pays(27, 20736, 16)
        n, o = 4096, 16
        for k in (1, CROSSOVER, CROSSOVER + 1):
            acts = rng.uniform(0, 1, (n, k))
            wp, wn = dual_rail(o, k)
            got = _kernels.noisy_fc_forward(acts, wp, wn, np.ones((o, k)))
            np.testing.assert_array_equal(
                got, _kernels._blocked_broadcast(acts, wp - wn))
        # one input runs the blocked broadcast, whose sum over an axis of
        # length 1 is nearly free
        assert input_major_calls == [(n, CROSSOVER)]
        assert not _kernels._input_major_pays(1, 1 << 40, 128)
        # a handful of products does not pay for an add per input
        _kernels.noisy_fc_forward(np.ones((1, 8)), *dual_rail(1, 8),
                                  np.ones((1, 8)))
        assert len(input_major_calls) == 1


def three_op_blocked(acts, rail, rho_act):
    """The blocked broadcast before the fold: multiply, clip, times rail."""
    n = acts.shape[0]
    out = np.empty((n, rail.shape[0]))
    rows = max(1, _kernels.BLOCK_BYTES // max(1, rail.size * 8))
    buf = np.empty((min(rows, n),) + rail.shape)
    for start in range(0, n, rows):
        block = acts[start:start + rows]
        a_eff = buf[:block.shape[0]]
        np.multiply(block[:, None, :], rho_act, out=a_eff)
        np.clip(a_eff, 0.0, 1.0, out=a_eff)
        a_eff *= rail
        np.sum(a_eff, axis=2, out=out[start:start + rows])
    return out


def three_op_input_major(acts, rail, rho_act):
    """The input-major form before the fold, on strided inputs."""
    n = acts.shape[0]
    n_out, n_in = rail.shape
    out = np.empty((n, n_out))
    rows = max(1, _kernels.BLOCK_BYTES // max(1, rail.size * 8))
    buf = np.empty((n_in, n_out, min(rows, n)))
    for start in range(0, n, rows):
        block = acts[start:start + rows].T
        a_eff = buf[:, :, :block.shape[1]]
        np.multiply(block[:, None, :], rho_act.T[:, :, None], out=a_eff)
        np.clip(a_eff, 0.0, 1.0, out=a_eff)
        a_eff *= rail.T[:, :, None]
        _kernels._pairwise_sum(a_eff)
        np.add(a_eff[0].T, 0.0, out=out[start:start + rows])
    return out


class TestFold:
    """clip(a * rho, 0, 1) * rail == clip(max(a, 0) * (rho * rail), -1, 1)
    bit for bit where the kernel folds, and the kernel keeps the three-op
    product where the fold does not hold."""

    @staticmethod
    def cases(n, k, o=3):
        """(what, acts, rail, ratios) with the corner cases of the fold."""
        acts = rng.uniform(-0.5, 1.5, (n, k))   # negative inputs, > 1
        acts[rng.uniform(size=(n, k)) < 0.2] = 0.0
        rail = np.sign(rng.normal(size=(o, k)))
        ra = rng.uniform(0.5, 3.0, (o, k))      # ratios below 1
        if n:
            acts[0] = 0.0                       # zero inputs on -1 rails
            rail[0] = -1.0
        yield "plain", acts, rail, ra
        odd = acts.copy()
        odd.flat[::5] = np.inf
        odd.flat[1::7] = -np.inf
        odd.flat[2::9] = np.nan
        odd.flat[3::11] = -np.nan
        yield "inf and NaN inputs", odd, rail, ra
        zero_rails = rail.copy()
        zero_rails[:, ::3] = 0.0
        yield "zero rails", acts, zero_rails, ra
        yield "inf inputs on zero rails", odd, zero_rails, ra
        inf_ratio = ra.copy()
        inf_ratio[-1, k // 2] = np.inf
        yield "infinite ratio", acts, zero_rails, inf_ratio
        zero_ratio = ra.copy()
        zero_ratio[0, 0] = 0.0
        minus_inf = acts.copy()
        minus_inf[:, 0] = -np.inf
        yield "zero ratio, -inf inputs", minus_inf, rail, zero_ratio
        negative = ra.copy()
        negative[-1, 0] = -0.5
        yield "negative ratio", acts, rail, negative

    @pytest.mark.parametrize("k", range(1, CROSSOVER + 9))
    @pytest.mark.parametrize("major", [True, False],
                             ids=["input-major", "blocked"])
    def test_bit_identical_to_three_ops(self, monkeypatch, k, major):
        monkeypatch.setattr(_kernels, "_input_major_pays",
                            lambda *shape: major)
        three_ops = three_op_input_major if major else three_op_blocked
        for n in (0, 1, 7, block_rows(3, k) + 1):
            for what, acts, rail, ra in self.cases(n, k):
                wp, wn = (rail > 0) * 1.0, (rail < 0) * 1.0
                with np.errstate(invalid="ignore"):
                    got = _kernels.noisy_fc_forward(acts, wp, wn, ra)
                    want = three_ops(acts, rail, ra)
                assert np.array_equal(got, want, equal_nan=True), what
                # NaNs of both signs on one output may sum to either sign
                # in the other form, so each form is held to its own
                assert np.array_equal(np.signbit(got), np.signbit(want)), \
                    what


class TestInt8Rails:
    """The simulator hands the kernel int8 views of the sign tests as
    rails; every path gives the bits that float rails give."""

    @staticmethod
    def assert_same_bits(acts, rail, ra, levels=None):
        pos, neg = rail > 0, rail < 0
        with np.errstate(invalid="ignore"):
            got = _kernels.noisy_fc_forward(acts, pos.view(np.int8),
                                            neg.view(np.int8), ra,
                                            levels=levels)
            want = _kernels.noisy_fc_forward(acts, pos * 1.0, neg * 1.0, ra,
                                             levels=levels)
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("k", [3, CROSSOVER + 5])
    @pytest.mark.parametrize("major", [True, False],
                             ids=["input-major", "blocked"])
    def test_fold_and_rail_paths(self, monkeypatch, k, major):
        # TestFold's corner cases take the fold (finite ratios > 0) or the
        # rail product (zero, negative and infinite ratios); add NaN ones
        monkeypatch.setattr(_kernels, "_input_major_pays",
                            lambda *shape: major)
        for n in (1, block_rows(3, k) + 1):
            cases = list(TestFold.cases(n, k))
            _, acts, rail, ra = cases[0]
            nan_ratio = ra.copy()
            nan_ratio[1, k // 2] = np.nan
            cases.append(("NaN ratio", acts, rail, nan_ratio))
            for what, acts, rail, ra in cases:
                self.assert_same_bits(acts, rail, ra)

    @pytest.mark.parametrize("ratios", [(0.9, 3.0), (1.0, 2.0)],
                             ids=["clamping", "never-clamping"])
    def test_level_path(self, level_calls, ratios):
        n, o, k = 64, 64, 13
        levels = bnn.activation_levels(2)
        codes = rng.integers(0, levels.size, (n, k)).astype(np.uint8)
        rail = np.sign(rng.normal(size=(o, k)))
        self.assert_same_bits(codes, rail, rng.uniform(*ratios, (o, k)),
                              levels)
        assert level_calls == [(n, k)] * 2

    def test_codes_on_the_rail_path(self):
        # a NaN ratio sends codes through the rail product as their levels
        levels = bnn.activation_levels(2)
        codes = rng.integers(0, levels.size, (9, 5)).astype(np.uint8)
        rail = np.sign(rng.normal(size=(4, 5)))
        ra = rng.uniform(0.9, 3.0, (4, 5))
        ra[2, 3] = np.nan
        self.assert_same_bits(codes, rail, ra, levels)


class TestDeterminism:
    def test_repeated_calls_bitwise_equal(self):
        cos_phi = np.cos(rng.uniform(0, 2 * np.pi, 1000))
        a = _kernels.all_pass_transmission(cos_phi, 0.9, 0.95)
        b = _kernels.all_pass_transmission(cos_phi, 0.9, 0.95)
        assert a.tobytes() == b.tobytes()

    def test_backend_flag_consistent(self):
        assert _kernels.BACKEND == "numpy"
