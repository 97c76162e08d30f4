"""Hot numeric kernels, vectorized with numpy.

All kernels are deterministic: results depend only on the inputs.

``noisy_fc_forward`` uses that a quantizer's outputs take only 2**bits
levels v_l, and that a ratio rho clamps v_l only where v_l * rho leaves
[0, 1]. After the inputs are found equal to the levels, exactly, the
levels are split by what the clamp does: the levels no ratio of the layer
clamps share one BLAS GEMM against rho * rail; a clamping level with many
inputs takes a GEMM of its one-hot mask against its clamped table; and
clamping levels with few inputs have the clipped products of their
(sample, input) pairs summed directly. The split is used only when the
GEMMs cost less than the element-wise form; otherwise that form runs in
blocks of bounded size. A layer with few inputs (below about 24,
``_input_major_pays``) runs the element-wise form input-major: it adds
whole [n_out, rows] slices in the order numpy sums a short axis, where an
[rows, n_out, n_in] block would pay numpy's per-output reduction cost for
a handful of terms. Both element-wise forms give the same bits; the level
split differs from them only in summation order.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BACKEND",
    "all_pass_transmission",
    "channel_noise_powers",
    "noisy_fc_forward",
]

BACKEND = "numpy"

# Temporary budget of one block of the broadcast form of noisy_fc_forward;
# a block that fits the L2 cache beat larger ones in a scratch sweep.
BLOCK_BYTES = 1 << 20

# Most levels a level hint is worth building for: each level present costs
# the table at least 1/32 of the blocked broadcast (see _table_pays), so
# 32 levels present never pay.
MAX_LEVELS = 32


def all_pass_transmission(cos_phi, r, a):
    """Through-port power transmission of an all-pass ring.

    T = (a^2 - 2*r*a*cos(phi) + r^2) / (1 - 2*r*a*cos(phi) + (r*a)^2)

    ``cos_phi`` may be a scalar or ndarray; ``r`` and ``a`` broadcast.
    """
    arr = np.asarray(cos_phi, dtype=np.float64)
    ra = r * a
    num = a * a - 2.0 * ra * arr + r * r
    den = 1.0 - 2.0 * ra * arr + ra * ra
    out = num / den
    return out if arr.ndim else float(out)


def channel_noise_powers(lambdas_nm, q_factor, input_powers):
    """Per-channel inter-channel crosstalk noise power.

    noise[i] = sum_{j != i} phi(i, j) * P_in[j]
    phi(i, j) = delta_i^2 / ((lambda_i - lambda_j)^2 + delta_i^2)
    delta_i   = lambda_i / (2 Q)
    """
    lam = np.asarray(lambdas_nm, dtype=np.float64)
    p = np.asarray(input_powers, dtype=np.float64)
    delta2 = (lam / (2.0 * q_factor)) ** 2
    det2 = (lam[:, None] - lam[None, :]) ** 2
    phi = delta2[:, None] / (det2 + delta2[:, None])
    np.fill_diagonal(phi, 0.0)
    return phi @ p


def noisy_fc_forward(acts, w_pos, w_neg, rho_act, levels=None):
    """FPV-perturbed fully connected forward pass (dual-rail weights).

    acts:          [n_samples, n_in] imprinted activation values
    w_pos / w_neg: [n_out, n_in] rail occupancies in {0, 1}
    rho_act:       [n_out, n_in] per-MR activation perturbation ratios
    levels:        optional hint, the evenly spaced values the inputs'
                   quantizer emits

    out[s, o] = sum_k clip(acts[s,k] * rho_act[o,k])
                      * (w_pos[o,k] - w_neg[o,k])

    where clip(.) clamps to [0, 1]. The rails carry no ratio: weight-ring
    ratios are >= 1, so clip(w * rho) is w for w in {0, 1}.

    Level split: if every input equals one of the ``levels`` v_l and the
    ratios are finite, then exactly

        out = sum_{l: v_l != 0} 1[acts == v_l] @ table_l.T
        table_l = clip(v_l * rho_act) * (w_pos - w_neg)

    and ``_level_gemm`` sums it with one GEMM for all the levels that
    never clamp, one per clamping level with many inputs, and direct sums
    for the rest, in O(n_samples*n_in + n_out*n_in) memory. The hint is
    used only after every input is found equal to a level, and only while
    the levels present are few enough to beat the broadcast
    (``_table_pays``). Inputs off the levels (a batch-norm fold or an
    average pool after the quantizer, raw features), inputs that rounding
    misses on a hint that is not evenly spaced (``_level_index``),
    non-finite ratios (0 * inf is not 0), too many levels present, or no
    hint take the broadcast form, a block of samples at a time, each
    block's [rows, n_out, n_in] temporary within ``BLOCK_BYTES``. Below
    the input-count crossover (``_input_major_pays``) the block is laid
    out [n_in, n_out, rows] instead, with the same result bit for bit.
    """
    rail = w_pos - w_neg
    if levels is not None and np.size(levels) and np.isfinite(rho_act).all():
        levels = np.unique(levels)       # sorted and distinct
        idx = _level_index(acts, levels)
        if np.array_equal(levels[idx], acts):
            present = np.bincount(idx.ravel(), minlength=levels.size)
            present[levels == 0.0] = 0   # level 0 adds nothing
            if _table_pays(np.count_nonzero(present), acts.shape[0],
                           rail.shape[0]):
                return _level_gemm(idx, levels, present, rail, rho_act)
    if _input_major_pays(rail.shape[1], acts.shape[0], rail.shape[0]):
        return _input_major(acts, rail, rho_act)
    return _blocked_broadcast(acts, rail, rho_act)


def _table_pays(n_levels, n, n_out):
    """Whether ``n_levels`` table GEMMs beat the blocked broadcast. Per
    level, the one-hot pass, the table pass and the GEMM cost about
    1/n_out, 1/(2 n) and 1/32 of the broadcast: a fit to the crossovers
    measured in BENCH_level_gemm.json (``level_table_crossover``).
    It still prices one GEMM per level present, while ``_level_gemm``
    runs fewer, so it is conservative; a refit is left for later."""
    return n_levels * (2 * n + n_out + n * n_out / 16) < 2 * n * n_out


def _input_major_pays(n_in, n, n_out):
    """Whether the input-major form beats the blocked broadcast. The
    broadcast's sum over a short input axis costs about 45 ns per output;
    the input-major adds cost about 1 ns more per product and 0.7 us per
    input. A fit to the ratios measured in BENCH_fpv_sweep.json
    (``input_major_crossover``), with the per-output term lowered so that
    layers of 24 or more inputs, where the measured ratios reach 1, keep
    the broadcast."""
    return n_in * (600 + n * n_out) < 24 * n * n_out


def _level_index(acts, levels):
    """Each input's index into the sorted, distinct ``levels``, found by
    rounding from the lowest level as if the levels were evenly spaced.
    The caller checks every index exactly, so an input on an unevenly
    spaced level, an overflow or a NaN only yields an index that check
    rejects, and the input takes the broadcast; fmax and fmin map NaN to
    0 and inf to the top, and a single level to index 0."""
    top = levels.size - 1
    with np.errstate(over="ignore", invalid="ignore"):
        k = np.subtract(acts, levels[0])
        k *= top / (levels[-1] - levels[0])
        np.rint(k, out=k)
        np.fmin(np.fmax(k, 0.0, out=k), top, out=k)
    return k.astype(np.intp)


def _level_gemm(idx, levels, present, rail, rho_act):
    """The noisy product of inputs on ``levels``, split by what the clamp
    does. ``idx`` holds each input's level index and ``present`` each
    level's input count, zero for a level that adds nothing.

    With rail in {-1, 0, 1}, a level v that no ratio clamps (0 <= v * rho
    <= 1 at the smallest and largest rho; rounding is monotone) has
    clip(v * rho) * rail equal to v * (rho * rail) bit for bit, so all such
    levels share one GEMM of their inputs against rho * rail. A level
    clamped only at 1 has it equal to clip(v * (rho * rail), -1, 1); if it
    holds few inputs (``_direct_pays``), those products are added pair by
    pair (``_direct_sums``). Any other level takes a GEMM of its one-hot
    mask against its clamped table."""
    n, n_out = idx.shape[0], rail.shape[0]
    out = np.zeros((n, n_out))
    used = present > 0
    if not used.any():
        return out
    ends = np.multiply.outer(levels, [rho_act.min(), rho_act.max()])
    above = used & (ends >= 0.0).all(axis=1)
    never = above & (ends <= 1.0).all(axis=1)
    direct = _direct_pays(np.where(above & ~never, present, 0), n,
                          idx.shape[1], n_out)
    table = np.multiply(rho_act, rail)
    if direct.any():
        _direct_sums(out, idx, levels, direct, table)
    buf = np.empty(idx.shape)
    if never.any():
        np.take(np.where(never, levels, 0.0), idx, out=buf, mode="clip")
        out += buf @ table.T
    for l in np.flatnonzero(used & ~never & ~direct):
        np.equal(idx, l, out=buf)
        np.multiply(rho_act, levels[l], out=table)
        np.clip(table, 0.0, 1.0, out=table)
        table *= rail
        out += buf @ table.T
    return out


def _direct_pays(counts, n, n_in, n_out):
    """Which clamping levels, of ``counts`` inputs each (0 for a level not
    to be summed directly), to add pair by pair rather than by one-hot
    GEMM. In ns, one level's GEMM costs about 3 per input, 1/20 per
    product and 5 per table entry; the direct sums cost 7 per product and
    80 per (sample, input) pair, plus 4 per input for the pass that finds
    the pairs, which every direct level shares. A level pays when its
    pairs cost less than its GEMM, and the pass only when the levels that
    pay save more than it costs. A fit to the crossovers measured in
    BENCH_level_split.json (``direct_sum_crossover``) for 1, 2, 4 and 8
    rare levels on eight layer shapes."""
    save = (n * n_in * (3 + n_out / 20) + 5 * n_in * n_out
            - counts * (7 * n_out + 80))
    pays = (counts > 0) & (save > 0)
    return pays & (save[pays].sum() > 4 * n * n_in)


def _direct_sums(out, idx, levels, direct, signed):
    """Add to ``out`` the products clip(v * signed, -1, 1) of the inputs
    on the ``direct`` levels, ``signed`` being rho * rail, a block of
    (sample, input) pairs at a time, each block's [n_out, pairs] products
    within ``BLOCK_BYTES``."""
    flat = np.flatnonzero(direct[idx])     # grouped by sample
    pairs = max(1, BLOCK_BYTES // (signed.shape[0] * 8))
    for start in range(0, flat.size, pairs):
        block = flat[start:start + pairs]
        rows, cols = np.divmod(block, idx.shape[1])
        prod = np.take(signed, cols, axis=1)
        prod *= levels[np.take(idx, block)]
        np.clip(prod, -1.0, 1.0, out=prod)
        first = np.flatnonzero(np.diff(rows, prepend=-1))
        out[rows[first]] += np.add.reduceat(prod, first, axis=1).T


def _blocked_broadcast(acts, rail, rho_act):
    """The broadcast form over blocks of samples in one reused buffer;
    each output sums over the input axis as an unblocked pass would."""
    n = acts.shape[0]
    out = np.empty((n, rail.shape[0]))
    rows = max(1, BLOCK_BYTES // max(1, rail.size * 8))
    buf = np.empty((min(rows, n),) + rail.shape)
    for start in range(0, n, rows):
        block = acts[start:start + rows]
        a_eff = buf[:block.shape[0]]
        np.multiply(block[:, None, :], rho_act, out=a_eff)
        np.clip(a_eff, 0.0, 1.0, out=a_eff)
        a_eff *= rail
        np.sum(a_eff, axis=2, out=out[start:start + rows])
    return out


def _input_major(acts, rail, rho_act):
    """The blocked broadcast with the input axis outermost: each block's
    buffer is [n_in, n_out, rows], and the sum over inputs adds whole
    [n_out, rows] slices in the order numpy sums a short axis, so every
    output equals ``_blocked_broadcast``'s bit for bit. For at most 128
    inputs (``_pairwise_sum``)."""
    n = acts.shape[0]
    n_out, n_in = rail.shape
    out = np.empty((n, n_out))
    rows = max(1, BLOCK_BYTES // max(1, rail.size * 8))
    buf = np.empty((n_in, n_out, min(rows, n)))
    for start in range(0, n, rows):
        block = acts[start:start + rows].T
        a_eff = buf[:, :, :block.shape[1]]
        np.multiply(block[:, None, :], rho_act.T[:, :, None], out=a_eff)
        np.clip(a_eff, 0.0, 1.0, out=a_eff)
        a_eff *= rail.T[:, :, None]
        _pairwise_sum(a_eff)
        # np.sum adds its 0.0 identity last: all -0.0 terms sum to +0.0
        np.add(a_eff[0].T, 0.0, out=out[start:start + rows])
    return out


def _pairwise_sum(b):
    """Sum ``b`` over axis 0 into ``b[0]`` in the order of numpy's pairwise
    float sum of at most 128 terms: below 8 in sequence; otherwise eight
    running partials, combined as ((0+1)+(2+3))+((4+5)+(6+7)), then the
    remaining terms in sequence."""
    n = b.shape[0]
    if n < 8:
        for i in range(1, n):
            b[0] += b[i]
        return
    tail = n - n % 8
    for i in range(8, tail, 8):
        b[:8] += b[i:i + 8]
    b[0:8:2] += b[1:8:2]
    b[0:8:4] += b[2:8:4]
    b[0] += b[4]
    for i in range(tail, n):
        b[0] += b[i]
