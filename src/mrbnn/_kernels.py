"""Hot numeric kernels, vectorized with numpy.

All kernels are deterministic: results depend only on the inputs.

``noisy_fc_forward`` uses that a quantizer's outputs take only 2**bits
levels v_l: clip(v_l * rho) * rail is then one [out, in] table per level,
and the noisy product is exactly sum_l 1[acts == v_l] @ table_l.T, a few
BLAS GEMMs instead of an [n, out, in] temporary. Inputs are compared with
the levels exactly first, and the table is used only when its GEMMs cost
less than the element-wise form; otherwise that form runs in blocks of
bounded size. A layer with few inputs (below about 24, ``_input_major_pays``)
runs the element-wise form input-major: it adds whole [n_out, rows] slices
in the order numpy sums a short axis, where an [rows, n_out, n_in] block
would pay numpy's per-output reduction cost for a handful of terms. Both
forms give the same bits.
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
    levels:        optional hint, the values the inputs' quantizer emits

    out[s, o] = sum_k clip(acts[s,k] * rho_act[o,k])
                      * (w_pos[o,k] - w_neg[o,k])

    where clip(.) clamps to [0, 1]. The rails carry no ratio: weight-ring
    ratios are >= 1, so clip(w * rho) is w for w in {0, 1}.

    Level table: if every input equals one of the ``levels`` v_l and the
    ratios are finite, then exactly

        out = sum_{l: v_l != 0} 1[acts == v_l] @ table_l.T
        table_l = clip(v_l * rho_act) * (w_pos - w_neg)

    one GEMM per level present, in O(n_samples*n_in + n_out*n_in) memory.
    The hint is used only after every input is found equal to a level, and
    only while the levels present are few enough to beat the broadcast
    (``_table_pays``). Inputs off the levels (a batch-norm fold or an
    average pool after the quantizer, raw features), non-finite ratios
    (0 * inf is not 0), too many levels present, or no hint take the
    broadcast form, a block of samples at a time, each block's
    [rows, n_out, n_in] temporary within ``BLOCK_BYTES``. Below the
    input-count crossover (``_input_major_pays``) the block is laid out
    [n_in, n_out, rows] instead, with the same result bit for bit.
    """
    rail = w_pos - w_neg
    if levels is not None and np.size(levels) and np.isfinite(rho_act).all():
        levels = np.unique(levels)       # sorted and distinct
        idx = np.minimum(np.searchsorted(levels, acts), levels.size - 1)
        if np.array_equal(levels[idx], acts):
            present = np.bincount(idx.ravel(), minlength=levels.size) > 0
            present &= levels != 0.0     # level 0 adds nothing
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
    measured in BENCH_level_gemm.json (``level_table_crossover``)."""
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


def _level_gemm(idx, levels, present, rail, rho_act):
    """Sum over the levels ``present`` of one-hot @ level table; ``idx``
    holds each input's level index."""
    out = np.zeros((idx.shape[0], rail.shape[0]))
    one_hot = np.empty(idx.shape)
    table = np.empty(rail.shape)
    for l in np.flatnonzero(present):
        np.equal(idx, l, out=one_hot)
        np.multiply(rho_act, levels[l], out=table)
        np.clip(table, 0.0, 1.0, out=table)
        table *= rail
        out += one_hot @ table.T
    return out


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
