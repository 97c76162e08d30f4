"""Hot numeric kernels, vectorized with numpy.

All kernels are deterministic: results depend only on the inputs.

``noisy_fc_forward`` reads one signed table rho * rail per call. A layer
fed by a quantizer's integer codes may be summed by level, a GEMM per
group of levels (``_level_gemm``); a layer fed by values, or one where
that does not pay, takes the element-wise form in blocks of bounded size,
laid out input-major below about 58 inputs (``_input_major``). The two
element-wise forms give the same bits (but for NaN signs); the level split
differs from them only in summation order.
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

# Most levels whose codes are worth carrying to noisy_fc_forward: each
# level present costs the table at least 1/32 of the blocked broadcast
# (see _table_pays), so 32 levels present never pay.
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

    acts:          [n_samples, n_in] imprinted activation values, or with
                   ``levels`` their integer codes (uint8, used as the
                   level indices as they are)
    w_pos / w_neg: [n_out, n_in] rail occupancies in {0, 1}, of any
                   numeric dtype (int8 from the simulator)
    rho_act:       [n_out, n_in] per-MR activation perturbation ratios
    levels:        optional, the distinct values the codes stand for:
                   input (s, k) is levels[acts[s, k]]

    out[s, o] = sum_k clip(a[s,k] * rho_act[o,k])
                      * (w_pos[o,k] - w_neg[o,k])

    where a is the input values and clip(.) clamps to [0, 1]. The rails
    carry no ratio: weight-ring ratios are >= 1, so clip(w * rho) is w for
    w in {0, 1}.

    Fold: with rail = w_pos - w_neg in {-1, 0, 1} and the signed table
    rho * rail, a sign flip is exact, so for a >= 0 and finite rho >= 0

        clip(a * rho) * rail == clip(a * (rho * rail), -1, 1)

    bit for bit, and a negative input adds 0 either way. Every path reads
    the one signed table, built once per call. The fold is not used where
    it does not hold: a negative or non-finite ratio, a zero ratio (-inf *
    0 is NaN, 0 * s is not), or an infinite input on a zero rail (inf * 0
    is NaN, clip(inf) * 0 is not). Those take the product as written.

    Level split: given codes and ratios that are finite and >= 0, exactly

        out = sum_{l: v_l > 0} 1[acts == l] @ clip(v_l * signed, -1, 1).T

    which ``_level_gemm`` sums in O(n_samples*n_in + n_out*n_in) memory
    while the levels present are few enough to beat the element-wise form
    (``_table_pays``). Values, negative or non-finite ratios (0 * inf is
    not 0) and too many levels present take that form on the values
    (``_blocked_broadcast``, or ``_input_major`` below the input-count
    crossover ``_input_major_pays``, with the same bits).
    """
    n, (n_out, n_in) = acts.shape[0], np.shape(rho_act)
    form = (_input_major if _input_major_pays(n_in, n, n_out)
            else _blocked_broadcast)
    signed = np.subtract(w_pos, w_neg, out=np.empty((n_out, n_in)))
    lo, hi = (rho_act.min(), rho_act.max()) if rho_act.size else (1.0, 1.0)
    if not (0.0 <= lo and hi < np.inf):        # a NaN fails both
        if levels is not None:
            acts = levels[acts]
        return form(acts, rho_act, signed)     # ``signed`` is the rail
    signed *= rho_act
    if levels is not None:
        present = np.bincount(acts.ravel(), minlength=levels.size)
        present[levels <= 0.0] = 0   # clip(v * rho) = 0 for v <= 0
        if _table_pays(np.count_nonzero(present), n, n_out):
            return _level_gemm(acts, levels, present, signed, hi)
        acts = levels[acts]
    if lo > 0.0 and (signed.all() or acts.max(initial=0.0) < np.inf):
        return form(acts, signed)
    return form(acts, rho_act, np.subtract(w_pos, w_neg))


def _table_pays(n_levels, n, n_out):
    """Whether ``n_levels`` table GEMMs beat the blocked broadcast; only
    levels above 0 count, as only they add anything. Per level, the
    one-hot pass, the table pass and the GEMM cost about 1/n_out, 1/(2 n)
    and 1/32 of the broadcast: a fit to the crossovers measured in
    BENCH_level_gemm.json (``level_table_crossover``), against the
    three-pass broadcast of that time. The folded broadcast is cheaper,
    and ``_level_gemm`` runs fewer GEMMs than one per level present, so
    the fit errs both ways; it is kept because moving it would move
    layers between paths, and with them their summation order."""
    return n_levels * (2 * n + n_out + n * n_out / 16) < 2 * n * n_out


def _input_major_pays(n_in, n, n_out):
    """Whether the input-major form beats the blocked broadcast, both
    folded. Counted in input-major products (about 2 ns each), the
    broadcast's numpy sum over a short input axis costs about 58 per
    output, and the input-major form's numpy calls about 1,000 per input.
    So large batches run input-major below 58 inputs. One sample never
    does, nor one input (the broadcast's sum over it is nearly free), nor
    none (``_pairwise_sum`` needs one). A fit (least mean relative loss) to
    the ratios measured in BENCH_elementwise.json
    (``input_major_crossover``)."""
    return 1 < n_in and n_in * (1000 + n * n_out) < 58 * n * n_out


def _level_gemm(idx, levels, present, signed, hi):
    """The noisy product of inputs on ``levels``, split by what the clamp
    does. ``idx`` holds each input's level index, ``present`` each level's
    input count (zero for a level that adds nothing, every level <= 0),
    ``signed`` the table rho * rail and ``hi`` the largest ratio, all
    ratios being finite and >= 0.

    ``idx`` may be the quantizer's uint8 codes: it is only used as a
    fancy index (which numpy casts in small buffers) and compared, never
    copied whole to intp, as ``np.take`` would.

    A level v > 0 that no ratio clamps (v * hi <= 1; rounding is monotone)
    has clip(v * rho) * rail equal to v * signed bit for bit, so all such
    levels share one GEMM of their inputs against ``signed``. Any other
    level is clamped only at 1, where the product is clip(v * signed, -1,
    1). If it holds few inputs (``_direct_pays``), those products are
    added pair by pair (``_direct_sums``); otherwise it takes a GEMM of
    its one-hot mask against that clamped table."""
    n, n_out = idx.shape[0], signed.shape[0]
    out = np.zeros((n, n_out))
    used = present > 0
    if not used.any():
        return out
    never = used & (levels * hi <= 1.0)
    direct = _direct_pays(np.where(used & ~never, present, 0), n,
                          idx.shape[1], n_out)
    if direct.any():
        _direct_sums(out, idx, levels, direct, signed)
    if never.any():
        buf = np.where(never, levels, 0.0)[idx]
        out += buf @ signed.T
    else:
        buf = np.empty(idx.shape)
    table = np.empty_like(signed)
    # Python ints, which compare with uint8 codes without a cast
    for l in np.flatnonzero(used & ~never & ~direct).tolist():
        np.equal(idx, l, out=buf)
        np.multiply(signed, levels[l], out=table)
        np.clip(table, -1.0, 1.0, out=table)
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


def _blocked_broadcast(acts, table, rail=None):
    """The element-wise form over blocks of samples in one reused buffer:
    clip(max(acts, 0) * table, -1, 1) for the signed ``table``, or, given
    ``rail``, clip(acts * table, 0, 1) * rail for the ratios ``table``.
    Each output sums over the input axis as an unblocked pass would.

    np.einsum forms the products about twice as fast as a broadcast
    np.multiply, which pays numpy's set-up cost per broadcast row. With no
    summed index, each of its outputs is 0.0 plus one product: the bits of
    np.multiply, but for the sign of a zero, which no sum of products
    keeps (see ``_input_major``)."""
    n = acts.shape[0]
    out = np.empty((n, table.shape[0]))
    rows = max(1, BLOCK_BYTES // max(1, table.size * 8))
    buf = np.empty((min(rows, n),) + table.shape)
    clamped = np.empty((min(rows, n), table.shape[1]))
    for start in range(0, n, rows):
        block = acts[start:start + rows]
        a_eff = buf[:block.shape[0]]
        if rail is None:
            block = np.maximum(block, 0.0, out=clamped[:block.shape[0]])
        np.einsum("sk,ok->sok", block, table, out=a_eff)
        _clip(a_eff, rail)
        np.sum(a_eff, axis=2, out=out[start:start + rows])
    return out


def _input_major(acts, table, rail=None):
    """``_blocked_broadcast`` with the input axis outermost: each block of
    inputs is copied (and, for the signed table, clamped at 0) into a
    contiguous [n_in, rows] array, so the products fill an [n_in, n_out,
    rows] buffer a contiguous row times a scalar at a time. The sum over
    inputs adds whole [n_out, rows] slices in the order numpy sums a short
    axis, so every output equals ``_blocked_broadcast``'s bit for bit, but
    for the sign of a NaN summed from NaNs of both signs (numpy may add
    two NaNs either way round). For at most 128 inputs
    (``_pairwise_sum``)."""
    n = acts.shape[0]
    n_out, n_in = table.shape
    out = np.empty((n, n_out))
    rows = max(1, BLOCK_BYTES // max(1, table.size * 8))
    buf = np.empty((n_in, n_out, min(rows, n)))
    inputs = np.empty((n_in, min(rows, n)))
    for start in range(0, n, rows):
        block = acts[start:start + rows].T
        a = inputs[:, :block.shape[1]]
        if rail is None:
            np.maximum(block, 0.0, out=a)
        else:
            a[...] = block
        a_eff = buf[:, :, :block.shape[1]]
        np.einsum("ks,ok->kos", a, table, out=a_eff)
        _clip(a_eff, None if rail is None else rail.T[:, :, None])
        _pairwise_sum(a_eff)
        # np.sum adds its 0.0 identity last: all -0.0 terms sum to +0.0
        np.add(a_eff[0].T, 0.0, out=out[start:start + rows])
    return out


def _clip(products, rail):
    """Finish the element-wise products in place: clip to [-1, 1] for the
    signed table, or, given ``rail`` (broadcast to ``products``), clip to
    [0, 1] and multiply by it."""
    if rail is None:
        np.clip(products, -1.0, 1.0, out=products)
    else:
        np.clip(products, 0.0, 1.0, out=products)
        products *= rail


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
