"""Hot numeric kernels, vectorized with numpy.

All kernels are deterministic: results depend only on the inputs.

``noisy_fc_forward`` reads a layer's signed table rho * rail
(``layer_table``), which its caller may build once for many calls. A layer
fed by a quantizer's integer codes may be summed by level, a GEMM per
group of levels (``_level_gemm``); a layer fed by values, or one where
that does not pay, takes the element-wise form in blocks of bounded size,
laid out input-major below about 58 inputs (``_input_major``). The two
element-wise forms give the same bits (but for NaN signs); the level split
differs from them only in summation order. The level split reads the codes
in one-byte passes: each level is counted by a byte compare
(``_level_counts``), and the inputs it adds pair by pair are found by one
wrapping byte range test per run of their levels (``_direct_sums``).

The blocks and index copies of those forms, the signed table of
``layer_table`` when given ``out``, and the patches of ``bnn.im2col`` are
scratch of one workspace that lasts across calls (``WORKSPACE``), so a walk
that repeats does not fault its scratch in again. Scratch lives until the
frame that lent it exits, so no inference pass returns any.
"""

from __future__ import annotations

import functools
import math
import mmap
from typing import NamedTuple

import numpy as np

__all__ = [
    "BACKEND",
    "WORKSPACE",
    "Windows",
    "all_pass_transmission",
    "channel_noise_powers",
    "layer_table",
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

# Most bytes of scratch the workspace lends at once (``Workspace``). On
# conv-sim's model its FC layer (1,568 -> 128) takes the most: its signed
# table and a block of direct-sum products, 2.65 MB at 64 rows and 2.77 MB
# at the 205-row slices of a larger batch. A request that does not fit is
# allocated as usual. Every byte kept adds to a process's peak RSS, so the
# level path's clamped tables, as large as the signed one, stay heap
# arrays (only the direct sums' clamped columns, within one block, are
# lent), and a conv layer's float patches are never copied whole
# (``Windows``).
WORKSPACE_BYTES = 4 << 20

# Smallest request the workspace lends: glibc's free lists serve smaller
# ones at least as fast and with few faults. The noisy walk lends an FC
# layer's scratch only when the layer's table is this large: the toy MLP's
# 32 x 8 layer kept a 512 KiB block for no fault saved, at 1.5-2 % more
# CPU per fpv-mc pass and 0.56 MB more peak RSS.
SMALL_BYTES = 1 << 16

_FLOAT, _INTP = np.dtype(np.float64), np.dtype(np.intp)
_BOOL, _BYTE = np.dtype(bool), np.dtype(np.uint8)


class Workspace:
    """Scratch arrays lent from one anonymous memory mapping of
    ``WORKSPACE_BYTES``, made at first use and never unmapped.

    A frame (``with WORKSPACE:``) takes back on exit whatever ``take`` lent
    inside it, so the workspace holds what one layer needs at a time: a
    stack of frames over one bump pointer, each request O(1). Outside any
    frame, and for a request past the cap, ``take`` allocates a fresh
    array. Pages once touched stay resident (``kept`` bytes), and the
    mapping is no heap memory, so it moves none of the allocator's
    thresholds. Lent arrays are uninitialized: every reader writes first.

    The workspace is module-level and not thread-safe: two threads in
    frames at once would hand out the same memory."""

    def __init__(self):
        self._memory = None
        self._top = 0           # bytes lent and not yet taken back
        self._frames = []       # ``_top`` at the entry of each open frame
        self.kept = 0           # the most bytes ever lent at once

    def __enter__(self):
        self._frames.append(self._top)

    def __exit__(self, *exc):
        self._top = self._frames.pop()

    def take(self, shape, dtype=_FLOAT) -> np.ndarray:
        """An uninitialized C-ordered array of ``shape`` and ``dtype`` (a
        numpy dtype), lent until the innermost frame exits (64-byte
        aligned). One under ``SMALL_BYTES`` is allocated as usual."""
        if not self._frames:
            return np.empty(shape, dtype)
        size = math.prod(shape) * dtype.itemsize
        start = (self._top + 63) & -64
        end = start + size
        if size < SMALL_BYTES or end > WORKSPACE_BYTES:
            return np.empty(shape, dtype)
        if self._memory is None:
            # private: a forked child copies the pages it writes
            self._memory = mmap.mmap(-1, WORKSPACE_BYTES, **_PRIVATE)
        self._top = end
        if end > self.kept:
            self.kept = end
        return np.ndarray(shape, dtype, self._memory, start)


class Windows:
    """The [n * oh * ow, c * kh * kw] rows of a conv layer's im2col patches
    left uncopied: ``view`` [n, oh, ow, c, kh, kw] is the sliding-window
    view of the layer's input (``bnn.im2col``), and row (s, oy, ox) is its
    window ``view[s, oy, ox]``. The element-wise forms of
    ``noisy_fc_forward`` copy each block of rows straight from it, so a
    layer's patches are never copied whole."""

    __slots__ = ("view",)

    def __init__(self, view: np.ndarray):
        self.view = view

    @property
    def shape(self) -> tuple[int, int]:
        n, oh, ow, *depth = self.view.shape
        return n * oh * ow, math.prod(depth)

    def max(self, initial):
        return self.view.max(initial=initial)

    def patches(self) -> np.ndarray:
        """The [n, oh * ow, depth] patches. Of a 1x1 kernel they are the
        input reshaped, a view of it where its strides allow (at stride
        1); otherwise a copy that, inside a frame of ``WORKSPACE``, is its
        scratch."""
        n, oh, ow, *depth = self.view.shape
        shape = (n, oh * ow, math.prod(depth))
        if self.view.shape[4:] == (1, 1):
            return self.view.reshape(shape)
        cols = WORKSPACE.take(shape, self.view.dtype)
        np.copyto(cols.reshape(self.view.shape), self.view)
        return cols

    def copy_rows(self, start, out):
        """Copy rows ``start:start + len(out)`` into ``out`` [m, depth], of
        any strides: at most five copies, of part of a row of windows, of
        whole rows and of whole samples."""
        n, oh, ow, *depth = self.view.shape
        dst = out.reshape(len(out), *depth)     # splits an axis: a view
        done = 0
        while done < len(dst):
            s, rest = divmod(start + done, oh * ow)
            oy, ox = divmod(rest, ow)
            left = len(dst) - done
            if ox or left < ow:
                src = self.view[s, oy, ox:ox + min(ow - ox, left)]
            elif oy or left < oh * ow:
                src = self.view[s, oy:oy + min(oh - oy, left // ow)]
            else:
                src = self.view[s:s + left // (oh * ow)]
            size = math.prod(src.shape[:src.ndim - len(depth)])
            np.copyto(dst[done:done + size].reshape(src.shape), src)
            done += size


def _framed(fn):
    """``fn`` in a frame of its own: what it takes from ``WORKSPACE`` is
    taken back when it returns."""
    @functools.wraps(fn)
    def call(*args, **kwargs):
        with WORKSPACE:
            return fn(*args, **kwargs)
    return call


_PRIVATE = ({"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE")
            else {})
WORKSPACE = Workspace()


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


def noisy_fc_forward(acts, w_pos, w_neg, table, levels=None):
    """FPV-perturbed fully connected forward pass (dual-rail weights).

    acts:          [n_samples, n_in] imprinted activation values, or with
                   ``levels`` their integer codes (uint8, used as the
                   level indices as they are)
    w_pos / w_neg: [n_out, n_in] rail occupancies in {0, 1}, of any
                   numeric dtype (int8 from the simulator)
    table:         ``layer_table(w_pos, w_neg, rho_act)`` of the
                   [n_out, n_in] per-MR activation perturbation ratios
                   rho_act
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
    the one signed table of ``layer_table``. The fold is not used where
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
    n, (n_out, n_in) = acts.shape[0], table.signed.shape
    form = (_input_major if _input_major_pays(n_in, n, n_out)
            else _blocked_broadcast)
    if not table.folds:
        if levels is not None:
            acts = levels[acts]
        return form(acts, table.rho, table.signed)  # ``signed`` is the rail
    if levels is not None:
        present = _level_counts(acts, levels.size)
        present[levels <= 0.0] = 0   # clip(v * rho) = 0 for v <= 0
        if _table_pays(np.count_nonzero(present), n, n_out):
            return _level_gemm(acts, levels, present, table.signed, table.hi)
        acts = levels[acts]
    if table.rho is None or (table.lo > 0.0
                             and acts.max(initial=0.0) < np.inf):
        return form(acts, table.signed)
    return form(acts, table.rho, np.subtract(w_pos, w_neg))


class LayerTable(NamedTuple):
    """What ``noisy_fc_forward`` derives from a layer's rails and ratios
    alone (``layer_table``)."""

    signed: np.ndarray          # rho * rail where ``folds``, else the rail
    rho: np.ndarray | None      # None where ``signed`` serves every input
    folds: bool                 # every ratio finite and >= 0
    lo: float                   # the smallest and largest ratio
    hi: float


def layer_table(w_pos, w_neg, rho_act, out=None) -> LayerTable:
    """The signed table and ratio range of the rails ``w_pos``/``w_neg``
    under the ratios ``rho_act`` (see ``noisy_fc_forward``). The ratios
    are kept for the inputs the fold does not hold for, and dropped when no
    input can be one: every ratio > 0 and no zero in the table. ``out``, a
    float64 array of the ratios' shape, takes the table."""
    rail = np.subtract(w_pos, w_neg,
                       out=np.empty(np.shape(rho_act)) if out is None else out)
    lo, hi = (rho_act.min(), rho_act.max()) if rho_act.size else (1.0, 1.0)
    if not (0.0 <= lo and hi < np.inf):        # a NaN fails both
        return LayerTable(rail, rho_act, False, lo, hi)
    signed = np.multiply(rail, rho_act, out=rail)
    return LayerTable(signed, None if lo > 0.0 and signed.all() else rho_act,
                      True, lo, hi)


@_framed
def _level_counts(codes, size):
    """``np.bincount(codes.ravel(), minlength=size)`` of [n, n_in] uint8
    codes below ``size``: per level, one byte compare of a block of rows
    into a bool scratch block within ``BLOCK_BYTES`` and ``np.count_nonzero``
    of it, so no code is cast to intp."""
    n, n_in = codes.shape
    counts = np.zeros(size, dtype=np.intp)
    rows = max(1, BLOCK_BYTES // max(1, n_in))
    hits = WORKSPACE.take((min(rows, n), n_in), _BOOL)
    for start in range(0, n, rows):
        block = codes[start:start + rows]
        on = hits[:len(block)]
        for l in range(size):
            counts[l] += np.count_nonzero(np.equal(block, l, out=on))
    return counts


def _intp_blocks(codes):
    """(first row, the rows cast to intp) for each block of rows of the
    [n, n_in] ``codes``, cast into one scratch block within ``BLOCK_BYTES /
    8``: np.take copies any other index whole to intp."""
    n, n_in = codes.shape
    rows = max(1, BLOCK_BYTES // (64 * max(1, n_in)))
    ints = WORKSPACE.take((min(rows, n), n_in), _INTP)
    for start in range(0, n, rows):
        block = ints[:len(codes[start:start + rows])]
        np.copyto(block, codes[start:start + rows])
        yield start, block


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


@_framed
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
    its one-hot mask against that clamped table.

    The GEMMs take a ``BLOCK_BYTES`` block of rows at a time, so a call
    holds one block of float inputs or masks (scratch), and builds each
    clamped table once for all its rows."""
    (n, n_in), n_out = idx.shape, signed.shape[0]
    out = np.zeros((n, n_out))
    used = present > 0
    if not used.any():
        return out
    never = used & (levels * hi <= 1.0)
    direct = _direct_pays(np.where(used & ~never, present, 0), n,
                          n_in, n_out)
    if direct.any():
        with WORKSPACE:
            _direct_sums(out, idx, levels, direct, signed)
    step = max(1, BLOCK_BYTES // (8 * max(1, n_in)))
    blocks = [slice(start, start + step) for start in range(0, n, step)]
    if never.any():
        values = np.where(never, levels, 0.0)
        with WORKSPACE:
            vals = WORKSPACE.take((min(step, n), n_in))
            for rows in blocks:
                codes = idx[rows]
                with WORKSPACE:
                    for start, ints in _intp_blocks(codes):
                        # mode "clip" writes into ``out`` unbuffered; no
                        # code is out of range
                        np.take(values, ints, mode="clip",
                                out=vals[start:start + len(ints)])
                out[rows] += vals[:len(codes)] @ signed.T
    buf = WORKSPACE.take((min(step, n), n_in))
    table = np.empty_like(signed)
    # Python ints, which compare with uint8 codes without a cast
    for l in np.flatnonzero(used & ~never & ~direct).tolist():
        np.multiply(signed, levels[l], out=table)
        np.clip(table, -1.0, 1.0, out=table)
        for rows in blocks:
            codes = idx[rows]
            out[rows] += np.equal(codes, l, out=buf[:len(codes)]) @ table.T
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
    within ``BLOCK_BYTES``; each row adds its pairs' products in input
    order (``np.add.reduceat``).

    The pairs are found on the uint8 codes as they are (``_on_levels``).
    Where the clamped columns clip(v * signed[:, k], -1, 1) of the direct
    levels pay (``_columns_pay``), they are built once and each pair
    gathers its column; otherwise each block multiplies and clips its
    pairs' columns of ``signed``. Either way a product is the one multiply
    and clip, so the bits are the same."""
    n_in, n_out = idx.shape[1], signed.shape[0]
    with WORKSPACE:
        flat = np.flatnonzero(_on_levels(idx, direct))    # grouped by sample
    chosen = np.flatnonzero(direct)
    table = None
    if _columns_pay(chosen.size, n_in, n_out, flat.size):
        table = WORKSPACE.take((n_out, chosen.size, n_in))
        np.multiply(signed[:, None, :], levels[chosen, None], out=table)
        np.clip(table, -1.0, 1.0, out=table)
        table = table.reshape(n_out, -1)
        column = np.zeros(levels.size, _INTP)     # of input 0 on each level
        column[chosen] = n_in * np.arange(chosen.size)
    pairs = max(1, BLOCK_BYTES // (n_out * 8))
    space = WORKSPACE.take((n_out * min(pairs, flat.size),))
    for start in range(0, flat.size, pairs):
        block = flat[start:start + pairs]
        rows, cols = np.divmod(block, n_in)
        codes = np.take(idx, block)
        prod = space[:n_out * block.size].reshape(n_out, block.size)
        if table is None:
            np.take(signed, cols, axis=1, out=prod, mode="clip")
            prod *= levels[codes]
            np.clip(prod, -1.0, 1.0, out=prod)
        else:
            cols += column[codes]
            np.take(table, cols, axis=1, out=prod, mode="clip")
        first = np.flatnonzero(np.diff(rows, prepend=-1))
        out[rows[first]] += np.add.reduceat(prod, first, axis=1).T


def _columns_pay(n_levels, n_in, n_out, n_pairs):
    """Whether ``_direct_sums`` builds the [n_out, n_levels * n_in] clamped
    columns of its levels once rather than forming the products of its
    ``n_pairs`` pairs: when they are no more entries than those products
    and fit one ``BLOCK_BYTES`` block. On conv-sim's conv 2 (8 x 144
    columns of 32 for about 19,000 pairs) they pay; its FC's 8 x 1,568
    columns of 128, for about 2,200 pairs, took about four times as long
    as the products (``columns_rule`` in BENCH_codes_passes.json)."""
    return (n_levels * n_in <= n_pairs
            and 8 * n_levels * n_in * n_out <= BLOCK_BYTES)


def _on_levels(codes, chosen):
    """The bool mask of the uint8 ``codes`` on the ``chosen`` levels (a bool
    per level), scratch of the caller's frame: one wrapping byte test
    (code - lo) <= hi - lo per run lo..hi of chosen levels, or-ed."""
    runs = []
    for l in np.flatnonzero(chosen).tolist():
        if runs and runs[-1][1] == l - 1:
            runs[-1][1] = l
        else:
            runs.append([l, l])
    mask, hit = (WORKSPACE.take(codes.shape, _BYTE) for _ in range(2))
    mask.fill(0)
    for lo, hi in runs:
        np.subtract(codes, np.uint8(lo), out=hit)     # wraps below lo
        np.less_equal(hit, np.uint8(hi - lo), out=hit.view(bool))
        mask |= hit
    return mask.view(bool)


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
    buf = WORKSPACE.take((min(rows, n),) + table.shape)
    clamped = WORKSPACE.take((min(rows, n), table.shape[1]))
    for start in range(0, n, rows):
        m = min(rows, n - start)
        if isinstance(acts, Windows):
            acts.copy_rows(start, clamped[:m])
            block = clamped[:m]
        else:
            block = acts[start:start + m]
        a_eff = buf[:m]
        if rail is None:
            block = np.maximum(block, 0.0, out=clamped[:m])
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
    buf = WORKSPACE.take((n_in, n_out, min(rows, n)))
    inputs = WORKSPACE.take((n_in, min(rows, n)))
    for start in range(0, n, rows):
        m = min(rows, n - start)
        a = inputs[:, :m]
        if isinstance(acts, Windows):
            acts.copy_rows(start, a.T)
            block = a
        else:
            block = acts[start:start + m].T
        if rail is None:
            np.maximum(block, 0.0, out=a)
        elif block is not a:
            a[...] = block
        a_eff = buf[:, :, :m]
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
