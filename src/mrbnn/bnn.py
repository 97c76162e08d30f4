"""Partially binarized neural networks: representation, quantization,
desk-scale straight-through-estimator training, batch-norm folding, and the
layer walker (``forward``) behind the exact floating-point reference forward
pass, the trainer's forward pass and the photonic one of
``simulator.noisy_inference``. Inference walks a batch in balanced chunks
of samples (``walk``), so that its memory does not grow with the batch.

Weights of binarized layers are stored at full precision ("shadow" weights)
and enter every computation through sign(); sign(0) = +1 by convention.
Activations are uniformly quantized (mid-tread, round-half-up) to the model's
activation bit width after each nonlinearity (``forward`` hands them to a
binarized layer as integer ``Codes``). Batch-norm folding replaces the
BN layer by the per-channel constant C_fold = gamma / sqrt(var + eps) applied
AFTER the following nonlinearity; with a ReLU nonlinearity and positive gains
this is exactly equivalent to the explicit zero-mean, zero-bias BN layer.
Consecutive BN layers multiply their gains, and ``QuantModel.fold_gains``
gives the product each weighted layer's outputs carry. A BN layer after a
weighted layer must have that layer's output-channel count; ``QuantModel``
checks this when a model is built (and so when one is loaded).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from ._kernels import BLOCK_BYTES, MAX_LEVELS, WORKSPACE, Windows
from .errors import DomainError

# Budget of the largest float64 array one chunk of a walk holds (``chunks``).
# On conv-sim's model (70 KB of conv 1 patches per image) the convs take at
# most 37 images at a time: 64 images walk them as 2 x 32 and larger
# batches in chunks of 33 to 37, so a walk's peak barely grows past that of
# 64 images. Its FC layers (12.5 KB of inputs per image) take up to 208.
CHUNK_BYTES = 5 << 19


class LayerKind(Enum):
    CONV2D = "conv2d"
    FULLY_CONNECTED = "fully_connected"
    BATCH_NORM = "batch_norm"
    ACTIVATION = "activation"
    POOL = "pool"


@dataclass(frozen=True)
class Layer:
    """One network layer; unused fields stay None for foreign kinds."""

    kind: LayerKind
    weights: np.ndarray | None = None      # FC [out,in]; conv [oc,ic,kh,kw]
    binarized: bool = False
    stride: int = 1
    bn_gamma: np.ndarray | None = None
    bn_beta: np.ndarray | None = None
    bn_mean: np.ndarray | None = None
    bn_var: np.ndarray | None = None
    bn_epsilon: float = 1e-5
    activation: str = "relu"
    quantize: bool = True
    act_range: tuple[float, float] = (0.0, 1.0)
    pool_window: int = 2
    pool_mode: str = "max"

    def __post_init__(self):
        if self.kind == LayerKind.BATCH_NORM:
            if self.bn_var is None or not np.all(self.bn_var >= 0):
                raise DomainError("batch-norm variance must be >= 0")
            if not self.bn_epsilon > 0:
                raise DomainError("batch-norm epsilon must be > 0")
            shapes = {np.shape(v) for v in (self.bn_gamma, self.bn_beta,
                                             self.bn_mean, self.bn_var)}
            if shapes != {(np.size(self.bn_gamma),)}:
                raise DomainError("channel mismatch: BN vectors of shape "
                                  f"{sorted(shapes)}, not 1-D of one length")
        if self.weighted:
            rank = 4 if self.kind == LayerKind.CONV2D else 2
            if np.ndim(self.weights) != rank:
                raise DomainError(
                    f"{self.kind.value} weights must have {rank} axes")
        if self.kind == LayerKind.CONV2D and not self.stride >= 1:
            raise DomainError(f"conv stride must be >= 1, not {self.stride}")
        if self.kind == LayerKind.POOL and not self.pool_window >= 1:
            raise DomainError(
                f"pool window must be >= 1, not {self.pool_window}")
        if self.kind == LayerKind.ACTIVATION:
            try:
                lo, hi = self.act_range
                ok = math.isfinite(lo) and math.isfinite(hi) and lo < hi
            except (TypeError, ValueError):
                ok = False
            if not ok:
                raise DomainError("act_range must be two finite numbers "
                                  f"lo < hi, not {self.act_range!r}")

    @property
    def weighted(self) -> bool:
        """FC and conv layers carry weights and run on the VDP array."""
        return self.kind in (LayerKind.FULLY_CONNECTED, LayerKind.CONV2D)

    def effective_weights(self) -> np.ndarray:
        """Weights seen by inference: sign(shadow) when binarized."""
        return binarize(self.weights) if self.binarized else self.weights


class LayerShape(NamedTuple):
    """The dot products of one weighted layer (``QuantModel.shapes``)."""

    li: int         # the layer's index in ``QuantModel.layers``
    n_out: int      # its weight rows: FC outputs, conv output channels
    n_in: int       # the length of a row: an FC input, a conv patch


def fc_layer(weights, binarized=True) -> Layer:
    return Layer(LayerKind.FULLY_CONNECTED,
                 weights=np.asarray(weights, dtype=np.float64),
                 binarized=binarized)


def conv_layer(kernel, stride=1, binarized=True) -> Layer:
    return Layer(LayerKind.CONV2D,
                 weights=np.asarray(kernel, dtype=np.float64),
                 binarized=binarized, stride=stride)


def batch_norm_layer(gamma, beta, mean, var, epsilon=1e-5) -> Layer:
    return Layer(LayerKind.BATCH_NORM,
                 bn_gamma=np.asarray(gamma, dtype=np.float64),
                 bn_beta=np.asarray(beta, dtype=np.float64),
                 bn_mean=np.asarray(mean, dtype=np.float64),
                 bn_var=np.asarray(var, dtype=np.float64),
                 bn_epsilon=epsilon)


def activation_layer(activation="relu", quantize=True,
                     act_range=(0.0, 1.0)) -> Layer:
    return Layer(LayerKind.ACTIVATION, activation=activation,
                 quantize=quantize, act_range=act_range)


def pool_layer(window=2, mode="max") -> Layer:
    return Layer(LayerKind.POOL, pool_window=window, pool_mode=mode)


@dataclass(frozen=True)
class QuantModel:
    """Ordered layer list plus quantization policy."""

    layers: tuple[Layer, ...]
    activation_bits: int = 4
    last_layer_full_precision: bool = True

    def __post_init__(self):
        if self.activation_bits < 1:
            raise DomainError("activation_bits must be >= 1")
        prev_out = None
        channels = None     # output channels of the last weighted layer
        for layer in self.layers:
            if layer.kind == LayerKind.FULLY_CONNECTED:
                out_d, in_d = layer.weights.shape
                if prev_out is not None and in_d != prev_out:
                    raise DomainError(
                        f"FC input dim {in_d} does not chain from {prev_out}")
                prev_out = out_d
            elif layer.kind == LayerKind.CONV2D:
                prev_out = None  # spatial dims unknown until inference
            if layer.weighted:
                channels = layer.weights.shape[0]
            elif (layer.kind == LayerKind.BATCH_NORM and channels is not None
                  and np.shape(layer.bn_gamma) != (channels,)):
                raise DomainError(
                    f"channel mismatch: {channels} weighted-layer outputs "
                    f"vs BN vectors of shape {[np.shape(layer.bn_gamma)]}")

    @functools.cached_property
    def shapes(self) -> tuple[LayerShape, ...]:
        """One ``LayerShape`` per weighted layer, in layer order."""
        return tuple(LayerShape(li, l.weights.shape[0],
                                math.prod(l.weights.shape[1:]))
                     for li, l in enumerate(self.layers) if l.weighted)

    @functools.cached_property
    def _tail(self) -> tuple[int, int]:
        """The index of the first FC layer (the number of layers if none),
        and the elements of the largest array a walk holds per sample from
        that layer on: the widest input or output of its FC layers, whose
        widths chain (a conv or pool layer after it cannot run)."""
        fcs = [s for s in self.shapes
               if self.layers[s.li].kind is LayerKind.FULLY_CONNECTED]
        return ((fcs[0].li, max(max(s.n_out, s.n_in) for s in fcs)) if fcs
                else (len(self.layers), 0))

    def fold_gains(self) -> dict[int, np.ndarray]:
        """Weighted-layer index -> product of the C_fold of the BN layers
        between that layer and the next weighted one (layers with none are
        left out)."""
        gains = {}
        owner = None
        for li, layer in enumerate(self.layers):
            if layer.weighted:
                owner = li
            elif layer.kind == LayerKind.BATCH_NORM and owner is not None:
                gains[owner] = gains.get(owner, 1.0) * _c_fold(layer)
        return gains


# ---------------------------------------------------------------------------
# quantization primitives
# ---------------------------------------------------------------------------

def positive_rail(w) -> np.ndarray:
    """Where sign(w) is +1: w >= 0, the sign(0) = +1 tie-break. A
    non-finite weight has no sign and is a DomainError."""
    arr = np.asarray(w, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DomainError("binarize requires finite weights")
    return arr >= 0.0


def binarize(w):
    """sign(w) with the sign(0) = +1 tie-break."""
    out = np.where(positive_rail(w), 1.0, -1.0)
    return float(out) if np.ndim(w) == 0 else out


def quantize_activation(v, bits: int, lo: float = 0.0, hi: float = 1.0):
    """Clamp to [lo, hi] then quantize to 2**bits uniform mid-tread levels.

    Rounding is half-up (floor(x + 0.5)) so results are platform-stable.
    Idempotent: quantizing a level returns the level.
    """
    q = _quantize(v, bits, lo, hi, codes=False)
    return float(q) if np.ndim(v) == 0 else q


@functools.lru_cache(maxsize=64)
def activation_levels(bits: int, lo: float = 0.0, hi: float = 1.0):
    """The 2**bits values ``quantize_activation`` emits, ascending, one
    read-only array per quantizer: entry c is the value of code c."""
    levels = quantize_activation(np.linspace(lo, hi, 2 ** bits), bits, lo, hi)
    levels.flags.writeable = False
    return levels


@dataclass(frozen=True)
class Codes:
    """Quantized activations held as integer codes: each element of
    ``codes`` (uint8) stands for that entry of ``levels``, the quantizer's
    ``activation_levels``. The levels ascend, so maxima, reshapes and
    unfolding act on the codes as on the values."""

    codes: np.ndarray
    levels: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return self.codes.shape


def to_values(a):
    """The floats ``a`` holds: its codes' levels, laid out in memory as the
    codes are (so that sums over them add in the same order), or ``a``."""
    if not isinstance(a, Codes):
        return a
    # index the codes in their memory order, as a fancy index with uint8
    # codes casts them in small buffers (np.take copies them whole to intp)
    order = np.argsort([-s for s in a.codes.strides], kind="stable")
    return a.levels[a.codes.transpose(order)].transpose(np.argsort(order))


def _quantize(v, bits, lo, hi, codes=True, inplace=False):
    """``quantize_activation`` of ``v``, as ``Codes`` if ``codes`` is set,
    the 2**bits levels are at most ``MAX_LEVELS`` and no input is NaN, and
    otherwise as floats. Code c and its float are the same level, lo + c *
    (hi - lo) / steps. With ``inplace`` a float64 array ``v`` holds the
    floats."""
    if bits < 1:
        raise DomainError("bits must be >= 1")
    if not lo < hi:
        raise DomainError("range must satisfy lo < hi")
    steps = float(2 ** bits - 1)
    # an array even for a scalar v, so that the steps below run in place
    v = np.asarray(v, dtype=np.float64)
    k = np.asarray(np.clip(v, lo, hi, out=v if inplace else None))
    default = (lo, hi) == (0.0, 1.0)
    if not default:                 # x - 0.0 and x / 1.0 are x
        k -= lo
        k /= hi - lo
    k *= steps
    k += 0.5        # >= 0.5, so the code floor(k) is also its truncation
    if codes and 2 ** bits <= MAX_LEVELS and not np.isnan(k.max(initial=0.0)):
        return Codes(k.astype(np.uint8), activation_levels(bits, lo, hi))
    np.floor(k, out=k)
    if default:                     # 0.0 + x and x * 1.0 are x (x >= 0)
        k /= steps
        return k
    return lo + k * (hi - lo) / steps


def _c_fold(bn: Layer) -> np.ndarray:
    return bn.bn_gamma / np.sqrt(bn.bn_var + bn.bn_epsilon)


# ---------------------------------------------------------------------------
# reference inference
# ---------------------------------------------------------------------------

def im2col(x: np.ndarray, kh: int, kw: int, stride: int) -> tuple[np.ndarray, int, int]:
    """Unfold [n, c, h, w] into patch columns [n, positions, c*kh*kw].

    Valid padding; patch element order is (channel, ky, kx) row-major, the
    same order used to flatten conv kernels. The patches of a 1x1 kernel
    are ``x`` reshaped (a view at stride 1); others are a copy that, inside
    a frame of ``_kernels.WORKSPACE``, is scratch lent until it exits.
    """
    win = _windows(x, kh, kw, stride)
    return (win.patches(), *win.view.shape[1:3])


def _windows(x: np.ndarray, kh: int, kw: int, stride: int) -> Windows:
    """The sliding windows of ``im2col``'s patches, uncopied."""
    if x.shape[2] < kh or x.shape[3] < kw:
        raise DomainError("kernel larger than input")
    win = np.lib.stride_tricks.sliding_window_view(
        x, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    return Windows(win.transpose(0, 2, 3, 1, 4, 5))


def _apply_pool(x: np.ndarray, window: int, mode: str) -> np.ndarray:
    n, c, h, w = x.shape
    oh, ow = h // window, w // window
    x = x[:, :, :oh * window, :ow * window]
    x = x.reshape(n, c, oh, window, ow, window)
    if mode == "max":
        return x.max(axis=(3, 5))
    if mode == "avg":
        return x.mean(axis=(3, 5))
    raise DomainError(f"unknown pool mode {mode!r}")


def _max_pool_codes(codes: np.ndarray, window: int) -> np.ndarray:
    """``_apply_pool(codes, window, "max")`` of integer codes, as the
    elementwise maxima of the window's strided views: integer maxima are
    exact in any order. The result is laid out as the reduction lays out
    its own (in the order of the codes' strides). Floats keep the
    reduction, whose maxima differ in the signs of zeros and NaNs."""
    oh, ow = codes.shape[2] // window, codes.shape[3] // window
    views = [codes[:, :, i:i + oh * window:window, j:j + ow * window:window]
             for i in range(window) for j in range(window)]
    if window == 1:
        return views[0].copy(order="K")
    out = np.maximum(views[0], views[1])
    for view in views[2:]:
        np.maximum(out, view, out=out)
    return out


def _codes_read(layers: Sequence[Layer], li: int) -> bool:
    """Whether the quantizer of layer ``li`` feeds a binarized layer's dot
    with at most max pooling between: the one reader that takes ``Codes``.
    A full-precision layer, an average pool, a batch norm (folded or not),
    a nonlinearity or the logits take floats."""
    for layer in layers[li + 1:]:
        if layer.weighted:
            return layer.binarized
        if layer.kind != LayerKind.POOL or layer.pool_mode != "max":
            return False
    return False


def _keep_codes(a, fn):
    """``fn(a)``; of ``Codes``, the codes ``fn(a.codes)`` (``fn`` only
    moves or copies elements)."""
    return replace(a, codes=fn(a.codes)) if isinstance(a, Codes) else fn(a)


def _per_channel(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Broadcast a per-channel vector against [n, c] or [n, c, h, w]."""
    return v[:, None, None] if a.ndim == 4 else v


def exact_dot(li: int, layer: Layer, v) -> np.ndarray:
    """Exact dot products of ``v`` [..., in], values or ``Codes``, with the
    layer's weight rows. Codes are read as values a ``BLOCK_BYTES`` block
    of samples at a time, so that a call holds one block of their floats."""
    w = layer.effective_weights()
    w = w.reshape(w.shape[0], -1).T
    if not isinstance(v, Codes):
        return v @ w
    out = np.empty(v.shape[:-1] + (w.shape[1],))
    step = max(1, BLOCK_BYTES // (8 * max(1, math.prod(v.shape[1:]))))
    for start in range(0, v.shape[0], step):
        rows = slice(start, start + step)
        np.matmul(to_values(Codes(v.codes[rows], v.levels)), w,
                  out=out[rows])
    return out


def _conv(li: int, layer: Layer, a, dot) -> np.ndarray:
    """The conv layer ``li`` over ``a`` (see ``forward``)."""
    oc, ic, kh, kw = layer.weights.shape
    if len(a.shape) != 4 or a.shape[1] != ic:
        raise DomainError("conv input must be [n, in_c, h, w]")
    with WORKSPACE:
        if getattr(dot, "windows", False) and not isinstance(a, Codes):
            cols = _windows(a, kh, kw, layer.stride)
            oh, ow = cols.view.shape[1:3]
        else:
            cols, oh, ow = im2col(getattr(a, "codes", a), kh, kw,
                                  layer.stride)
            cols = replace(a, codes=cols) if isinstance(a, Codes) else cols
        out = dot(li, layer, cols)
    n = a.shape[0]
    return out.reshape(n, oh * ow, oc).transpose(0, 2, 1).reshape(n, oc,
                                                                  oh, ow)


def forward(model: QuantModel, a: np.ndarray, dot,
            folded: bool = False, start: int = 0,
            stop: int | None = None) -> np.ndarray:
    """Walk the layers of ``model`` over the batch ``a``; return the logits.

    ``dot(li, layer, v)`` computes the dot products of weighted layer ``li``:
    ``v`` is [n, in] for FC layers and the im2col patches [n, positions,
    depth] for conv layers, and the result is [..., out]. A ``dot`` with a
    true ``windows`` attribute gets a conv layer's float inputs as their
    uncopied ``_kernels.Windows`` instead, and may return [n * positions,
    out]. Patches are scratch of ``_kernels.WORKSPACE`` until ``dot``
    returns. Everything else
    (batch norm, nonlinearities, quantization, pooling) runs exactly here.
    A quantizer hands on ``Codes`` only where a binarized layer's ``dot``
    reads them (``_codes_read``), and only max pooling, reshapes and im2col
    lie between; they take the codes as they are. Every other reader gets
    the quantizer's floats, with the same bits as ``to_values`` of the
    codes. When ``folded`` is True, batch-norm layers are folded: mean/bias are
    dropped and C_fold multiplies the activations after the following
    nonlinearity; the gains of BN layers with no nonlinearity, pooling or
    weighted layer between them multiply.

    The fold, ReLU and the quantizer work in place only on an array the
    walk itself allocated, never on the caller's batch or on what ``dot``
    returned (a caller may keep it, as the STE tape does).

    ``start`` and ``stop`` walk only the layers ``start:stop``, for a
    ``stop`` at an FC layer (``walk``): the result is what that layer
    reads, flattened per sample, as ``Codes`` where it takes codes.
    """
    pending_fold = None
    owned = False       # whether the walk allocated ``a`` itself

    def flush_fold(val):
        nonlocal pending_fold, owned
        if pending_fold is not None:
            val = np.multiply(val, _per_channel(pending_fold, val),
                              out=val if owned else None)
            pending_fold = None
            owned = True
        return val

    for li in range(start, len(model.layers) if stop is None else stop):
        layer = model.layers[li]
        if layer.kind == LayerKind.FULLY_CONNECTED:
            a = flush_fold(a)
            if len(a.shape) > 2:
                a = _keep_codes(a, lambda x: x.reshape(x.shape[0], -1))
            if a.shape[1] != layer.weights.shape[1]:
                raise DomainError(f"FC expects {layer.weights.shape[1]} "
                                  f"features, got {a.shape[1]}")
            a, owned = dot(li, layer, a), False
        elif layer.kind == LayerKind.CONV2D:
            a, owned = _conv(li, layer, flush_fold(a), dot), False
        elif layer.kind == LayerKind.BATCH_NORM:
            if folded:
                pending_fold = _c_fold(layer) * (
                    1.0 if pending_fold is None else pending_fold)
            else:
                a = ((a - _per_channel(layer.bn_mean, a))
                     * _per_channel(_c_fold(layer), a)
                     + _per_channel(layer.bn_beta, a))
                owned = True
        elif layer.kind == LayerKind.ACTIVATION:
            if layer.activation == "relu":
                a = np.maximum(a, 0.0, out=a if owned else None)
                owned = True
            elif layer.activation != "identity":
                raise DomainError(f"unknown activation {layer.activation!r}")
            a = flush_fold(a)
            if layer.quantize:
                a = _quantize(a, model.activation_bits, *layer.act_range,
                              codes=_codes_read(model.layers, li),
                              inplace=owned)
                owned = True
        elif layer.kind == LayerKind.POOL:
            a = flush_fold(a)
            if len(a.shape) != 4:
                raise DomainError("pool input must be [n, c, h, w]")
            if isinstance(a, Codes):    # only max pools pass codes on
                a = replace(a, codes=_max_pool_codes(a.codes,
                                                     layer.pool_window))
            else:
                a = _apply_pool(a, layer.pool_window, layer.pool_mode)
            owned = True
        else:  # pragma: no cover
            raise DomainError(f"unhandled layer kind {layer.kind}")
    return _keep_codes(flush_fold(a), lambda x: x.reshape(x.shape[0], -1))


def _head_size(layers: Sequence[Layer], shape: tuple[int, ...]) -> int:
    """Elements of the largest array a walk of ``layers``, the layers
    before the first FC layer, holds per sample of ``shape``: the sample,
    a conv layer's patches or its output. A shape the walk rejects counts
    as far as it goes."""
    largest = math.prod(shape)
    for layer in layers:
        if layer.kind is LayerKind.CONV2D and len(shape) == 3:
            oc, ic, kh, kw = layer.weights.shape
            oh = (shape[1] - kh) // layer.stride + 1
            ow = (shape[2] - kw) // layer.stride + 1
            largest = max(largest, oh * ow * ic * kh * kw, oc * oh * ow)
            shape = (oc, oh, ow)
        elif layer.kind is LayerKind.POOL and len(shape) == 3:
            win = layer.pool_window
            shape = (shape[0], shape[1] // win, shape[2] // win)
    return largest


def _balanced(start: int, stop: int, size: int) -> list[slice]:
    """As few slices of ``start:stop`` as hold at most the ``size``
    float64 elements per sample within ``CHUNK_BYTES``, their lengths
    differing by at most 1."""
    n = stop - start
    count = -(-n // max(1, CHUNK_BYTES // (8 * max(1, size))))
    if count <= 1:
        return [slice(start, stop)]
    edges = [start + n * i // count for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def chunks(model: QuantModel, a) -> list[list[slice]]:
    """The chunks ``walk`` takes the batch ``a`` in: balanced slices that
    the layers from the first FC layer on take one at a time, each cut in
    balanced parts that the layers before it (the convs) take one at a
    time. Each is as large as keeps the largest array its layers hold
    (``QuantModel._tail``, ``_head_size``; in float64) within
    ``CHUNK_BYTES``, so the size of the FC layers' chunks, which steers
    their kernel path, does not follow the convs' patches. A batch that
    fits is one part of one slice; a model without FC layers walks the
    batch as one slice."""
    split, tail = model._tail
    slices = _balanced(0, a.shape[0], tail)
    if split == 0:      # the first FC layer reads the sample
        return [[s] for s in slices]
    head = _head_size(model.layers[:split], a.shape[1:])
    return [_balanced(s.start, s.stop, head) for s in slices]


def _joined_heads(model: QuantModel, a, parts: Sequence[slice], dot,
                  folded: bool, split: int):
    """The layers before ``split`` walked over each part of the batch
    ``a`` as a batch of its own, their outputs joined."""
    heads = [forward(model, a[s], dot, folded, stop=split) for s in parts]
    return _keep_codes(heads[0], lambda _: np.concatenate(
        [getattr(h, "codes", h) for h in heads]))


def walk(model: QuantModel, a, dot, folded: bool = False) -> np.ndarray:
    """``forward`` over the batch ``a`` one chunk (``chunks``) at a time:
    the logits of the whole batch from the arrays of one chunk. The
    layers before the first FC layer walk each part of a chunk, and the
    rest the chunk's joined outputs (``_joined_heads``)."""
    plan, split = chunks(model, a), model._tail[0]
    if len(plan) == 1 and len(plan[0]) == 1:
        return forward(model, a, dot, folded)
    logits = [forward(model, a[parts[0]], dot, folded) if len(parts) == 1
              else forward(model, _joined_heads(model, a, parts, dot,
                                                folded, split),
                           dot, folded, start=split)
              for parts in plan]
    return np.concatenate(logits)


def as_batch(x) -> tuple[np.ndarray, bool]:
    """``x`` as a float64 batch, and whether it was one unbatched sample.
    An empty batch, which has neither logits nor accuracy, is a
    DomainError."""
    a = np.asarray(x, dtype=np.float64)
    single = a.ndim in (1, 3)
    if not single and a.shape[:1] == (0,):
        raise DomainError("an empty batch has no logits or accuracy")
    return (a[None] if single else a), single


def batch_labels(y, n: int, single: bool) -> np.ndarray:
    """``y`` as the labels of a batch of ``n`` samples, one per sample:
    shape [n], or a scalar for one unbatched sample (``single``). Any other
    shape, which numpy would broadcast against the predictions, is a
    DomainError."""
    labels = np.asarray(y)
    if labels.shape != (n,) and not (single and labels.shape == ()):
        raise DomainError(f"labels of shape {labels.shape} for a batch of "
                          f"{n} samples; they must have shape ({n},)")
    return labels


def reference_inference(model: QuantModel, x, folded: bool = False):
    """Exact floating-point forward pass, one chunk of samples at a time
    (``walk``).

    Parameters
    ----------
    model : QuantModel
    x : ndarray
        [n, features] for FC models or [n, c, h, w] for conv models
        (a single sample may omit the leading axis).
    folded : bool
        When True, batch-norm layers are folded: mean/bias are dropped and
        C_fold multiplies the activations after the following nonlinearity.

    Returns
    -------
    (logits, classes) : logits [n, out] and argmax class indices [n].
    """
    a, single = as_batch(x)
    logits = walk(model, a, exact_dot, folded)
    classes = np.argmax(logits, axis=1)
    if single:
        return logits[0], int(classes[0])
    return logits, classes


# ---------------------------------------------------------------------------
# STE training (desk scale, FC only)
# ---------------------------------------------------------------------------

def _loss_and_grad(out, y, kind):
    n = out.shape[0]
    if kind == "xent":
        shifted = out - out.max(axis=1, keepdims=True)
        expz = np.exp(shifted)
        probs = expz / expz.sum(axis=1, keepdims=True)
        loss = float(-np.mean(np.log(probs[np.arange(n), y] + 1e-300)))
        g = probs.copy()
        g[np.arange(n), y] -= 1.0
        return loss, g / n
    if kind == "mse":
        target = np.asarray(y, dtype=np.float64).reshape(out.shape)
        diff = out - target
        return float(0.5 * np.mean(np.sum(diff ** 2, axis=1))), diff / n
    raise DomainError(f"unknown loss {kind!r}")


def _ste_step(model: QuantModel, x: np.ndarray, y: np.ndarray, loss: str,
              tape: dict) -> tuple[float, dict[int, np.ndarray]]:
    """Loss and STE gradients {layer index: d loss / d shadow weights}.

    The forward pass is ``forward`` with exact dot products; ``tape`` records
    each FC layer's input and output. The caller keeps one tape across
    epochs: releasing these arrays after every step and faulting them in
    again made toy-MLP training about twice as slow. Backward, a ReLU masks
    where the FC output feeding it was <= 0; identity, the quantizer and
    sign() pass the gradient straight through. Any other layer order is
    rejected rather than differentiated differently from ``forward``.
    """
    def dot(li, layer, v):
        v = to_values(v)
        tape[li] = (v, exact_dot(li, layer, v))
        return tape[li][1]

    loss_val, g = _loss_and_grad(forward(model, x, dot), y, loss)
    grads = {}
    for li in reversed(range(len(model.layers))):
        layer = model.layers[li]
        if layer.kind == LayerKind.FULLY_CONNECTED:
            grads[li] = g.T @ tape[li][0]
            if li:      # layer 0 has no weights upstream
                g = g @ layer.effective_weights()
        elif (layer.kind != LayerKind.ACTIVATION or li == 0
              or model.layers[li - 1].kind != LayerKind.FULLY_CONNECTED):
            raise DomainError("STE training supports FC layers, each "
                              "optionally followed by one activation")
        elif layer.activation == "relu":
            g = g * (tape[li - 1][1] > 0.0)
    return loss_val, grads


def ste_train(model: QuantModel, x, y, epochs: int, lr: float,
              seed: int = 0, loss: str = "xent"):
    """Train the FC shadow weights with SGD and the straight-through estimator.

    Forward and backward passes use sign(W) for binarized layers; the
    gradient of sign (and of the activation quantizer) is bypassed as the
    identity, and the full-precision shadow weights receive the update.
    Full-batch with no randomness, so the result depends only on the
    arguments; ``seed`` is accepted and not read.

    Returns (trained QuantModel, per-epoch loss list).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise DomainError("dataset shapes do not match")
    model = replace(model, layers=tuple(
        replace(l, weights=l.weights.copy()) if l.weights is not None else l
        for l in model.layers))
    losses = []
    tape: dict = {}
    for _ in range(max(epochs, 0)):
        loss_val, grads = _ste_step(model, x, y, loss, tape)
        losses.append(loss_val)
        for li, grad in grads.items():
            model.layers[li].weights[...] -= lr * grad
    return model, losses


def ste_gradient(model: QuantModel, x, y, loss: str = "xent"):
    """STE gradients w.r.t. each FC layer's shadow weights (no update)."""
    _, grads = _ste_step(model, np.asarray(x, dtype=np.float64),
                         np.asarray(y), loss, {})
    return [grads[li] for li in sorted(grads)]


def accuracy(model: QuantModel, x, y, folded: bool = False) -> float:
    """The share of the samples of ``x`` whose reference class is their
    label in ``y`` (see ``batch_labels``), walked as
    ``reference_inference`` walks them."""
    a, single = as_batch(x)
    labels = batch_labels(y, a.shape[0], single)
    classes = np.argmax(walk(model, a, exact_dot, folded), axis=1)
    return float(np.count_nonzero(classes == labels) / classes.size)


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlobDataset:
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray


def make_blobs(n_train: int, n_test: int, n_features: int, n_classes: int,
               cluster_std: float, seed: int) -> BlobDataset:
    """Gaussian blob classification set, features min-max scaled to [0, 1].

    Fully deterministic for a given seed; class labels are balanced
    round-robin.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    centers = rng.normal(0.0, 1.0, size=(n_classes, n_features))
    centers /= np.maximum(np.linalg.norm(centers, axis=1, keepdims=True), 1e-9)
    n = n_train + n_test
    y = np.arange(n) % n_classes
    x = centers[y] + cluster_std * rng.normal(size=(n, n_features))
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    x = (x - lo) / np.maximum(hi - lo, 1e-12)
    perm = rng.permutation(n)
    x, y = x[perm], y[perm]
    return BlobDataset(x[:n_train], y[:n_train], x[n_train:], y[n_train:])


def make_mlp(layer_sizes: Sequence[int], seed: int,
             activation_bits: int = 4,
             last_layer_full_precision: bool = True,
             init_scale: float = 0.5) -> QuantModel:
    """Binarized MLP with ReLU+quantize between FC layers."""
    rng = np.random.Generator(np.random.PCG64(seed))
    layers: list[Layer] = []
    n_fc = len(layer_sizes) - 1
    for i in range(n_fc):
        w = rng.normal(0.0, init_scale,
                       size=(layer_sizes[i + 1], layer_sizes[i]))
        last = i == n_fc - 1
        layers.append(fc_layer(w, binarized=not (last and last_layer_full_precision)))
        if not last:
            layers.append(activation_layer())
    return QuantModel(tuple(layers), activation_bits=activation_bits,
                      last_layer_full_precision=last_layer_full_precision)
