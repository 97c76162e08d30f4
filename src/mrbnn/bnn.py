"""Partially binarized neural networks: representation, quantization,
desk-scale straight-through-estimator training, batch-norm folding, and the
layer walker (``forward``) behind the exact floating-point reference forward
pass, the trainer's forward pass and the photonic one of
``simulator.noisy_inference``.

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
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence

import numpy as np

from ._kernels import MAX_LEVELS
from .errors import DomainError


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
            if self.bn_var is None or np.any(self.bn_var < 0):
                raise DomainError("batch-norm variance must be >= 0")
            if self.bn_epsilon <= 0:
                raise DomainError("batch-norm epsilon must be > 0")
        if self.weighted:
            rank = 4 if self.kind == LayerKind.CONV2D else 2
            if np.ndim(self.weights) != rank:
                raise DomainError(
                    f"{self.kind.value} weights must have {rank} axes")

    @property
    def weighted(self) -> bool:
        """FC and conv layers carry weights and run on the VDP array."""
        return self.kind in (LayerKind.FULLY_CONNECTED, LayerKind.CONV2D)

    def effective_weights(self) -> np.ndarray:
        """Weights seen by inference: sign(shadow) when binarized."""
        return binarize(self.weights) if self.binarized else self.weights

    @property
    def parameter_count(self) -> int:
        return 0 if self.weights is None else int(self.weights.size)


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
            elif layer.kind == LayerKind.BATCH_NORM and channels is not None:
                shapes = {np.shape(v) for v in (layer.bn_gamma, layer.bn_beta,
                                                layer.bn_mean, layer.bn_var)}
                if shapes != {(channels,)}:
                    raise DomainError(
                        f"channel mismatch: {channels} weighted-layer outputs "
                        f"vs BN vectors of shape {sorted(shapes)}")

    @property
    def parameter_count(self) -> int:
        return sum(l.parameter_count for l in self.layers)

    def weighted_layers(self) -> list[Layer]:
        return [l for l in self.layers if l.weighted]

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

def binarize(w):
    """sign(w) with the sign(0) = +1 tie-break."""
    arr = np.asarray(w, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DomainError("binarize requires finite weights")
    out = np.where(arr >= 0.0, 1.0, -1.0)
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
    return np.take(a.levels, a.codes, mode="clip",
                   out=np.empty_like(a.codes, dtype=np.float64))


def _quantize(v, bits, lo, hi, codes=True):
    """``quantize_activation`` of ``v``, as ``Codes`` if ``codes`` is set,
    the 2**bits levels are at most ``MAX_LEVELS`` and no input is NaN, and
    otherwise as floats. Code c and its float are the same level, lo + c *
    (hi - lo) / steps."""
    if bits < 1:
        raise DomainError("bits must be >= 1")
    if not lo < hi:
        raise DomainError("range must satisfy lo < hi")
    steps = float(2 ** bits - 1)
    # an array even for a scalar v, so that the steps below run in place
    k = np.asarray(np.clip(np.asarray(v, dtype=np.float64), lo, hi))
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
    same order used to flatten conv kernels.
    """
    n, c, h, w = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise DomainError("kernel larger than input")
    win = np.lib.stride_tricks.sliding_window_view(
        x, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n, oh * ow, c * kh * kw)
    return cols, oh, ow


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
    moves, copies or takes maxima of elements)."""
    return replace(a, codes=fn(a.codes)) if isinstance(a, Codes) else fn(a)


def _per_channel(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Broadcast a per-channel vector against [n, c] or [n, c, h, w]."""
    return v[:, None, None] if a.ndim == 4 else v


def exact_dot(li: int, layer: Layer, v) -> np.ndarray:
    """Exact dot products of ``v`` [..., in], values or ``Codes``, with the
    layer's weight rows."""
    w = layer.effective_weights()
    return to_values(v) @ w.reshape(w.shape[0], -1).T


def _conv(li: int, layer: Layer, a, dot) -> np.ndarray:
    oc, ic, kh, kw = layer.weights.shape
    if len(a.shape) != 4 or a.shape[1] != ic:
        raise DomainError("conv input must be [n, in_c, h, w]")
    cols, oh, ow = im2col(getattr(a, "codes", a), kh, kw, layer.stride)
    cols = replace(a, codes=cols) if isinstance(a, Codes) else cols
    return dot(li, layer, cols).transpose(0, 2, 1).reshape(a.shape[0], oc,
                                                           oh, ow)


def forward(model: QuantModel, a: np.ndarray, dot,
            folded: bool = False) -> np.ndarray:
    """Walk the layers of ``model`` over the batch ``a``; return the logits.

    ``dot(li, layer, v)`` computes the dot products of weighted layer ``li``:
    ``v`` is [n, in] for FC layers and the im2col patches [n, positions,
    depth] for conv layers, and the result is [..., out]. Everything else
    (batch norm, nonlinearities, quantization, pooling) runs exactly here.
    A quantizer hands on ``Codes`` only where a binarized layer's ``dot``
    reads them (``_codes_read``), and only max pooling, reshapes and im2col
    lie between; they take the codes as they are. Every other reader gets
    the quantizer's floats, with the same bits as ``to_values`` of the
    codes. When ``folded`` is True, batch-norm layers are folded: mean/bias are
    dropped and C_fold multiplies the activations after the following
    nonlinearity; the gains of BN layers with no nonlinearity, pooling or
    weighted layer between them multiply.
    """
    pending_fold = None

    def flush_fold(val):
        nonlocal pending_fold
        if pending_fold is not None:
            val = val * _per_channel(pending_fold, val)
            pending_fold = None
        return val

    for li, layer in enumerate(model.layers):
        if layer.kind == LayerKind.FULLY_CONNECTED:
            a = flush_fold(a)
            if len(a.shape) > 2:
                a = _keep_codes(a, lambda x: x.reshape(x.shape[0], -1))
            if a.shape[1] != layer.weights.shape[1]:
                raise DomainError(f"FC expects {layer.weights.shape[1]} "
                                  f"features, got {a.shape[1]}")
            a = dot(li, layer, a)
        elif layer.kind == LayerKind.CONV2D:
            a = _conv(li, layer, flush_fold(a), dot)
        elif layer.kind == LayerKind.BATCH_NORM:
            if folded:
                pending_fold = _c_fold(layer) * (
                    1.0 if pending_fold is None else pending_fold)
            else:
                a = ((a - _per_channel(layer.bn_mean, a))
                     * _per_channel(_c_fold(layer), a)
                     + _per_channel(layer.bn_beta, a))
        elif layer.kind == LayerKind.ACTIVATION:
            if layer.activation == "relu":
                a = np.maximum(a, 0.0)
            elif layer.activation != "identity":
                raise DomainError(f"unknown activation {layer.activation!r}")
            a = flush_fold(a)
            if layer.quantize:
                a = _quantize(a, model.activation_bits, *layer.act_range,
                              codes=_codes_read(model.layers, li))
        elif layer.kind == LayerKind.POOL:
            a = flush_fold(a)
            if len(a.shape) != 4:
                raise DomainError("pool input must be [n, c, h, w]")
            a = _keep_codes(a, lambda x: _apply_pool(x, layer.pool_window,
                                                     layer.pool_mode))
        else:  # pragma: no cover
            raise DomainError(f"unhandled layer kind {layer.kind}")
    a = flush_fold(a)
    return a.reshape(a.shape[0], -1)


def as_batch(x) -> tuple[np.ndarray, bool]:
    """``x`` as a float64 batch, and whether it was one unbatched sample."""
    a = np.asarray(x, dtype=np.float64)
    single = a.ndim in (1, 3)
    return (a[None] if single else a), single


def batch_labels(y, n: int, single: bool) -> np.ndarray:
    """``y`` as the labels of a batch of ``n`` samples, one per sample:
    shape [n], or a scalar for one unbatched sample (``single``). Any other
    shape, which numpy would broadcast against the predictions, and an
    empty batch, which has no accuracy, are a DomainError."""
    labels = np.asarray(y)
    if n < 1:
        raise DomainError("an empty batch has no accuracy")
    if labels.shape != (n,) and not (single and labels.shape == ()):
        raise DomainError(f"labels of shape {labels.shape} for a batch of "
                          f"{n} samples; they must have shape ({n},)")
    return labels


def reference_inference(model: QuantModel, x, folded: bool = False):
    """Exact floating-point forward pass.

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
    logits = forward(model, a, exact_dot, folded)
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
    label in ``y`` (see ``batch_labels``)."""
    a, single = as_batch(x)
    labels = batch_labels(y, a.shape[0], single)
    classes = np.argmax(forward(model, a, exact_dot, folded), axis=1)
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
