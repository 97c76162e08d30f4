"""Partially binarized neural networks: representation, quantization,
desk-scale straight-through-estimator training, batch-norm folding, and the
layer walker (``forward``) behind both the exact floating-point reference
forward pass and the photonic one of ``simulator.noisy_inference``.

Weights of binarized layers are stored at full precision ("shadow" weights)
and enter every computation through sign(); sign(0) = +1 by convention.
Activations are uniformly quantized (mid-tread, round-half-up) to the model's
activation bit width after each nonlinearity. Batch-norm folding replaces the
BN layer by the per-channel constant C_fold = gamma / sqrt(var + eps) applied
AFTER the following nonlinearity; with a ReLU nonlinearity and positive gains
this is exactly equivalent to the explicit zero-mean, zero-bias BN layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence

import numpy as np

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
        if self.kind in (LayerKind.CONV2D, LayerKind.FULLY_CONNECTED):
            if self.weights is None:
                raise DomainError(f"{self.kind.value} layer needs weights")

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
    k = np.asarray(kernel, dtype=np.float64)
    if k.ndim != 4:
        raise DomainError("conv kernel must be [out_c, in_c, kh, kw]")
    return Layer(LayerKind.CONV2D, weights=k, binarized=binarized,
                 stride=stride)


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
        for layer in self.layers:
            if layer.kind == LayerKind.FULLY_CONNECTED:
                out_d, in_d = layer.weights.shape
                if prev_out is not None and in_d != prev_out:
                    raise DomainError(
                        f"FC input dim {in_d} does not chain from {prev_out}")
                prev_out = out_d
            elif layer.kind == LayerKind.CONV2D:
                prev_out = None  # spatial dims unknown until inference

    @property
    def parameter_count(self) -> int:
        return sum(l.parameter_count for l in self.layers)

    def weighted_layers(self) -> list[Layer]:
        return [l for l in self.layers
                if l.kind in (LayerKind.FULLY_CONNECTED, LayerKind.CONV2D)]


@dataclass(frozen=True)
class FoldedLayer:
    """Per-output-channel folding constant replacing an explicit BN layer."""

    c_fold: np.ndarray
    base: Layer


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
    if bits < 1:
        raise DomainError("bits must be >= 1")
    if not lo < hi:
        raise DomainError("range must satisfy lo < hi")
    steps = float(2 ** bits - 1)
    arr = np.clip(np.asarray(v, dtype=np.float64), lo, hi)
    q = lo + np.floor((arr - lo) / (hi - lo) * steps + 0.5) * (hi - lo) / steps
    return float(q) if np.ndim(v) == 0 else q


def _c_fold(bn: Layer) -> np.ndarray:
    return bn.bn_gamma / np.sqrt(bn.bn_var + bn.bn_epsilon)


def bn_fold(layer_weights: np.ndarray, bn: Layer) -> FoldedLayer:
    """C_fold = gamma / sqrt(var + eps), one constant per output channel."""
    if bn.kind != LayerKind.BATCH_NORM:
        raise DomainError("bn_fold needs a batch-norm layer")
    if np.any(bn.bn_var + bn.bn_epsilon <= 0):
        raise DomainError("var + eps must be positive")
    c_fold = _c_fold(bn)
    w = np.asarray(layer_weights)
    if w.ndim >= 1 and c_fold.ndim == 1 and w.shape[0] != c_fold.size:
        raise DomainError(
            f"channel mismatch: weights {w.shape[0]} vs BN {c_fold.size}")
    return FoldedLayer(c_fold, bn)


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
    cols = np.empty((n, oh * ow, c * kh * kw), dtype=x.dtype)
    pos = 0
    for iy in range(oh):
        for ix in range(ow):
            patch = x[:, :, iy * stride:iy * stride + kh,
                      ix * stride:ix * stride + kw]
            cols[:, pos, :] = patch.reshape(n, -1)
            pos += 1
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


def _per_channel(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Broadcast a per-channel vector against [n, c] or [n, c, h, w]."""
    return v[:, None, None] if a.ndim == 4 else v


def exact_dot(li: int, layer: Layer, v: np.ndarray) -> np.ndarray:
    """Exact dot products of ``v`` [..., in] with the layer's weight rows."""
    w = layer.effective_weights()
    return v @ w.reshape(w.shape[0], -1).T


def _conv(li: int, layer: Layer, a: np.ndarray, dot) -> np.ndarray:
    oc, ic, kh, kw = layer.weights.shape
    if a.ndim != 4 or a.shape[1] != ic:
        raise DomainError("conv input must be [n, in_c, h, w]")
    cols, oh, ow = im2col(a, kh, kw, layer.stride)
    return dot(li, layer, cols).transpose(0, 2, 1).reshape(a.shape[0], oc,
                                                           oh, ow)


def forward(model: QuantModel, a: np.ndarray, dot,
            folded: bool = False) -> np.ndarray:
    """Walk the layers of ``model`` over the batch ``a``; return the logits.

    ``dot(li, layer, v)`` computes the dot products of weighted layer ``li``:
    ``v`` is [n, in] for FC layers and the im2col patches [n, positions,
    depth] for conv layers, and the result is [..., out]. Everything else
    (batch norm, nonlinearities, quantization, pooling) runs exactly here.
    When ``folded`` is True, batch-norm layers are folded: mean/bias are
    dropped and C_fold multiplies the activations after the following
    nonlinearity.
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
            if a.ndim > 2:
                a = a.reshape(a.shape[0], -1)
            if a.shape[1] != layer.weights.shape[1]:
                raise DomainError(f"FC expects {layer.weights.shape[1]} "
                                  f"features, got {a.shape[1]}")
            a = dot(li, layer, a)
        elif layer.kind == LayerKind.CONV2D:
            a = _conv(li, layer, flush_fold(a), dot)
        elif layer.kind == LayerKind.BATCH_NORM:
            if folded:
                pending_fold = _c_fold(layer)
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
                a = quantize_activation(a, model.activation_bits,
                                        *layer.act_range)
        elif layer.kind == LayerKind.POOL:
            a = flush_fold(a)
            if a.ndim != 4:
                raise DomainError("pool input must be [n, c, h, w]")
            a = _apply_pool(a, layer.pool_window, layer.pool_mode)
        else:  # pragma: no cover
            raise DomainError(f"unhandled layer kind {layer.kind}")
    a = flush_fold(a)
    return a.reshape(a.shape[0], -1)


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
    a = np.asarray(x, dtype=np.float64)
    squeeze = a.ndim in (1, 3)
    if squeeze:
        a = a[None, ...]
    logits = forward(model, a, exact_dot, folded)
    classes = np.argmax(logits, axis=1)
    if squeeze:
        return logits[0], int(classes[0])
    return logits, classes


# ---------------------------------------------------------------------------
# STE training (desk scale, FC only)
# ---------------------------------------------------------------------------

def _forward_fc(model: QuantModel, x: np.ndarray):
    """Forward pass for the trainer, keeping intermediates."""
    fcs = [l for l in model.layers if l.kind == LayerKind.FULLY_CONNECTED]
    acts = [l for l in model.layers if l.kind == LayerKind.ACTIVATION]
    a = x
    cache = []
    for i, layer in enumerate(fcs):
        w_eff = layer.effective_weights()
        z = a @ w_eff.T
        last = i == len(fcs) - 1
        if last:
            cache.append((a, z, None, w_eff))
            a = z
        else:
            act = acts[i] if i < len(acts) else activation_layer()
            h = np.maximum(z, 0.0)
            if act.quantize:
                h = quantize_activation(h, model.activation_bits,
                                        *act.act_range)
            cache.append((a, z, act, w_eff))
            a = h
    return a, cache


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


def ste_train(model: QuantModel, x, y, epochs: int, lr: float,
              seed: int = 0, loss: str = "xent"):
    """Train the FC shadow weights with SGD and the straight-through estimator.

    Forward and backward passes use sign(W) for binarized layers; the
    gradient of sign (and of the activation quantizer) is bypassed as the
    identity, and the full-precision shadow weights receive the update.
    Full-batch, deterministic for a given seed.

    Returns (trained QuantModel, per-epoch loss list).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise DomainError("dataset shapes do not match")
    for layer in model.layers:
        if layer.kind not in (LayerKind.FULLY_CONNECTED, LayerKind.ACTIVATION):
            raise DomainError("ste_train supports FC and activation layers only")
    layers = [replace(l, weights=l.weights.copy())
              if l.kind == LayerKind.FULLY_CONNECTED else l
              for l in model.layers]
    model = replace(model, layers=tuple(layers))
    fcs = [l for l in model.layers if l.kind == LayerKind.FULLY_CONNECTED]

    losses = []
    for _ in range(max(epochs, 0)):
        out, cache = _forward_fc(model, x)
        loss_val, g = _loss_and_grad(out, y, loss)
        losses.append(loss_val)
        if lr == 0.0:
            continue
        for i in reversed(range(len(fcs))):
            a_in, z, act, w_eff = cache[i]
            if act is not None:        # STE: quantizer grad = identity
                g = g * (z > 0.0)      # relu mask
            grad_w = g.T @ a_in
            g = g @ w_eff
            shadow = fcs[i].weights
            shadow -= lr * grad_w
    return model, losses


def ste_gradient(model: QuantModel, x, y, loss: str = "xent"):
    """STE gradients w.r.t. each FC layer's shadow weights (no update)."""
    x = np.asarray(x, dtype=np.float64)
    out, cache = _forward_fc(model, x)
    _, g = _loss_and_grad(out, np.asarray(y), loss)
    fcs = [l for l in model.layers if l.kind == LayerKind.FULLY_CONNECTED]
    grads = [None] * len(fcs)
    for i in reversed(range(len(fcs))):
        a_in, z, act, w_eff = cache[i]
        if act is not None:
            g = g * (z > 0.0)
        grads[i] = g.T @ a_in
        g = g @ w_eff
    return grads


def accuracy(model: QuantModel, x, y, folded: bool = False) -> float:
    _, classes = reference_inference(model, x, folded=folded)
    return float(np.mean(classes == np.asarray(y)))


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
