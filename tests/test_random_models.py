"""Seeded random models through every path of the noisy walk.

A numpy-only generator draws 100 models: 0-2 conv layers (kernel 1-3,
stride 1-2, an optional batch norm, a max or average pool or none), 0-1
hidden FC layers and a last FC layer, each binarized or not, ReLU with or
without a quantizer of 1-6 bits over (0, 1) or (-1, 1), and 1-39 samples.
At fraction 0.5, each model's logits walked in 4 KiB chunks and as one
chunk, and the kernel's against the broadcast formula, agree within 1e-9.
Each model runs with the kernels' workspace warm from the model before it,
whose shapes differ.
"""

import numpy as np
import pytest

from mrbnn import bnn, config
from mrbnn.bnn import (QuantModel, activation_layer, batch_norm_layer,
                       conv_layer, fc_layer, pool_layer)
from mrbnn.simulator import noisy_inference
from test_simulator import broadcast_logits

SEEDS = range(100)


def random_model(seed):
    """(model, batch) drawn from ``seed`` as the module docstring says."""
    rng = np.random.Generator(np.random.PCG64(seed))
    bits = int(rng.integers(1, 7))
    act_range = ((0.0, 1.0), (-1.0, 1.0))[rng.integers(2)]

    def act():
        return activation_layer(quantize=bool(rng.integers(2)),
                                act_range=act_range)

    def bn(c):
        return batch_norm_layer(rng.uniform(0.5, 1.5, c),
                                rng.normal(0.0, 0.1, c),
                                rng.normal(0.0, 0.1, c),
                                rng.uniform(0.5, 1.5, c))

    layers = []
    channels, size = int(rng.integers(1, 4)), int(rng.integers(5, 13))
    sample = (channels, size, size)
    for _ in range(rng.integers(0, 3)):
        k, stride = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        if size < k:
            break
        out = int(rng.integers(1, 7))
        layers.append(conv_layer(rng.normal(size=(out, channels, k, k)),
                                 stride=stride,
                                 binarized=bool(rng.integers(4))))
        channels, size = out, (size - k) // stride + 1
        if rng.integers(2):
            layers.append(bn(channels))
        layers.append(act())
        if size >= 2 and rng.integers(3):
            layers.append(pool_layer(2, ("max", "avg")[rng.integers(2)]))
            size //= 2
    if layers:
        width = channels * size * size
    else:
        width = int(rng.integers(1, 40))
        sample = (width,)
    for _ in range(rng.integers(0, 2)):
        hidden = int(rng.integers(1, 40))
        layers += [fc_layer(rng.normal(size=(hidden, width)),
                            binarized=bool(rng.integers(4))), act()]
        width = hidden
    layers.append(fc_layer(rng.normal(size=(int(rng.integers(1, 6)), width)),
                           binarized=bool(rng.integers(2))))
    x = rng.uniform(-0.2, 1.2, (int(rng.integers(1, 40)),) + sample)
    return QuantModel(tuple(layers), activation_bits=bits), x


@pytest.fixture(scope="module")
def eo_cfg(toolkit_config):
    return config.arch_config(toolkit_config, "eo")


def test_models_are_varied():
    models = [random_model(seed) for seed in SEEDS]
    convs = [sum(l.kind is bnn.LayerKind.CONV2D for l in m.layers)
             for m, _ in models]
    assert set(convs) == {0, 1, 2}
    assert {m.activation_bits for m, _ in models} == set(range(1, 7))
    assert len({x.shape for _, x in models}) > 90


@pytest.mark.parametrize("seed", SEEDS)
def test_chunks_and_the_oracle_agree(env, eo_cfg, monkeypatch, seed):
    noisy_inference(*random_model(seed + 1), None, eo_cfg, env, 0.5,
                    seed=seed)      # leaves another model's scratch
    model, x = random_model(seed)
    monkeypatch.setattr(bnn, "CHUNK_BYTES", 1 << 40)
    whole = noisy_inference(model, x, None, eo_cfg, env, 0.5, seed=3).logits
    monkeypatch.setattr(bnn, "CHUNK_BYTES", 4 << 10)
    chunked = noisy_inference(model, x, None, eo_cfg, env, 0.5,
                              seed=3).logits
    np.testing.assert_allclose(chunked, whole, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(
        whole, broadcast_logits(model, x, eo_cfg, env, 0.5, 3),
        rtol=1e-9, atol=1e-9)
