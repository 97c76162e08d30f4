"""Seeded random models through every path of the noisy walk.

A numpy-only generator draws 100 models: 0-2 conv layers (kernel 1-3,
stride 1-2, an optional batch norm, a max or average pool or none), 0-1
hidden FC layers and a last FC layer, each binarized or not, ReLU with or
without a quantizer of 1-6 bits over (0, 1) or (-1, 1), and 1-39 samples.
At fraction 0.5, each model's logits walked in 4 KiB chunks and as one
chunk, and the kernel's against the broadcast formula, agree within 1e-9.
Each model runs with the kernels' workspace warm from the model before it,
whose shapes differ. On every model, the photonic mapping matches the
looped oracle under EO and PO, the dots of a walk read and return the
widths ``QuantModel.shapes`` gives, and ``ModelStructure.from_model`` keeps
those records and counts every weight. Full tuning reproduces the folded
reference on the models whose binarized layers read inputs in [0, 1].
"""

import numpy as np
import pytest

from mrbnn import bnn, config
from mrbnn.bnn import (QuantModel, activation_layer, batch_norm_layer,
                       conv_layer, fc_layer, pool_layer)
from mrbnn.mapping import ModelStructure
from mrbnn.simulator import build_photonic_mapping, noisy_inference
from test_simulator import broadcast_logits, looped_mapping

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


def spied_walk(model, x):
    """The folded exact logits of ``x`` (``bnn.walk`` with
    ``bnn.exact_dot``), and for each weighted layer a list of (input width,
    output width, smallest input, largest input), one per call of its dot."""
    seen = {}

    def dot(li, layer, v):
        out = bnn.exact_dot(li, layer, v)
        values = bnn.to_values(v)
        seen.setdefault(li, []).append((v.shape[-1], out.shape[-1],
                                        values.min(), values.max()))
        return out

    return bnn.walk(model, x, dot, folded=True), seen


@pytest.mark.parametrize("arch", ["eo", "po"])
def test_photonic_mapping_matches_looped_oracle(toolkit_config, arch):
    # PO's n_a of 50 wraps each slice onto an arm's 5 activation rings
    cfg = config.arch_config(toolkit_config, arch)
    for seed in SEEDS:
        model, _ = random_model(seed)
        mapping = build_photonic_mapping(model, cfg)
        want_index, want_ids = looped_mapping(model, cfg)
        assert np.array_equal(mapping.mr_ids, want_ids), seed
        assert mapping.mr_index.keys() == want_index.keys(), seed
        for li, idx in want_index.items():
            assert np.array_equal(mapping.mr_index[li], idx), (seed, li)


def test_shapes_are_the_widths_the_walk_reads():
    for seed in SEEDS:
        model, x = random_model(seed)
        _, seen = spied_walk(model, x)
        assert seen.keys() == {s.li for s in model.shapes}, seed
        for s in model.shapes:
            assert {call[:2] for call in seen[s.li]} == {(s.n_in, s.n_out)}, \
                (seed, s)


def test_structure_is_the_models_layer_records():
    for seed in SEEDS:
        model, _ = random_model(seed)
        structure = ModelStructure.from_model(model)
        assert structure.shapes == model.shapes, seed
        assert structure.parameter_count == sum(
            l.weights.size for l in model.layers if l.weighted), seed


def test_full_tuning_reproduces_the_folded_reference(env, eo_cfg):
    # full tuning makes every ratio 1, and the optical clamp to [0, 1]
    # leaves inputs in that range as they are
    checked = 0
    for seed in SEEDS:
        model, x = random_model(seed)
        ref, seen = spied_walk(model, x)
        if not all(0.0 <= lo and hi <= 1.0
                   for s in model.shapes if model.layers[s.li].binarized
                   for _, _, lo, hi in seen[s.li]):
            continue
        noisy = noisy_inference(model, x, None, eo_cfg, env, 1.0, seed=seed)
        np.testing.assert_allclose(noisy.logits, ref, rtol=1e-9, atol=1e-9,
                                   err_msg=f"seed {seed}")
        checked += 1
    assert checked == 13
