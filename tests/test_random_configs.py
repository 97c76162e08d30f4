"""Seeded random accelerator configurations through the cost model.

A numpy-only generator draws 30 configurations that ``validate()``
accepts: n_a 1-60, n_vdp 1-40, n_wg 1-12, n_b 1-3, ``mr_pitch_um`` in
[1, 10) and ``channel_spacing_nm`` in [0.4, 2.0), a draw that
``validate()`` rejects being drawn again from the same stream. They are
evaluated at the default crosstalk and at ``crosstalk_eta`` 0.3, where
the configurations with wide banks cannot be tuned. On them, ``evaluate``
on the list gives each configuration the bits of a call of its own; every
configuration is tuned or listed in ``errors`` with a
``PhysicalConstraintError``; power does not decrease over 41 tuning
fractions at map seeds 0 and 1; and EPB is power over FPS times bits.
``tests/test_simulator.py``'s ``TestRingInventory`` checks the ring
inventory and area identities on the same configurations.
"""

from dataclasses import replace

import numpy as np
import pytest

from mrbnn import config
from mrbnn.errors import PhysicalConstraintError
from mrbnn.mapping import AcceleratorConfig
from mrbnn.simulator import evaluate

SEEDS = range(30)
FRACTIONS = np.linspace(0.0, 1.0, 41)


def random_config(seed):
    """The configuration drawn from ``seed`` as the module docstring says."""
    rng = np.random.Generator(np.random.PCG64(seed))
    while True:
        cfg = AcceleratorConfig(
            n_a=int(rng.integers(1, 61)), n_vdp=int(rng.integers(1, 41)),
            n_wg=int(rng.integers(1, 13)), n_b=int(rng.integers(1, 4)),
            mr_pitch_um=float(rng.uniform(1.0, 10.0)),
            channel_spacing_nm=float(rng.uniform(0.4, 2.0)))
        try:
            return cfg.validate()
        except PhysicalConstraintError:
            continue


@pytest.fixture(scope="module")
def cfgs():
    return [random_config(s) for s in SEEDS]


@pytest.fixture(scope="module")
def structures(toolkit_config):
    return config.workload_structures(toolkit_config)


@pytest.fixture(scope="module", params=["default", "dense"])
def environment(request, toolkit_config):
    """The default environment, or one at crosstalk_eta 0.3."""
    tc = toolkit_config if request.param == "default" else replace(
        toolkit_config, tuning=replace(toolkit_config.tuning,
                                       crosstalk_eta=0.3))
    return config.build_environment(tc)


@pytest.fixture(scope="module")
def sweeps(cfgs, structures, environment):
    """{map seed: the evaluation of the list at each of FRACTIONS}."""
    return {seed: [evaluate(cfgs, structures, environment, float(f), seed)
                   for f in FRACTIONS]
            for seed in (0, 1)}


def test_tuned_or_listed(cfgs, environment, sweeps):
    for evaluations in sweeps.values():
        for ev in evaluations:
            assert sorted([*ev.tuned, *(i for i, _ in ev.errors)]) \
                == list(range(len(cfgs)))
            assert all(isinstance(e, PhysicalConstraintError)
                       for _, e in ev.errors)
            # a layout too dense to tune is so at every fraction
            assert ev.tuned == evaluations[0].tuned
    dense = environment.tuning_params.crosstalk_eta == 0.3
    assert bool(sweeps[0][0].errors) == dense and sweeps[0][0].tuned


def test_list_equals_each_alone(cfgs, structures, environment, sweeps):
    ev = sweeps[0][32]                           # tuning fraction 0.8
    errors = dict(ev.errors)
    for i, cfg in enumerate(cfgs):
        one = evaluate([cfg], structures, environment, 0.8, 0)
        if i in errors:
            assert not one.tuned and str(one.errors[0][1]) == str(errors[i])
            continue
        row = ev.tuned.index(i)
        assert one.tuned == (0,)
        assert list(one.power_breakdown_mw[0].items()) \
            == list(ev.power_breakdown_mw[row].items())
        assert one.power_mw[0] == ev.power_mw[row]
        assert one.area_mm2[0] == ev.area_mm2[row]
        for a, b in ((one.timing.total_ns, ev.timing.total_ns),
                     (one.timing.steps, ev.timing.steps),
                     (one.timing.buffered_steps, ev.timing.buffered_steps),
                     (one.fps, ev.fps),
                     (one.epb_pj_per_bit, ev.epb_pj_per_bit)):
            assert a[0].tobytes() == b[row].tobytes()


def test_power_does_not_decrease_with_tuning(sweeps):
    for evaluations in sweeps.values():
        power = np.array([ev.power_mw for ev in evaluations])
        assert power.shape[1] > 0
        assert (np.diff(power, axis=0) >= 0).all()


def test_epb_is_power_over_fps_and_bits(structures, sweeps):
    bits = np.array([s.total_bits for s in structures], dtype=np.float64)
    for evaluations in sweeps.values():
        for ev in evaluations:
            power = np.array(ev.power_mw)[:, None]
            # mW / (1/s * bits) = 1e9 pJ/bit
            np.testing.assert_allclose(ev.epb_pj_per_bit,
                                       power * 1e9 / (ev.fps * bits),
                                       rtol=1e-12, atol=0)
