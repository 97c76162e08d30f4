"""Pinned output digests of the CLI.

``textio`` writes every CSV number in fixed 9-significant-digit notation so
that identical inputs give identical bytes on every platform. These tests pin
the sha256 of those CSVs for fixed inputs, so a refactor that claims to keep
outputs byte-identical is checked here rather than by hand. A change that
moves any of these bytes on purpose updates the digest and says why.
"""

import hashlib

import numpy as np
import pytest
import yaml

from mrbnn import bnn, modelio
from mrbnn.cli import main

DEVICE_REPORT = {
    "MultiBit":
        "15082fe5bae606860602c5c7b67054f46c9c3700f7c8c96262ddc8ae7819c0c5",
    "SingleBit":
        "7ddc7e98261c2b1a9ebfa170c2ee1cc37e86f4e33e846a842128fe06dd587f33",
    "Broadband":
        "b121c5775325886e8e837625ac5d4d784ecebfc6d900a642dbf7dfebdb0d07a6",
}
TED_SWEEP = "68db02e0eafd5704c874ac5ab010cd1b65e82bb60ea5cdbd71068f4dffa77bf8"
DSE_SCATTER = \
    "660f933c74efa0b76c8dcfdd31f0f702448a969e9854531b110703ca970ff45c"
FPV_SWEEP = "8ab15b55d1c74fe87930e53f0c5ef14e4af1a7482b9b7f995d13fb9ec9ddf6dd"
BN_PLAN = "40bd9222604765f728c6467b515453370904e67a153436bac436861d7d3bb458"


@pytest.fixture(autouse=True)
def _default_config(monkeypatch, capsys):
    monkeypatch.delenv("MRBNN_CONFIG", raising=False)
    yield
    capsys.readouterr()


def digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("ring_class", sorted(DEVICE_REPORT))
def test_device_report(ring_class, tmp_path):
    out = tmp_path / "spectrum.csv"
    assert main(["device-report", "--class", ring_class,
                 "--out", str(out)]) == 0
    assert digest(out) == DEVICE_REPORT[ring_class]


def test_ted_sweep(tmp_path):
    out = tmp_path / "ted.csv"
    assert main(["ted-sweep", "--out", str(out)]) == 0
    assert digest(out) == TED_SWEEP


def test_dse_scatter(tmp_path):
    # the small sweep of acceptance criterion 12
    small = tmp_path / "small.yaml"
    small.write_text(yaml.safe_dump({
        "sweep": {"n_a_values": [10, 50], "n_vdp_values": [50],
                  "n_wg_values": [10]},
        "workload": [{"name": "net60k",
                      "layer_parameter_counts": [59508, 1064, 70]}]}))
    out = tmp_path / "dse"
    assert main(["dse", "--config", str(small), "--out", str(out)]) == 0
    assert digest(out / "scatter.csv") == DSE_SCATTER


def test_fpv_sweep(tmp_path):
    model = tmp_path / "toy.mrbnn"
    assert main(["train-toy", "--out-model", str(model)]) == 0
    out = tmp_path / "fpv.csv"
    assert main(["fpv-sweep", "--model", str(model),
                 "--fractions", "0,0.8,1", "--seeds", "3",
                 "--out", str(out)]) == 0
    assert digest(out) == FPV_SWEEP


def test_bn_plan_dump(tmp_path):
    # FC 8->16, BN with varied gamma and var, ReLU, FC 16->3: the plan's
    # c_fold column carries the BN gain of every first-layer output
    rng = np.random.Generator(np.random.PCG64(5))
    model = bnn.QuantModel((
        bnn.fc_layer(rng.normal(size=(16, 8))),
        bnn.batch_norm_layer(np.linspace(0.5, 2.0, 16), np.zeros(16),
                             np.zeros(16), np.linspace(0.1, 3.0, 16)),
        bnn.activation_layer(),
        bnn.fc_layer(rng.normal(size=(3, 16)), binarized=False)))
    path = tmp_path / "bn.mrbnn"
    modelio.save_model(model, str(path))
    plan = tmp_path / "plan.txt"
    assert main(["simulate", "--model", str(path), "--dump-plan", str(plan),
                 "--out", str(tmp_path / "sim.json")]) == 0
    assert digest(plan) == BN_PLAN
