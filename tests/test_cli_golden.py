"""Pinned output digests of the CLI.

``textio`` writes every CSV number in fixed 9-significant-digit notation so
that identical inputs give identical bytes on every platform. These tests pin
the sha256 of those CSVs for fixed inputs, so a refactor that claims to keep
outputs byte-identical is checked here rather than by hand. A change that
moves any of these bytes on purpose updates the digest and says why.

Every digest that reads an FPV map (``dse``, ``fpv-sweep``, ``simulate``)
was last moved when ``photonics.sample_fpv_map`` began to draw each
resonance shift as one normal, mu' + sigma' * z, instead of three: the
same distribution, another draw.
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
    "4e61cbbf056dfcd4b35b5b4b52e3b8810c048cc15fcde1f3227212e38b404b9e"
FPV_SWEEP = "7c09422cf226d17e7abd48c9ed3358ca3e5fb068c3df3dc0e270e549c727fc78"
# the default 40-point sweep: bank sizes are not monotone in n_a, so it
# reaches the largest-draw-per-bank logic that the small sweep does not
DSE_DEFAULT = {
    "scatter.csv":
        "a118ee583c73b7023f4f9e9a27518c070c863628ac278ba55396d7b04cf5b6e4",
    "picks.json":
        "83aede23cecf9dbcc96bca8ed9b2eb5b1e4163c690659c2ced896b2d4d7536cb",
}
# the default sweep with crosstalk_eta 0.3: the 10- and 15-ring banks are
# too dense to tune, which excludes 20 of the 40 points
DSE_DENSE = {
    "scatter.csv":
        "3b2b70683bf33184021f68f648461ceacc8fccac31aa6fbd3102101421f21013",
    "picks.json":
        "18b4a2d13a28d2df29f3777a1727e75028fd2f13a88165d023877f7db61770c2",
}
# the default sweep at sweep.tuning_fraction 0.0 (no ring needs a heater)
# and 1.0 (the most rings do): the two ends of the heater-row skip
DSE_FRACTION = {
    0.0: {"scatter.csv":
          "b209a82ef15786e74251a3251e95d441ae3a80289cdb7e924d645eb0507adbd3",
          "picks.json":
          "b599bb171b76d5ff5a042815ba44c1c75ecae169ba598ca46c13ec63b47e0c9f"},
    1.0: {"scatter.csv":
          "d99752d929dc23d6274fec48055f7a2e5005d08e9815b9ab5a34cbf754158ee5",
          "picks.json":
          "aa04eb75e2b186b8efe62d5aae34856f4eebc7ca88e5c516c4e8ddd79c026145"},
}
# the toy MLP with two hidden layers, 8 -> 32 -> 16 -> 3: the first
# quantizer feeds a binarized layer, the second the full-precision one
FPV_SWEEP_DEEP = \
    "e4d50917c94aaa7b693d384cd5b3c966e857199ae18debfb8178268a6548905a"
FPV_SWEEP_PO = \
    "82782a17b838de1dc3495391ca00997ba28374ac86a620fbd4aef96d0e6d1a81"
# sim.json of the trained toy model on each preset
SIMULATE = {
    "eo": "082e98669bcc5ef059f4f61450f1c0a9c81e74928788c231e776eca9989ce234",
    "po": "4fc4dddf380cf44bfab99d74a8e4c1601b6fa8d7738787ffda246d119f7cf86d",
}
# the model file train-toy writes, by config: the default and
# ``hidden_sizes: [32, 16]``
TOY_MODEL = {
    "default":
        "bca6aeaa988650a25f78ff5a9e3f12e622f74fc2790b0a17398c11a08f59fc35",
    "two-hidden":
        "2a13d603b40a86006ac15d5071772cadc8c979025ccbbee2a311742619953863",
}
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


def test_dse_default(tmp_path):
    out = tmp_path / "dse"
    assert main(["dse", "--out", str(out)]) == 0
    for name, want in DSE_DEFAULT.items():
        assert digest(out / name) == want, name


def test_dse_dense(tmp_path):
    dense = tmp_path / "dense.yaml"
    dense.write_text(yaml.safe_dump({"tuning": {"crosstalk_eta": 0.3}}))
    out = tmp_path / "dse"
    assert main(["dse", "--config", str(dense), "--out", str(out)]) == 0
    for name, want in DSE_DENSE.items():
        assert digest(out / name) == want, name


@pytest.mark.parametrize("fraction", sorted(DSE_FRACTION))
def test_dse_tuning_fraction(tmp_path, fraction):
    overlay = tmp_path / "fraction.yaml"
    overlay.write_text(yaml.safe_dump({"sweep": {"tuning_fraction": fraction}}))
    out = tmp_path / "dse"
    assert main(["dse", "--config", str(overlay), "--out", str(out)]) == 0
    for name, want in DSE_FRACTION[fraction].items():
        assert digest(out / name) == want, name


@pytest.fixture
def toy_model(tmp_path):
    model = tmp_path / "toy.mrbnn"
    assert main(["train-toy", "--out-model", str(model)]) == 0
    return model


@pytest.mark.parametrize("name, training", [
    ("default", {}), ("two-hidden", {"hidden_sizes": [32, 16]})])
def test_toy_model_file(tmp_path, name, training):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({"training": training}))
    model = tmp_path / "toy.mrbnn"
    assert main(["train-toy", "--config", str(cfg),
                 "--out-model", str(model)]) == 0
    assert digest(model) == TOY_MODEL[name]


def test_fpv_sweep(tmp_path, toy_model):
    out = tmp_path / "fpv.csv"
    assert main(["fpv-sweep", "--model", str(toy_model),
                 "--fractions", "0,0.8,1", "--seeds", "3",
                 "--out", str(out)]) == 0
    assert digest(out) == FPV_SWEEP


def test_fpv_sweep_po(tmp_path, toy_model):
    # the config's 11 fractions x 20 maps on the performance preset
    out = tmp_path / "fpv.csv"
    assert main(["fpv-sweep", "--model", str(toy_model), "--arch", "po",
                 "--out", str(out)]) == 0
    assert digest(out) == FPV_SWEEP_PO


def test_fpv_sweep_two_hidden_layers(tmp_path):
    deep = tmp_path / "deep.yaml"
    deep.write_text(yaml.safe_dump({"training": {"hidden_sizes": [32, 16]}}))
    model = tmp_path / "deep.mrbnn"
    assert main(["train-toy", "--config", str(deep),
                 "--out-model", str(model)]) == 0
    out = tmp_path / "fpv.csv"
    assert main(["fpv-sweep", "--config", str(deep), "--model", str(model),
                 "--seeds", "3", "--out", str(out)]) == 0
    assert digest(out) == FPV_SWEEP_DEEP


@pytest.mark.parametrize("arch", sorted(SIMULATE))
def test_simulate(tmp_path, toy_model, arch):
    out = tmp_path / "sim.json"
    assert main(["simulate", "--model", str(toy_model), "--arch", arch,
                 "--out", str(out)]) == 0
    assert digest(out) == SIMULATE[arch]


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
