import json
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from mrbnn import bnn, modelio
from mrbnn import config as cfgmod
from mrbnn.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("models") / "toy.mrbnn"
    code = main(["train-toy", "--out-model", str(out)])
    assert code == 0
    return str(out)


class TestDeviceReport:
    def test_multibit_report(self, tmp_path, capsys):
        out = tmp_path / "spectrum.csv"
        code, stdout, _ = run_cli(
            ["device-report", "--class", "MultiBit", "--out", str(out)],
            capsys)
        assert code == 0
        summary = json.loads(stdout)
        assert summary["resolution_bits"] >= 4
        assert abs(summary["q_factor"] - 5000) / 5000 <= 0.10
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "wavelength_nm,transmission"
        assert len(lines) == 2002

    def test_missing_class_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["device-report", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_unknown_class_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["device-report", "--class", "Octagon",
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_deterministic_rerun(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            code, _, _ = run_cli(
                ["device-report", "--class", "SingleBit", "--out", str(out)],
                capsys)
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestTrainToy:
    def test_metadata_and_checksum(self, model_path):
        model, meta = modelio.load_model(model_path)
        assert meta["train_accuracy"] >= 0.95
        assert any(l.weighted for l in model.layers)

    def test_deterministic(self, tmp_path, capsys):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.mrbnn"
            code, _, _ = run_cli(["train-toy", "--out-model", str(out)],
                                 capsys)
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestFpvSweep:
    def test_full_tuning_matches_reference(self, model_path, tmp_path,
                                           capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            ["fpv-sweep", "--model", model_path, "--fractions", "1.0",
             "--seeds", "1", "--out", str(out)], capsys)
        assert code == 0
        header, row = out.read_text().strip().split("\n")
        assert header == "tuning_fraction,mean_accuracy,std_accuracy"
        frac, mean, std = (float(v) for v in row.split(","))
        model, meta = modelio.load_model(model_path)
        assert mean == pytest.approx(meta["test_accuracy"], abs=1e-6)
        assert std == 0.0

    def test_eleven_rows(self, model_path, tmp_path, capsys):
        out = tmp_path / "sweep11.csv"
        fractions = ",".join(f"{v / 10:.1f}" for v in range(11))
        code, _, _ = run_cli(
            ["fpv-sweep", "--model", model_path, "--fractions", fractions,
             "--seeds", "3", "--out", str(out)], capsys)
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 12

    def test_byte_identical_rerun(self, model_path, tmp_path, capsys):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.csv"
            code, _, _ = run_cli(
                ["fpv-sweep", "--model", model_path,
                 "--fractions", "0.0,0.8,1.0", "--seeds", "5",
                 "--out", str(out)], capsys)
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_corrupt_model_exit_3(self, model_path, tmp_path, capsys):
        bad = tmp_path / "bad.mrbnn"
        raw = bytearray(Path(model_path).read_bytes())
        raw[-1] ^= 0x55
        bad.write_bytes(bytes(raw))
        code, _, err = run_cli(
            ["fpv-sweep", "--model", str(bad), "--fractions", "1.0",
             "--seeds", "1", "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 3
        assert err.startswith("error[data]:")


class TestSimulate:
    def test_report_and_steps(self, model_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, stdout, _ = run_cli(
            ["simulate", "--model", model_path, "--arch", "po",
             "--out", str(out)], capsys)
        assert code == 0
        assert "power_breakdown_sum_ok true" in stdout
        report = json.loads(out.read_text())
        assert report["pipeline_steps"] == 1  # toy model fits one step
        total = sum(report["power_breakdown_mw"].values())
        assert total == pytest.approx(report["total_power_mw"], rel=1e-6)
        assert report["noisy_accuracy"] is not None

    def test_plan_dump_flag(self, model_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        plan = tmp_path / "plan.txt"
        code, _, _ = run_cli(
            ["simulate", "--model", model_path, "--out", str(out),
             "--dump-plan", str(plan)], capsys)
        assert code == 0
        assert plan.read_text().startswith("layer output chunk")

    def test_deterministic(self, model_path, tmp_path, capsys):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.json"
            code, _, _ = run_cli(
                ["simulate", "--model", model_path, "--out", str(out)],
                capsys)
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


def _edit(header, path, value=None):
    """``header`` with the entry at ``path`` set to ``value``, or deleted
    when ``value`` is None."""
    node = header
    for key in path[:-1]:
        node = node[key]
    if value is None:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return header


def _in_header(edit):
    """A model-file edit of the header alone: ``edit(header)``."""
    return lambda header, payload: (edit(header), payload)


def _short_beta(header, payload):
    """The test model's file with beta (tensor 2) cut to its first two
    floats, the tensors after it moved up and the checksum redone: a 2-wide
    beta under a 4-wide gamma."""
    beta = header["tensors"][2]
    cut = beta["byte_offset"] + 8
    payload = payload[:cut] + payload[cut + 8:]
    beta.update(shape=[2], byte_len=8)
    for t in header["tensors"][3:]:
        t["byte_offset"] -= 8
    header["payload_crc32"] = zlib.crc32(payload) & 0xFFFFFFFF
    return header, payload


class TestMalformedModel:
    """A model file whose header does not describe a valid model fails as a
    data error (exit 3) before anything runs."""

    @pytest.mark.parametrize("mutate, message", [
        (_in_header(lambda h: [1, 2]), "not a mapping"),
        (_in_header(lambda h: _edit(h, ["tensors"])), "'tensors'"),
        (_in_header(lambda h: _edit(h, ["layers", 1, "kind"])), "'kind'"),
        (_in_header(lambda h: _edit(h, ["tensors", 0, "name"],
                                    "layer9.weights")),
         "'layer0.weights'"),
        (_in_header(lambda h: _edit(h, ["activation_bits"], 0)),
         "activation_bits"),
        # the same 12 kernel floats as 6 channels ahead of the 4-channel BN
        (_in_header(lambda h: _edit(h, ["tensors", 0, "shape"],
                                    [6, 1, 1, 2])),
         "channel mismatch"),
        (_in_header(lambda h: _edit(h, ["tensors", 0, "shape"], [4, 3])),
         "4 axes"),
        (_in_header(lambda h: _edit(h, ["layers", 0, "stride"], 0)),
         "conv stride must be >= 1"),
        (_in_header(lambda h: _edit(h, ["layers", 0, "binarized"], "no")),
         "layer 0: header entry 'binarized' is not a boolean"),
        (_in_header(lambda h: _edit(h, ["layers", 2, "act_range"], [0.0])),
         "layer 2: header entry 'act_range' is not a list of two numbers"),
        (_in_header(lambda h: _edit(h, ["layers", 0, "shape"],
                                    [4, 1, 1, 2])),
         "layer 0: header entry 'shape' is [4, 1, 1, 2]"),
        (_in_header(lambda h: _edit(h, ["layers", 1, "channels"], 3)),
         "layer 1: header entry 'channels' is 3"),
        (_in_header(lambda h: _edit(h, ["layers", 1, "epsilon"],
                                    float("nan"))),
         "epsilon must be > 0"),
        (_short_beta, "channel mismatch: BN vectors of shape [(2,), (4,)]"),
        # beta's 16 bytes read as two float64s, in a payload of unchanged
        # length and checksum
        (_in_header(lambda h: _edit(_edit(h, ["tensors", 2, "dtype"], "<f8"),
                                    ["tensors", 2, "shape"], [2])),
         "tensor layer1.bn_beta has dtype '<f8', not '<f4'"),
        # beta pointed at the conv weights' first 16 bytes, its own unread
        (_in_header(lambda h: _edit(h, ["tensors", 2, "byte_offset"], 0)),
         "tensor layer1.bn_beta starts at byte 0, not at byte 64"),
    ], ids=["header-not-mapping", "no-tensors", "layer-without-kind",
            "missing-tensor", "activation-bits-0", "bn-channel-mismatch",
            "conv-weights-rank", "stride-0", "binarized-string",
            "act-range-one-number", "conv-shape-mismatch",
            "bn-channels-mismatch", "bn-epsilon-nan", "bn-beta-short",
            "bn-beta-f8", "bn-beta-on-weights"])
    def test_exit_3(self, mutate, message, tmp_path, capsys):
        rng = np.random.Generator(np.random.PCG64(3))
        path = tmp_path / "m.mrbnn"
        modelio.save_model(bnn.QuantModel((
            bnn.conv_layer(rng.normal(size=(4, 1, 1, 3))),
            bnn.batch_norm_layer(np.ones(4), np.zeros(4), np.zeros(4),
                                 np.ones(4)),
            bnn.activation_layer())), str(path))
        raw = path.read_bytes()[len(modelio.MAGIC):]
        length, rest = raw.split(b"\n", 1)
        header, payload = mutate(yaml.safe_load(rest[:int(length)]),
                                 rest[int(length):])
        text = yaml.safe_dump(header, sort_keys=False).encode()
        path.write_bytes(modelio.MAGIC + f"{len(text)}\n".encode() + text
                         + payload)
        out = tmp_path / "report.json"
        code, _, err = run_cli(["simulate", "--model", str(path),
                                "--out", str(out)], capsys)
        assert code == 3
        assert err.startswith("error[data]:") and err.count("\n") == 1
        assert message in err
        assert not out.exists()


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "small.yaml"
    p.write_text(yaml.safe_dump({
        "sweep": {"n_a_values": [10, 50], "n_vdp_values": [50, 200],
                  "n_wg_values": [10]},
        "workload": [
            {"name": "net60k",
             "layer_parameter_counts": [59508, 1064, 70]},
        ]}))
    return str(p)


class TestDse:
    def test_outputs_and_ordering(self, small_config, tmp_path, capsys):
        out = tmp_path / "dse"
        code, stdout, _ = run_cli(
            ["dse", "--config", small_config, "--out", str(out)], capsys)
        assert code == 0
        summary = json.loads(stdout)
        assert summary["evaluated_points"] == 4
        scatter = (out / "scatter.csv").read_text().strip().split("\n")
        assert len(scatter) == 5
        rows = {tuple(int(v) for v in line.split(",")[:3]):
                line.split(",") for line in scatter[1:]}
        fps_eo = float(rows[(10, 50, 10)][3])
        fps_po = float(rows[(50, 200, 10)][3])
        assert fps_po > fps_eo

    def test_deterministic(self, small_config, tmp_path, capsys):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code, _, _ = run_cli(
                ["dse", "--config", small_config, "--out", str(out)],
                capsys)
            assert code == 0
            blobs.append((out / "scatter.csv").read_bytes()
                         + (out / "picks.json").read_bytes())
        assert blobs[0] == blobs[1]


class TestTedSweep:
    def test_csv_rows(self, tmp_path, capsys):
        out = tmp_path / "ted.csv"
        code, _, _ = run_cli(
            ["ted-sweep", "--spacings", "5,7", "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "spacing_um,p_naive_mw,p_ted_mw,reduction"
        assert len(lines) == 3
        red5 = float(lines[1].split(",")[3])
        red7 = float(lines[2].split(",")[3])
        assert red5 == pytest.approx(0.51, abs=0.10)
        assert red7 == pytest.approx(0.41, abs=0.10)


class TestConfigHandling:
    def test_unknown_key_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.yaml"
        p.write_text("warp_drive: on\n")
        code, _, err = run_cli(
            ["device-report", "--class", "MultiBit", "--config", str(p),
             "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert err.startswith("error[config]:")

    def test_env_var_config(self, tmp_path, capsys, monkeypatch):
        p = tmp_path / "c.yaml"
        p.write_text("experiment:\n  map_seed: 5\n")
        monkeypatch.setenv("MRBNN_CONFIG", str(p))
        code, _, _ = run_cli(
            ["device-report", "--class", "MultiBit",
             "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 0

    @pytest.mark.parametrize("command, config_text, flags", [
        ("ted-sweep", "tuning:\n  to_power_mw_per_fsr: 0\n", []),
        ("ted-sweep", "accelerator:\n  n_a: 0\n", []),
        ("simulate", "loss:\n  splitter_db: -1\n", []),
        ("simulate", "delays:\n  clock_ghz: 0\n", []),
        ("fpv-sweep", "experiment:\n  n_fpv_maps: 0\n", []),
        ("fpv-sweep", "", ["--seeds", "0"]),
        ("train-toy", "training:\n  n_test: 0\n", []),
        ("train-toy", "training:\n  epochs: -3\n", []),
        ("simulate", "area:\n  vdp_overhead_mm2: -5\n", []),
        ("fpv-sweep", "", ["--fractions", ""]),
        ("dse", "workload:\n  - name: x\n    layer_parameter_counts: [-5]\n",
         []),
        ("dse", "workload:\n  - name: x\n    layer_parameter_counts: []\n",
         []),
        ("ted-sweep", "", ["--spacings", "x"]),
        ("ted-sweep", "", ["--spacings", ""]),
        ("ted-sweep", "", ["--spacings", "0"]),
        ("ted-sweep", "", ["--mrs", "-2"]),
        ("device-report", "device_classes:\n  multi_bit:\n"
         "    group_index_ng: 0\n", ["--class", "MultiBit"]),
        ("ted-sweep", "", ["--target", "nan"]),
        ("train-toy", "", ["--learning-rate", "0"]),
        ("simulate", "", ["--tuning-fraction", "1.5"]),
        ("simulate", "", ["--tuning-fraction", "nan"]),
        ("simulate", "accelerator:\n  mr_pitch_um: .nan\n", []),
        ("simulate", "loss:\n  splitter_db: .nan\n", []),
        ("simulate", "tuning:\n  eo_power_uw_per_nm: .nan\n", []),
        ("simulate", "power_table:\n  dac:\n    power_mw: .nan\n"
         "    latency_ns: 1\n", []),
        ("simulate", "area:\n  dac_block_mm2: .nan\n", []),
        ("simulate", "accelerator:\n  passband_nm: .nan\n", []),
        ("simulate", "delays:\n  clock_ghz: .inf\n", []),
        ("simulate", "tuning:\n  crosstalk_decay_um: 0\n", []),
        # a repeated value would be evaluated twice
        ("fpv-sweep", "", ["--fractions", "0.5,0.5"]),
        ("ted-sweep", "", ["--spacings", "5,7,5"]),
    ], ids=["to-power-0", "n-a-0", "splitter-negative", "clock-0",
            "n-fpv-maps-0", "seeds-0", "n-test-0", "epochs-negative",
            "area-negative", "fractions-empty", "workload-count-negative",
            "workload-counts-empty", "spacings-not-number", "spacings-empty",
            "spacings-0", "mrs-negative", "ring-ng-0", "target-nan",
            "learning-rate-0", "tuning-fraction-1.5", "tuning-fraction-nan",
            "pitch-nan", "splitter-nan", "eo-power-nan", "dac-power-nan",
            "dac-area-nan", "passband-nan", "clock-inf", "decay-0",
            "fractions-repeated", "spacings-repeated"])
    def test_bad_value_exit_2(self, command, config_text, flags, tmp_path,
                              capsys, model_path):
        p = tmp_path / "c.yaml"
        p.write_text(config_text)
        out = tmp_path / "out.txt"
        out_flag = "--out-model" if command == "train-toy" else "--out"
        argv = [command, "--config", str(p), out_flag, str(out), *flags]
        if command in ("fpv-sweep", "simulate"):
            argv += ["--model", model_path]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("error[") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("config_text, argv", [
        ("device_classes:\n  broadband:\n    group_index_ng: -4.2\n",
         ["device-report", "--class", "Broadband"]),
        ("device_classes:\n  multi_bit:\n    effective_index_neff: 0\n",
         ["device-report", "--class", "MultiBit"]),
        ("device_classes:\n  single_bit:\n    radius_um: -1\n",
         ["train-toy"]),
        ("sweep:\n  tuning_fraction: 1.5\n", ["dse"]),
        ("", ["ted-sweep", "--target", "inf"]),
        ("", ["ted-sweep", "--target", "-1"]),
        ("", ["train-toy", "--learning-rate", "-0.1"]),
        ("", ["train-toy", "--learning-rate", "nan"]),
        ("", ["simulate", "--tuning-fraction", "1.5"]),
        ("", ["simulate", "--tuning-fraction", "nan"]),
        ("training:\n  dataset_seed: -1\n", ["train-toy"]),
        ("training:\n  model_seed: -1\n", ["train-toy"]),
        ("experiment:\n  map_seed: -1\n", ["simulate"]),
        ("sweep:\n  seed: -1\n", ["dse"]),
        ("fpv:\n  seed: -1\n", ["simulate"]),
        ("", ["train-toy", "--dataset-seed", "-1"]),
        ("", ["fpv-sweep", "--seeds", "-3"]),
        ("fpv:\n  seed: 99\n", ["fpv-sweep"]),
        # a repeated sweep value would evaluate its points twice
        ("sweep:\n  n_a_values: [5, 5]\n  n_vdp_values: [25]\n"
         "  n_wg_values: [5]\n", ["dse"]),
        ("experiment:\n  tuning_fractions: []\n", ["fpv-sweep"]),
        ("experiment:\n  tuning_fractions: [0.5, 0.5]\n", ["fpv-sweep"]),
    ])
    def test_boundary_checks_are_config_errors(self, config_text, argv,
                                               tmp_path, capsys, model_path):
        p = tmp_path / "c.yaml"
        p.write_text(config_text)
        out = tmp_path / "out.txt"
        out_flag = "--out-model" if argv[0] == "train-toy" else "--out"
        if argv[0] in ("fpv-sweep", "simulate"):
            argv = [*argv, "--model", model_path]
        code, _, err = run_cli([*argv, "--config", str(p), out_flag,
                                str(out)], capsys)
        assert code == 2
        assert err.startswith("error[config]:") and err.count("\n") == 1
        assert not out.exists()

    def test_zero_target_allowed(self, tmp_path, capsys):
        out = tmp_path / "ted.csv"
        code, _, _ = run_cli(["ted-sweep", "--spacings", "5",
                              "--target", "0", "--out", str(out)], capsys)
        assert code == 0
        assert out.read_text().split("\n")[1].startswith("5.00000000,")

    def test_passband_violation_exit_4(self, tmp_path, capsys, model_path):
        p = tmp_path / "c.yaml"
        p.write_text("accelerator:\n  n_a: 21\n  n_wg: 1\n")
        code, _, err = run_cli(
            ["simulate", "--model", model_path, "--config", str(p),
             "--out", str(tmp_path / "x.json")], capsys)
        assert code == 4
        assert err.startswith("error[physical]:")

    def test_dense_layout_exit_4(self, tmp_path, capsys, model_path):
        p = tmp_path / "c.yaml"
        p.write_text("tuning:\n  crosstalk_eta: 5\n")
        out = tmp_path / "x.json"
        code, _, err = run_cli(
            ["simulate", "--model", model_path, "--config", str(p),
             "--out", str(out)], capsys)
        assert code == 4
        assert err.startswith("error[physical]:") and err.count("\n") == 1
        assert "too dense" in err
        assert not out.exists()

    @pytest.mark.parametrize("fraction", ["0", "1"])
    def test_dense_layout_fails_at_any_fraction(self, tmp_path, capsys,
                                                model_path, fraction):
        # at fraction 0 no ring needs heater power; the layout still fails
        p = tmp_path / "c.yaml"
        p.write_text("tuning:\n  crosstalk_eta: 0.3\n")
        code, _, err = run_cli(
            ["simulate", "--model", model_path, "--config", str(p),
             "--tuning-fraction", fraction,
             "--out", str(tmp_path / "x.json")], capsys)
        assert code == 4
        assert err.startswith("error[physical]:") and "too dense" in err

    def test_dense_layouts_excluded_from_dse(self, tmp_path, capsys):
        p = tmp_path / "c.yaml"
        p.write_text("tuning:\n  crosstalk_eta: 0.3\n")
        code, stdout, _ = run_cli(
            ["dse", "--config", str(p), "--out", str(tmp_path / "dse")],
            capsys)
        assert code == 0
        summary = json.loads(stdout)
        excluded = summary["excluded"]
        assert summary["evaluated_points"] == 20 and len(excluded) == 20
        # the 10- and 15-ring banks are too dense at eta 0.3; 5 rings are not
        base = cfgmod.arch_config(cfgmod.load_config(str(p)))
        for e in excluded:
            n_a, n_vdp, n_wg = e["config"]
            cfg = replace(base, n_a=n_a, n_vdp=n_vdp, n_wg=n_wg)
            assert cfg.arm_activation_mrs in (10, 15)
            assert "layout too dense" in e["reason"]

    @pytest.mark.parametrize("config_text,reason", [
        # every configuration fails validation
        ("accelerator:\n  passband_nm: 2.0\n", "passband"),
        # every configuration validates, and none can be tuned
        ("tuning:\n  crosstalk_eta: 0.9\n", "too dense"),
    ], ids=["validation", "tuning"])
    def test_dse_all_excluded_exit_4(self, tmp_path, capsys, model_path,
                                     config_text, reason):
        # as simulate does on the same configuration
        p = tmp_path / "c.yaml"
        p.write_text(config_text)
        code, stdout, err = run_cli(
            ["dse", "--config", str(p), "--out", str(tmp_path / "dse")],
            capsys)
        assert code == 4 and stdout == ""
        assert err == ("error[physical]: no feasible configuration in the "
                       "sweep: all 40 configurations were excluded\n")
        code, _, err = run_cli(
            ["simulate", "--model", model_path, "--config", str(p),
             "--out", str(tmp_path / "x.json")], capsys)
        assert code == 4 and reason in err
