import pytest
import yaml

from mrbnn import config
from mrbnn.config import (ToolkitConfig, arch_config, build_designs,
                          build_environment, config_from_dict,
                          config_to_dict, dump_config, load_config,
                          population_design, sweep_spec,
                          workload_structures)
from mrbnn.errors import ConfigError
from mrbnn.photonics import RingClass, fwhm_and_q


class TestDefaults:
    def test_environment_builds(self, toolkit_config):
        env = build_environment(toolkit_config)
        assert set(env.designs) == {RingClass.MULTI_BIT,
                                    RingClass.SINGLE_BIT,
                                    RingClass.BROADBAND}

    def test_design_calibrations(self, designs):
        _, q_mb = fwhm_and_q(designs[RingClass.MULTI_BIT])
        _, q_sb = fwhm_and_q(designs[RingClass.SINGLE_BIT])
        assert abs(q_mb - 5000) / 5000 <= 0.10
        assert q_sb == pytest.approx(25000, rel=1e-6)

    def test_coupler_invariant_satisfied(self, designs):
        for d in designs.values():
            assert abs(d.self_coupling_r**2 + d.cross_coupling_kappa**2
                       - 1.0) < 1e-9

    def test_presets(self, toolkit_config):
        eo = arch_config(toolkit_config, "eo")
        po = arch_config(toolkit_config, "po")
        assert (eo.n_a, eo.n_vdp, eo.n_wg) == (10, 50, 10)
        assert (po.n_a, po.n_vdp, po.n_wg) == (50, 200, 10)
        with pytest.raises(ConfigError):
            arch_config(toolkit_config, "turbo")

    def test_workload(self, toolkit_config):
        structures = workload_structures(toolkit_config)
        counts = {s.name: s.parameter_count for s in structures}
        assert counts["net60k"] == 60642
        assert counts["net13m6"] == 13570186

    def test_population_design(self, toolkit_config):
        d = population_design(toolkit_config)
        assert d.sensitivity_slopes == \
            toolkit_config.fpv_population.slopes_nm_per_nm

    def test_sweep_spec(self, toolkit_config):
        spec = sweep_spec(toolkit_config)
        assert (10, 50, 10) in spec.grid()
        assert (50, 200, 10) in spec.grid()


class TestRoundTrip:
    def test_dict_round_trip(self):
        cfg = ToolkitConfig()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_yaml_round_trip(self):
        cfg = ToolkitConfig()
        text = dump_config(cfg)
        assert config_from_dict(yaml.safe_load(text)) == cfg

    def test_overlay_round_trip(self):
        cfg = config_from_dict({"fpv": {"seed": 99},
                                "accelerator": {"n_a": 12}})
        assert cfg.fpv.seed == 99
        assert cfg.accelerator.n_a == 12
        assert config_from_dict(config_to_dict(cfg)) == cfg


class TestOverlay:
    def test_partial_merge_keeps_defaults(self):
        cfg = config_from_dict({"tuning": {"eo_max_shift_nm": 2.5}})
        assert cfg.tuning.eo_max_shift_nm == 2.5
        assert cfg.tuning.to_power_mw_per_fsr == 27.5

    def test_nested_device_overlay(self):
        cfg = config_from_dict(
            {"device_classes": {"multi_bit": {"radius_um": 6.0}}})
        assert cfg.device_classes.multi_bit.radius_um == 6.0
        assert cfg.device_classes.multi_bit.q_factor == 5425.0
        assert cfg.device_classes.single_bit.radius_um == 1.5

    def test_workload_replacement(self):
        cfg = config_from_dict({"workload": [
            {"name": "tiny", "layer_parameter_counts": [10, 20]}]})
        assert len(cfg.workload) == 1
        assert cfg.workload[0].layer_parameter_counts == (10, 20)

    def test_tuple_length_check(self):
        with pytest.raises(ConfigError):
            config_from_dict({"fpv": {"sigma_nm": [1.0, 2.0]}})


class TestRejection:
    def test_unknown_top_level(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_dict({"lasers": {}})

    def test_unknown_nested(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_dict({"tuning": {"eo_turbo": 1}})

    def test_type_errors(self):
        with pytest.raises(ConfigError):
            config_from_dict({"fpv": {"seed": "abc"}})
        with pytest.raises(ConfigError):
            config_from_dict({"tuning": {"eo_max_shift_nm": "wide"}})
        with pytest.raises(ConfigError):
            config_from_dict({"workload": [{"name": "x"}]})  # missing counts

    def test_root_must_be_mapping(self):
        with pytest.raises(ConfigError):
            config_from_dict([1, 2, 3])


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.yaml"))

    def test_reads_yaml_with_comments(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("# comment\nfpv:\n  seed: 5  # inline\n")
        assert load_config(str(p)).fpv.seed == 5

    def test_none_gives_defaults(self):
        assert load_config(None) == ToolkitConfig()

    def test_malformed_yaml(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("fpv: [unclosed")
        with pytest.raises(ConfigError):
            load_config(str(p))
