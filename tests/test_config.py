import pytest
import yaml

from mrbnn import config
from mrbnn.config import (ToolkitConfig, arch_config, build_designs,
                          build_environment, build_tuning_params,
                          config_from_dict, config_to_dict, dump_config,
                          load_config, population_design, sweep_spec,
                          workload_structures)
from mrbnn.errors import ConfigError, DomainError
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

    def test_presets(self, toolkit_config):
        eo = arch_config(toolkit_config, "eo")
        po = arch_config(toolkit_config, "po")
        assert (eo.n_a, eo.n_vdp, eo.n_wg) == (10, 50, 10)
        assert (po.n_a, po.n_vdp, po.n_wg) == (50, 200, 10)
        with pytest.raises(ConfigError):
            arch_config(toolkit_config, "turbo")
        with pytest.raises(ConfigError):
            arch_config(toolkit_config, "__doc__")

    def test_preset_keeps_layout_constants(self):
        cfg = config_from_dict({"accelerator": {"mr_pitch_um": 7.0}})
        assert arch_config(cfg) is cfg.accelerator
        assert arch_config(cfg, "po").mr_pitch_um == 7.0

    def test_workload(self, toolkit_config):
        structures = workload_structures(toolkit_config)
        counts = {s.name: s.parameter_count for s in structures}
        assert counts["net60k"] == 60642
        assert counts["net13m6"] == 13570186

    def test_population_design(self, toolkit_config):
        d = population_design(toolkit_config)
        assert d.slopes_nm_per_nm == \
            toolkit_config.fpv_population.slopes_nm_per_nm
        assert d.radius_um == toolkit_config.device_classes.multi_bit.radius_um

    def test_sweep_spec(self, toolkit_config):
        spec = sweep_spec(toolkit_config)
        assert (10, 50, 10) in spec.grid()
        assert (50, 200, 10) in spec.grid()
        cfg = config_from_dict({"accelerator": {"n_b": 3},
                                "sweep": {"seed": 5}})
        assert (sweep_spec(cfg).n_b, sweep_spec(cfg).seed) == (3, 5)

    def test_designs_are_config_nodes(self, toolkit_config):
        designs = build_designs(toolkit_config)
        for rc, design in designs.items():
            assert design is getattr(toolkit_config.device_classes, rc.value)


class TestSchema:
    """The runtime dataclasses are the schema nodes of these sections."""

    @pytest.mark.parametrize("section, keys", [
        ("fpv", ("mean_nm", "sigma_nm")),
        ("tuning", ("eo_power_uw_per_nm", "eo_max_shift_nm", "eo_latency_ns",
                    "to_power_mw_per_fsr", "to_latency_us", "crosstalk_eta",
                    "crosstalk_decay_um")),
        ("loss", ("propagation_db_per_cm", "splitter_db", "combiner_db",
                  "mr_through_db", "mr_modulation_db", "eo_tuning_db_per_cm",
                  "to_tuning_db_per_cm", "broadband_insertion_db",
                  "detector_sensitivity_dbm")),
        ("power_table", ("vcsel", "tia", "photodetector", "dac", "adc")),
        ("area", ("vdp_overhead_mm2", "dac_block_mm2", "adc_block_mm2",
                  "global_overhead_mm2")),
        ("accelerator", ("n_a", "n_vdp", "n_wg", "n_b", "mrs_per_bank_max",
                         "channel_spacing_nm", "center_wavelength_nm",
                         "mr_pitch_um", "passband_nm")),
        ("delays", ("clock_ghz", "ecu_buffer_params", "t_del_ns")),
        ("sweep", ("n_a_values", "n_vdp_values", "n_wg_values",
                   "tuning_fraction", "seed")),
        ("device_classes.multi_bit", (
            "radius_um", "resonant_wavelength_nm", "self_coupling_r",
            "amplitude_a", "group_index_ng", "effective_index_neff",
            "slopes_nm_per_nm")),
    ])
    def test_section_keys(self, section, keys):
        node = config_to_dict(ToolkitConfig())
        for part in section.split("."):
            node = node[part]
        assert tuple(node) == keys

    def test_power_table_entry_keys(self):
        for entry in config_to_dict(ToolkitConfig())["power_table"].values():
            assert tuple(entry) == ("power_mw", "latency_ns")

    @pytest.mark.parametrize("section, key", [
        ("tuning", "fsr_nm"),
        ("tuning", "heater_efficiency_nm_per_mw"),
        ("loss", "fanout_db_per_stage"),
        ("device_classes.multi_bit", "q_factor"),
        ("device_classes.multi_bit", "attenuation_alpha_per_cm"),
        ("device_classes.multi_bit", "cross_coupling_kappa"),
        ("device_classes.multi_bit", "thickness_nm"),
        ("delays", "local_buffer_ns"),
        ("sweep", "n_b"),
        ("fpv", "seed"),
    ])
    def test_derived_values_are_not_keys(self, section, key):
        data = {key: 1.0}
        for part in reversed(section.split(".")):
            data = {part: data}
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_dict(data)

    def test_tuning_fsr_follows_multi_bit_radius(self):
        cfg = config_from_dict(
            {"device_classes": {"multi_bit": {"radius_um": 6.0}}})
        fsr = build_designs(cfg)[RingClass.MULTI_BIT].fsr_nm
        params = build_tuning_params(cfg)
        assert params.fsr_nm == fsr
        assert fsr < build_tuning_params(ToolkitConfig()).fsr_nm
        assert params.heater_efficiency_nm_per_mw == \
            fsr / params.to_power_mw_per_fsr

    def test_eo_range_checked_against_configured_ring(self):
        # 20 nm exceeds the FSR of the default 5 um ring but not of a 2 um one
        cfg = config_from_dict({
            "device_classes": {"multi_bit": {"radius_um": 2.0}},
            "tuning": {"eo_max_shift_nm": 20.0}})
        assert build_environment(cfg).tuning_params.eo_max_shift_nm == 20.0
        wide = config_from_dict({"tuning": {"eo_max_shift_nm": 20.0}})
        with pytest.raises(DomainError, match="FSR"):
            build_tuning_params(wide)

    def test_environment_uses_config_nodes(self, toolkit_config):
        env = build_environment(toolkit_config)
        assert env.loss is toolkit_config.loss
        assert env.delays is toolkit_config.delays
        assert env.power is toolkit_config.power_table
        assert env.fpv is toolkit_config.fpv
        assert env.area is toolkit_config.area

    @pytest.mark.parametrize("key, value", [
        ("fpv.sigma_nm", [1.0, -1.0, 1.0]),
        ("tuning.to_power_mw_per_fsr", 0),
        ("tuning.crosstalk_eta", -0.1),
        ("loss.splitter_db", -1),
        ("power_table.dac.power_mw", -1),
        ("accelerator.n_a", 0),
        ("accelerator.mr_pitch_um", 0),
        ("delays.clock_ghz", 0),
        ("delays.ecu_buffer_params", -1),
        ("delays.t_del_ns", -1.0),
        ("experiment.n_fpv_maps", 0),
        ("experiment.tuning_fractions", [0.5, 1.5]),
        ("experiment.tuning_fraction", -0.1),
        ("area.vdp_overhead_mm2", -5),
        ("area.global_overhead_mm2", -0.1),
        ("training.n_test", 0),
        ("training.epochs", -3),
        ("training.learning_rate", 0),
        ("training.hidden_sizes", [32, 0]),
        ("device_classes.multi_bit.group_index_ng", 0),
        ("device_classes.multi_bit.effective_index_neff", 0),
        ("device_classes.multi_bit.radius_um", -1),
        ("sweep.n_a_values", []),
        ("sweep.tuning_fraction", 1.5),
        ("training.dataset_seed", -1),
        ("training.model_seed", -1),
        ("experiment.map_seed", -1),
        ("sweep.seed", -1),
        ("fpv.seed", -1),
    ])
    def test_bad_values_rejected_at_load(self, key, value):
        data = value
        for part in reversed(key.split(".")):
            data = {part: data}
        section = key.split(".")[0]
        with pytest.raises(ConfigError, match=f"^{section}[.:]"):
            config_from_dict(data)


class TestRoundTrip:
    def test_dict_round_trip(self):
        cfg = ToolkitConfig()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_yaml_round_trip(self):
        cfg = ToolkitConfig()
        text = dump_config(cfg)
        assert config_from_dict(yaml.safe_load(text)) == cfg

    def test_overlay_round_trip(self):
        cfg = config_from_dict({"experiment": {"map_seed": 99},
                                "accelerator": {"n_a": 12}})
        assert cfg.experiment.map_seed == 99
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
        assert cfg.device_classes.multi_bit.self_coupling_r == \
            ToolkitConfig().device_classes.multi_bit.self_coupling_r
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
            config_from_dict({"experiment": {"map_seed": "abc"}})
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
        p.write_text("# comment\nexperiment:\n  map_seed: 5  # inline\n")
        assert load_config(str(p)).experiment.map_seed == 5

    def test_none_gives_defaults(self):
        assert load_config(None) == ToolkitConfig()

    def test_malformed_yaml(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("fpv: [unclosed")
        with pytest.raises(ConfigError):
            load_config(str(p))
