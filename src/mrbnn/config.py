"""Toolkit configuration: schema, defaults, YAML ingestion and validation.

The whole configuration is a tree of frozen dataclasses. YAML files overlay
the defaults; unknown keys are rejected, physical quantities carry their
unit in the key name, and a round trip through ``config_to_dict`` /
``config_from_dict`` reproduces an equal value.

Calibration notes baked into the defaults:

* multi-bit ring coupling (r = 0.9615186232399865 with a = 0.99) places the
  quality factor at 5425 (within the +-10% device-exploration window around
  5000); with 15 channels at 1 nm spacing this yields 16.4 distinguishable
  levels, i.e. 4-bit resolution.
* single-bit ring coupling (r = 0.9977937258173164 with a = 0.999) gives
  Q = 25000 at radius 1.5 um.
* thermal crosstalk (eta = 0.0946, d0 = 16.6 um) is a least-squares fit of
  the collective-tuning power reduction anchors: 51% for 10 rings at 5 um
  pitch and 41% at 7 um pitch.
* ``fpv_population.slopes_nm_per_nm`` solves
  sqrt((s_w*4.9)^2 + (s_t*1.5)^2 + (s_R*0.75)^2) = 24.417 nm with
  s_t = 8 and s_R = 10 fixed, reproducing the reported wafer-level
  resonance-shift population; the per-class design slopes below are the
  (much smaller) FPV-hardened device values used for inference noise.
"""

from __future__ import annotations

import dataclasses
import types
import typing
from dataclasses import dataclass, replace

import yaml

from .dse import SweepSpec
from .errors import ConfigError
from .mapping import AcceleratorConfig, ModelStructure
from .photonics import FpvStatistics, MrDesign, RingClass
from .simulator import (AreaConstants, DeviceEntry, DevicePowerTable,
                        LossBudget, PipelineDelays, SimulationEnvironment)
from .tuning import TuningParams


@dataclass(frozen=True)
class DeviceClassConfig:
    radius_um: float
    waveguide_width_nm: float
    ring_width_nm: float
    thickness_nm: float
    resonant_wavelength_nm: float
    q_factor: float
    self_coupling_r: float
    amplitude_a: float
    group_index_ng: float
    effective_index_neff: float
    attenuation_alpha_per_cm: float
    slopes_nm_per_nm: tuple[float, float, float]


@dataclass(frozen=True)
class DeviceClassesConfig:
    multi_bit: DeviceClassConfig = DeviceClassConfig(
        radius_um=5.0, waveguide_width_nm=400.0, ring_width_nm=760.0,
        thickness_nm=220.0, resonant_wavelength_nm=1550.0, q_factor=5425.0,
        self_coupling_r=0.9615186232399865, amplitude_a=0.99,
        group_index_ng=4.2, effective_index_neff=2.4,
        attenuation_alpha_per_cm=6.4,
        slopes_nm_per_nm=(0.06, 0.18, 0.09))
    single_bit: DeviceClassConfig = DeviceClassConfig(
        radius_um=1.5, waveguide_width_nm=450.0, ring_width_nm=450.0,
        thickness_nm=220.0, resonant_wavelength_nm=1550.0, q_factor=25000.0,
        self_coupling_r=0.9977937258173164, amplitude_a=0.999,
        group_index_ng=4.2, effective_index_neff=2.4,
        attenuation_alpha_per_cm=2.1,
        slopes_nm_per_nm=(1.2, 1.0, 0.6))
    broadband: DeviceClassConfig = DeviceClassConfig(
        radius_um=2.0, waveguide_width_nm=450.0, ring_width_nm=450.0,
        thickness_nm=220.0, resonant_wavelength_nm=1550.0, q_factor=274.0,
        self_coupling_r=0.6855654600401045,   # sqrt(1 - 0.53)
        amplitude_a=0.99, group_index_ng=4.2, effective_index_neff=2.4,
        attenuation_alpha_per_cm=25.0,
        slopes_nm_per_nm=(0.05, 0.05, 0.05))


@dataclass(frozen=True)
class FpvConfig:
    mean_nm: tuple[float, float, float] = (0.0, 0.0, 0.0)
    sigma_nm: tuple[float, float, float] = (4.9, 1.5, 0.75)
    seed: int = 1234


@dataclass(frozen=True)
class FpvPopulationConfig:
    """Slope calibration reproducing the reported wafer shift population."""

    slopes_nm_per_nm: tuple[float, float, float] = (
        4.060864967165168, 8.0, 10.0)


@dataclass(frozen=True)
class TuningConfig:
    eo_power_uw_per_nm: float = 4.0
    eo_max_shift_nm: float = 1.0
    eo_latency_ns: float = 20.0
    to_power_mw_per_fsr: float = 27.5
    to_latency_us: float = 4.0
    crosstalk_eta: float = 0.0946
    crosstalk_decay_um: float = 16.6


@dataclass(frozen=True)
class LossConfig:
    propagation_db_per_cm: float = 1.0
    splitter_db: float = 0.13
    combiner_db: float = 0.9
    mr_through_db: float = 0.02
    mr_modulation_db: float = 0.72
    eo_tuning_db_per_cm: float = 6.0
    to_tuning_db_per_cm: float = 1.0
    broadband_insertion_db: float = 4.71
    detector_sensitivity_dbm: float = -20.0


@dataclass(frozen=True)
class DeviceEntryConfig:
    power_mw: float
    latency_ns: float


@dataclass(frozen=True)
class PowerTableConfig:
    vcsel: DeviceEntryConfig = DeviceEntryConfig(0.66, 10.0)
    tia: DeviceEntryConfig = DeviceEntryConfig(7.2, 0.15)
    photodetector: DeviceEntryConfig = DeviceEntryConfig(2.8, 0.0058)
    dac: DeviceEntryConfig = DeviceEntryConfig(59.7, 0.33)
    adc: DeviceEntryConfig = DeviceEntryConfig(62.0, 24.0)


@dataclass(frozen=True)
class DelaysConfig:
    clock_ghz: float = 2.5
    ecu_buffer_params: int = 100_000
    t_del_ns: float | None = None   # None: one full optical path latency


@dataclass(frozen=True)
class AreaConfig:
    vdp_overhead_mm2: float = 0.002
    dac_block_mm2: float = 0.011
    adc_block_mm2: float = 0.00285
    global_overhead_mm2: float = 0.1


@dataclass(frozen=True)
class ArchConfig:
    n_a: int = 10
    n_vdp: int = 50
    n_wg: int = 10
    n_b: int = 1
    mrs_per_bank_max: int = 15
    channel_spacing_nm: float = 1.0
    center_wavelength_nm: float = 1550.0
    mr_pitch_um: float = 5.0
    passband_nm: float = 20.0


@dataclass(frozen=True)
class ArchPresetsConfig:
    """(N_A, N_VDP, N_WG) presets: energy- and performance-optimized."""

    eo: tuple[int, int, int] = (10, 50, 10)
    po: tuple[int, int, int] = (50, 200, 10)


@dataclass(frozen=True)
class SweepConfig:
    n_a_values: tuple[int, ...] = (5, 10, 15, 25, 50)
    n_vdp_values: tuple[int, ...] = (25, 50, 100, 200)
    n_wg_values: tuple[int, ...] = (5, 10)
    tuning_fraction: float = 0.8
    seed: int = 0


@dataclass(frozen=True)
class WorkloadModelConfig:
    name: str
    layer_parameter_counts: tuple[int, ...]


@dataclass(frozen=True)
class TrainingConfig:
    n_features: int = 8
    n_classes: int = 3
    n_train: int = 512
    n_test: int = 256
    cluster_std: float = 0.12
    hidden_sizes: tuple[int, ...] = (32,)
    activation_bits: int = 4
    learning_rate: float = 0.02
    epochs: int = 120
    model_seed: int = 7
    dataset_seed: int = 11


@dataclass(frozen=True)
class ExperimentConfig:
    n_fpv_maps: int = 50
    tuning_fractions: tuple[float, ...] = (
        0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    map_seed: int = 100
    tuning_fraction: float = 0.8


_DEFAULT_WORKLOAD = (
    WorkloadModelConfig("net60k", (59508, 1064, 70)),
    WorkloadModelConfig("net552k", (550000, 2300, 62)),
    WorkloadModelConfig("net1m5", (1500000, 46000, 570)),
    WorkloadModelConfig("net13m6", (13500000, 70000, 186)),
)


@dataclass(frozen=True)
class ToolkitConfig:
    device_classes: DeviceClassesConfig = DeviceClassesConfig()
    fpv: FpvConfig = FpvConfig()
    fpv_population: FpvPopulationConfig = FpvPopulationConfig()
    tuning: TuningConfig = TuningConfig()
    loss: LossConfig = LossConfig()
    power_table: PowerTableConfig = PowerTableConfig()
    delays: DelaysConfig = DelaysConfig()
    area: AreaConfig = AreaConfig()
    accelerator: ArchConfig = ArchConfig()
    arch_presets: ArchPresetsConfig = ArchPresetsConfig()
    sweep: SweepConfig = SweepConfig()
    workload: tuple[WorkloadModelConfig, ...] = _DEFAULT_WORKLOAD
    training: TrainingConfig = TrainingConfig()
    experiment: ExperimentConfig = ExperimentConfig()


# ---------------------------------------------------------------------------
# dict <-> dataclass with unknown-key rejection
# ---------------------------------------------------------------------------

def _coerce(tp, value, path: str):
    origin = typing.get_origin(tp)
    args = typing.get_args(tp)
    if origin is typing.Union or origin is types.UnionType:
        non_none = [a for a in args if a is not type(None)]
        if value is None:
            if type(None) in args:
                return None
            raise ConfigError(f"{path}: null not allowed")
        return _coerce(non_none[0], value, path)
    if dataclasses.is_dataclass(tp):
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected a mapping")
        return _construct(tp, value, path)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list")
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_coerce(args[0], v, f"{path}[{i}]")
                         for i, v in enumerate(value))
        if len(args) != len(value):
            raise ConfigError(f"{path}: expected {len(args)} entries")
        return tuple(_coerce(a, v, f"{path}[{i}]")
                     for i, (a, v) in enumerate(zip(args, value)))
    if tp is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number")
        return float(value)
    if tp is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer")
        return int(value)
    if tp is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected a boolean")
        return value
    if tp is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string")
        return value
    raise ConfigError(f"{path}: unsupported config type {tp!r}")


def _construct(cls, data: dict, path: str):
    """Build a dataclass from a complete mapping (used for list entries)."""
    hints = typing.get_type_hints(cls)
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ConfigError(f"{path or cls.__name__}: unknown keys {unknown}")
    missing = [n for n, f in fields.items()
               if n not in data and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"{path or cls.__name__}: missing keys {missing}")
    kwargs = {n: _coerce(hints[n], v, f"{path}.{n}" if path else n)
              for n, v in data.items()}
    return cls(**kwargs)


def _merge_into(instance, data: dict, path: str):
    """Overlay a partial mapping onto a default dataclass instance."""
    cls = type(instance)
    hints = typing.get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise ConfigError(f"{path or cls.__name__}: unknown keys {unknown}")
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in data:
            continue
        value = data[f.name]
        current = getattr(instance, f.name)
        sub_path = f"{path}.{f.name}" if path else f.name
        if dataclasses.is_dataclass(current) and isinstance(value, dict):
            kwargs[f.name] = _merge_into(current, value, sub_path)
        else:
            kwargs[f.name] = _coerce(hints[f.name], value, sub_path)
    return replace(instance, **kwargs) if kwargs else instance


def _plain(value):
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def config_from_dict(data: dict) -> ToolkitConfig:
    if data is None:
        return ToolkitConfig()
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    return _merge_into(ToolkitConfig(), data, "")


def config_to_dict(cfg: ToolkitConfig) -> dict:
    return _plain(cfg)


def load_config(path: str | None) -> ToolkitConfig:
    """Defaults overlaid with a YAML file (when given)."""
    if path is None:
        return ToolkitConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {path!r}: {exc}") from exc
    return config_from_dict(data)


def dump_config(cfg: ToolkitConfig) -> str:
    return yaml.safe_dump(config_to_dict(cfg), sort_keys=False,
                          default_flow_style=False)


# ---------------------------------------------------------------------------
# constructing runtime objects
# ---------------------------------------------------------------------------

_CLASS_FIELD = {
    RingClass.MULTI_BIT: "multi_bit",
    RingClass.SINGLE_BIT: "single_bit",
    RingClass.BROADBAND: "broadband",
}


def build_design(dc: DeviceClassConfig, ring_class: RingClass) -> MrDesign:
    kappa = (1.0 - dc.self_coupling_r ** 2) ** 0.5
    return MrDesign(
        ring_class=ring_class, radius_um=dc.radius_um,
        waveguide_width_nm=dc.waveguide_width_nm,
        ring_width_nm=dc.ring_width_nm, thickness_nm=dc.thickness_nm,
        resonant_wavelength_nm=dc.resonant_wavelength_nm,
        q_factor=dc.q_factor, self_coupling_r=dc.self_coupling_r,
        cross_coupling_kappa=kappa, amplitude_a=dc.amplitude_a,
        group_index_ng=dc.group_index_ng,
        effective_index_neff=dc.effective_index_neff,
        attenuation_alpha_per_cm=dc.attenuation_alpha_per_cm,
        sensitivity_slopes=dc.slopes_nm_per_nm)


def build_designs(cfg: ToolkitConfig) -> dict[RingClass, MrDesign]:
    return {rc: build_design(getattr(cfg.device_classes, name), rc)
            for rc, name in _CLASS_FIELD.items()}


def build_tuning_params(cfg: ToolkitConfig,
                        fsr_nm: float | None = None) -> TuningParams:
    t = cfg.tuning
    mb = build_design(cfg.device_classes.multi_bit, RingClass.MULTI_BIT)
    return TuningParams(
        eo_power_uw_per_nm=t.eo_power_uw_per_nm,
        eo_max_shift_nm=t.eo_max_shift_nm, eo_latency_ns=t.eo_latency_ns,
        to_power_mw_per_fsr=t.to_power_mw_per_fsr,
        to_latency_us=t.to_latency_us,
        fsr_nm=fsr_nm if fsr_nm is not None else mb.fsr_nm,
        crosstalk_eta=t.crosstalk_eta,
        crosstalk_decay_um=t.crosstalk_decay_um)


def build_environment(cfg: ToolkitConfig) -> SimulationEnvironment:
    p = cfg.power_table
    clock_ns = 1.0 / cfg.delays.clock_ghz
    return SimulationEnvironment(
        designs=build_designs(cfg),
        loss=LossBudget(
            propagation_db_per_cm=cfg.loss.propagation_db_per_cm,
            splitter_db=cfg.loss.splitter_db,
            combiner_db=cfg.loss.combiner_db,
            mr_through_db=cfg.loss.mr_through_db,
            mr_modulation_db=cfg.loss.mr_modulation_db,
            eo_tuning_db_per_cm=cfg.loss.eo_tuning_db_per_cm,
            to_tuning_db_per_cm=cfg.loss.to_tuning_db_per_cm,
            broadband_insertion_db=cfg.loss.broadband_insertion_db,
            detector_sensitivity_dbm=cfg.loss.detector_sensitivity_dbm),
        power=DevicePowerTable(
            vcsel=DeviceEntry(p.vcsel.power_mw, p.vcsel.latency_ns),
            tia=DeviceEntry(p.tia.power_mw, p.tia.latency_ns),
            photodetector=DeviceEntry(p.photodetector.power_mw,
                                      p.photodetector.latency_ns),
            dac=DeviceEntry(p.dac.power_mw, p.dac.latency_ns),
            adc=DeviceEntry(p.adc.power_mw, p.adc.latency_ns)),
        tuning_params=build_tuning_params(cfg),
        delays=PipelineDelays(
            local_buffer_ns=clock_ns, vector_distribution_ns=clock_ns,
            ecu_buffering_ns=clock_ns,
            ecu_buffer_params=cfg.delays.ecu_buffer_params,
            t_del_ns=cfg.delays.t_del_ns),
        fpv=FpvStatistics(mean_nm=cfg.fpv.mean_nm, sigma_nm=cfg.fpv.sigma_nm,
                          seed=cfg.fpv.seed),
        area=AreaConstants(
            vdp_overhead_mm2=cfg.area.vdp_overhead_mm2,
            dac_block_mm2=cfg.area.dac_block_mm2,
            adc_block_mm2=cfg.area.adc_block_mm2,
            global_overhead_mm2=cfg.area.global_overhead_mm2))


def arch_config(cfg: ToolkitConfig, preset: str = "default") -> AcceleratorConfig:
    a = cfg.accelerator
    triple = (a.n_a, a.n_vdp, a.n_wg)
    if preset != "default":
        if not hasattr(cfg.arch_presets, preset):
            raise ConfigError(f"unknown architecture preset {preset!r}")
        triple = getattr(cfg.arch_presets, preset)
    return AcceleratorConfig(
        n_a=triple[0], n_vdp=triple[1], n_wg=triple[2], n_b=a.n_b,
        mrs_per_bank_max=a.mrs_per_bank_max,
        channel_spacing_nm=a.channel_spacing_nm,
        center_wavelength_nm=a.center_wavelength_nm,
        mr_pitch_um=a.mr_pitch_um, passband_nm=a.passband_nm)


def sweep_spec(cfg: ToolkitConfig) -> SweepSpec:
    s = cfg.sweep
    return SweepSpec(n_a_values=s.n_a_values, n_vdp_values=s.n_vdp_values,
                     n_wg_values=s.n_wg_values, n_b=cfg.accelerator.n_b,
                     tuning_fraction=s.tuning_fraction)


def workload_structures(cfg: ToolkitConfig) -> list[ModelStructure]:
    return [ModelStructure(w.name, w.layer_parameter_counts,
                           weight_bits=1, activation_bits=4)
            for w in cfg.workload]


def population_design(cfg: ToolkitConfig) -> MrDesign:
    """Multi-bit design carrying the wafer-population slope calibration."""
    mb = build_design(cfg.device_classes.multi_bit, RingClass.MULTI_BIT)
    return replace(mb,
                   sensitivity_slopes=cfg.fpv_population.slopes_nm_per_nm)
