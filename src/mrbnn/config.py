"""Toolkit configuration: schema, defaults, YAML ingestion and validation.

The whole configuration is a tree of frozen dataclasses. YAML files overlay
the defaults; unknown keys are rejected, physical quantities carry their
unit in the key name, and a round trip through ``config_to_dict`` /
``config_from_dict`` reproduces an equal value.

Where the simulator runs on a dataclass, that runtime class is the schema
node itself: each ``device_classes`` entry is an ``MrDesign``, ``fpv`` is
``FpvStatistics``, ``tuning`` ``TuningParams``, ``loss`` ``LossBudget``,
``power_table`` ``DevicePowerTable``, ``delays`` ``PipelineDelays``,
``area`` ``AreaConstants``, ``accelerator`` ``AcceleratorConfig`` and
``sweep`` ``SweepSpec``. Their ``__post_init__`` value checks therefore run
while the config loads, and a failed check is reported as a ``ConfigError``
naming the section. A field marked ``metadata={"derived": True}`` is not a
config key: the tuning FSR is set from each ring's design, the sweep's
``n_b`` from the accelerator, and ``fpv.seed`` keeps its default, because
the commands seed their chip maps from ``experiment.map_seed`` and
``sweep.seed``. The remaining sections (``fpv_population``,
``arch_presets``, ``workload``, ``training``, ``experiment``) have no
runtime counterpart and are config-only nodes.

A ring stores no quality factor: Q follows from r and a (see
``photonics.fwhm_and_q``).

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
import math
import types
import typing
from dataclasses import dataclass, replace

from .dse import SweepSpec
from .errors import ConfigError, DomainError
from .mapping import AcceleratorConfig, ModelStructure
from .photonics import FpvStatistics, MrDesign, RingClass
from .simulator import (AreaConstants, DevicePowerTable, LossBudget,
                        PipelineDelays, SimulationEnvironment)
from .tuning import TuningParams


@dataclass(frozen=True)
class DeviceClassesConfig:
    multi_bit: MrDesign = MrDesign(
        radius_um=5.0, resonant_wavelength_nm=1550.0,
        self_coupling_r=0.9615186232399865, amplitude_a=0.99,
        group_index_ng=4.2, effective_index_neff=2.4,
        slopes_nm_per_nm=(0.06, 0.18, 0.09))
    single_bit: MrDesign = MrDesign(
        radius_um=1.5, resonant_wavelength_nm=1550.0,
        self_coupling_r=0.9977937258173164, amplitude_a=0.999,
        group_index_ng=4.2, effective_index_neff=2.4,
        slopes_nm_per_nm=(1.2, 1.0, 0.6))
    broadband: MrDesign = MrDesign(
        radius_um=2.0, resonant_wavelength_nm=1550.0,
        self_coupling_r=0.6855654600401045,   # sqrt(1 - 0.53)
        amplitude_a=0.99, group_index_ng=4.2, effective_index_neff=2.4,
        slopes_nm_per_nm=(0.05, 0.05, 0.05))


@dataclass(frozen=True)
class FpvPopulationConfig:
    """Slope calibration reproducing the reported wafer shift population."""

    slopes_nm_per_nm: tuple[float, float, float] = (
        4.060864967165168, 8.0, 10.0)


@dataclass(frozen=True)
class ArchPresetsConfig:
    """(N_A, N_VDP, N_WG) presets: energy- and performance-optimized."""

    eo: tuple[int, int, int] = (10, 50, 10)
    po: tuple[int, int, int] = (50, 200, 10)


@dataclass(frozen=True)
class WorkloadModelConfig:
    name: str
    layer_parameter_counts: tuple[int, ...]

    def __post_init__(self):
        if not self.layer_parameter_counts or any(
                c < 1 for c in self.layer_parameter_counts):
            raise DomainError("layer_parameter_counts must be a non-empty "
                              "list of counts >= 1")


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

    def __post_init__(self):
        for name in ("n_features", "n_classes", "n_train", "n_test",
                     "activation_bits"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be >= 1")
        if any(h < 1 for h in self.hidden_sizes):
            raise DomainError("hidden_sizes must all be >= 1")
        if self.cluster_std < 0:
            raise DomainError("cluster_std must be >= 0")
        if not 0 < self.learning_rate < math.inf:
            raise DomainError("learning_rate must be finite and > 0")
        if self.epochs < 0:
            raise DomainError("epochs must be >= 0")
        for name in ("model_seed", "dataset_seed"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be >= 0")


@dataclass(frozen=True)
class ExperimentConfig:
    n_fpv_maps: int = 50
    tuning_fractions: tuple[float, ...] = (
        0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    map_seed: int = 100
    tuning_fraction: float = 0.8

    def __post_init__(self):
        if self.n_fpv_maps < 1:
            raise DomainError("n_fpv_maps must be >= 1")
        if not self.tuning_fractions:
            raise DomainError("tuning_fractions must not be empty")
        if len(set(self.tuning_fractions)) != len(self.tuning_fractions):
            raise DomainError("tuning_fractions must not repeat a value")
        if not all(0.0 <= f <= 1.0
                   for f in (*self.tuning_fractions, self.tuning_fraction)):
            raise DomainError("tuning fractions must be in [0, 1]")
        if self.map_seed < 0:
            raise DomainError("map_seed must be >= 0")


_DEFAULT_WORKLOAD = (
    WorkloadModelConfig("net60k", (59508, 1064, 70)),
    WorkloadModelConfig("net552k", (550000, 2300, 62)),
    WorkloadModelConfig("net1m5", (1500000, 46000, 570)),
    WorkloadModelConfig("net13m6", (13500000, 70000, 186)),
)


@dataclass(frozen=True)
class ToolkitConfig:
    device_classes: DeviceClassesConfig = DeviceClassesConfig()
    fpv: FpvStatistics = FpvStatistics(seed=1234)
    fpv_population: FpvPopulationConfig = FpvPopulationConfig()
    # The FSR is bound to a ring's design by build_tuning_params (and per
    # ring class in the simulator); an infinite placeholder keeps the
    # eo_max_shift_nm < FSR check from running against a default ring.
    tuning: TuningParams = TuningParams(fsr_nm=math.inf)
    loss: LossBudget = LossBudget()
    power_table: DevicePowerTable = DevicePowerTable()
    delays: PipelineDelays = PipelineDelays()
    area: AreaConstants = AreaConstants()
    accelerator: AcceleratorConfig = AcceleratorConfig(10, 50, 10)
    arch_presets: ArchPresetsConfig = ArchPresetsConfig()
    sweep: SweepSpec = SweepSpec()
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
        return _build(tp, value, path)
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
    if tp is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string")
        return value
    raise ConfigError(f"{path}: unsupported config type {tp!r}")


def _fields(cls) -> list[dataclasses.Field]:
    """The config keys of a node: its fields, less the derived ones."""
    return [f for f in dataclasses.fields(cls)
            if not f.metadata.get("derived")]


def _build(cls, data: dict, path: str, base=None):
    """Build node ``cls`` from a mapping, overlaid on ``base`` when given.

    Without a base (list entries) every field lacking a default is required.
    The node's own value checks fail as config errors.
    """
    hints = typing.get_type_hints(cls)
    fields = _fields(cls)
    where = path or cls.__name__
    unknown = sorted(set(data) - {f.name for f in fields})
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    missing = [f.name for f in fields if base is None and f.name not in data
               and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")
    kwargs = {}
    for name, value in data.items():
        sub_path = f"{path}.{name}" if path else name
        current = getattr(base, name, None)
        if dataclasses.is_dataclass(current) and isinstance(value, dict):
            kwargs[name] = _build(type(current), value, sub_path, current)
        else:
            kwargs[name] = _coerce(hints[name], value, sub_path)
    try:
        return cls(**kwargs) if base is None else replace(base, **kwargs)
    except DomainError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _plain(value):
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name))
                for f in _fields(type(value))}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def config_from_dict(data: dict) -> ToolkitConfig:
    if data is None:
        return ToolkitConfig()
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    return _build(ToolkitConfig, data, "", ToolkitConfig())


def config_to_dict(cfg: ToolkitConfig) -> dict:
    return _plain(cfg)


def load_config(path: str | None) -> ToolkitConfig:
    """Defaults overlaid with a YAML file (when given)."""
    if path is None:
        return ToolkitConfig()
    import yaml     # here, so that a run that reads no YAML never loads it
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {path!r}: {exc}") from exc
    return config_from_dict(data)


def dump_config(cfg: ToolkitConfig) -> str:
    import yaml
    return yaml.safe_dump(config_to_dict(cfg), sort_keys=False,
                          default_flow_style=False)


# ---------------------------------------------------------------------------
# constructing runtime objects
# ---------------------------------------------------------------------------

def build_designs(cfg: ToolkitConfig) -> dict[RingClass, MrDesign]:
    return {rc: getattr(cfg.device_classes, rc.value) for rc in RingClass}


def build_tuning_params(cfg: ToolkitConfig) -> TuningParams:
    """The tuning rates bound to the multi-bit ring's FSR."""
    return replace(cfg.tuning, fsr_nm=cfg.device_classes.multi_bit.fsr_nm)


def build_environment(cfg: ToolkitConfig) -> SimulationEnvironment:
    return SimulationEnvironment(
        designs=build_designs(cfg), loss=cfg.loss, power=cfg.power_table,
        tuning_params=build_tuning_params(cfg), delays=cfg.delays,
        fpv=cfg.fpv, area=cfg.area)


def arch_config(cfg: ToolkitConfig, preset: str = "default") -> AcceleratorConfig:
    if preset == "default":
        return cfg.accelerator
    if preset not in {f.name for f in _fields(ArchPresetsConfig)}:
        raise ConfigError(f"unknown architecture preset {preset!r}")
    n_a, n_vdp, n_wg = getattr(cfg.arch_presets, preset)
    return replace(cfg.accelerator, n_a=n_a, n_vdp=n_vdp, n_wg=n_wg)


def sweep_spec(cfg: ToolkitConfig) -> SweepSpec:
    return replace(cfg.sweep, n_b=cfg.accelerator.n_b)


def workload_structures(cfg: ToolkitConfig) -> list[ModelStructure]:
    return [ModelStructure.from_counts(w.layer_parameter_counts)
            for w in cfg.workload]


def population_design(cfg: ToolkitConfig) -> MrDesign:
    """Multi-bit design carrying the wafer-population slope calibration."""
    return replace(cfg.device_classes.multi_bit,
                   slopes_nm_per_nm=cfg.fpv_population.slopes_nm_per_nm)
