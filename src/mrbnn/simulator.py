"""End-to-end behavioral accelerator simulation.

Covers FPV-noisy photonic inference, optical loss and laser power budgets,
pipeline latency, per-device electrical power, energy-per-bit, area, and
memory bandwidth.

Noise model: every imprinted value v in [0, 1] (an activation level or one
rail of a dual-rail binary weight) is perturbed multiplicatively by the
transmission ratio T(lambda_s; lambda') / T(lambda_s; lambda_MR) of the MR it
is imprinted on, where lambda' is the FPV-shifted resonance after tuning
corrects a fraction of the shift. The result is clamped back to [0, 1].
The nominal transmission is taken on resonance, the through-port minimum,
so the ratio is never below 1: a rail in {0, 1} comes back unchanged, and
weight-ring FPV costs tuning power but never changes a result. Only the
activation rings' ratios are computed. With full tuning the ratio is
exactly 1 and the photonic pass reproduces the reference forward pass.
Layers that are not binarized are executed in the electronic control unit
and see no optical noise.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from . import _kernels, photonics, tuning
from .bnn import QuantModel, as_batch, exact_dot, forward
# Nothing here calls quantize_activation (bnn.forward does), but
# bench/spans.py traces it at this binding.
from .bnn import quantize_activation  # noqa: F401
from .errors import DomainError
from .mapping import (AcceleratorConfig, ModelStructure, build_comb,
                      build_work_plan)
from .photonics import FpvStatistics, MrDesign, RingClass


# ---------------------------------------------------------------------------
# parameter tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LossBudget:
    """Optical loss constants [dB] and detector sensitivity [dBm]."""

    propagation_db_per_cm: float = 1.0
    splitter_db: float = 0.13          # excess loss per 1:2 split stage
    combiner_db: float = 0.9
    mr_through_db: float = 0.02
    mr_modulation_db: float = 0.72
    eo_tuning_db_per_cm: float = 6.0
    to_tuning_db_per_cm: float = 1.0
    broadband_insertion_db: float = 4.71   # 4.35 + 0.36 filter elements
    detector_sensitivity_dbm: float = -20.0

    def __post_init__(self):
        for name in ("propagation_db_per_cm", "splitter_db", "combiner_db",
                     "mr_through_db", "mr_modulation_db",
                     "eo_tuning_db_per_cm", "to_tuning_db_per_cm",
                     "broadband_insertion_db"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be >= 0")


@dataclass(frozen=True)
class DeviceEntry:
    power_mw: float
    latency_ns: float

    def __post_init__(self):
        if self.power_mw < 0 or self.latency_ns < 0:
            raise DomainError("device power/latency must be >= 0")


@dataclass(frozen=True)
class DevicePowerTable:
    """Per-device power and latency (electronic/optoelectronic periphery)."""

    vcsel: DeviceEntry = DeviceEntry(0.66, 10.0)
    tia: DeviceEntry = DeviceEntry(7.2, 0.15)
    photodetector: DeviceEntry = DeviceEntry(2.8, 0.0058)
    dac: DeviceEntry = DeviceEntry(59.7, 0.33)      # 4-bit DAC
    adc: DeviceEntry = DeviceEntry(62.0, 24.0)


@dataclass(frozen=True)
class PipelineDelays:
    """ECU-side delays. The local buffer, the vector distribution and the
    ECU buffering each take one clock cycle."""

    clock_ghz: float = 2.5
    ecu_buffer_params: int = 100_000
    t_del_ns: float | None = None   # None: one full optical path latency

    def __post_init__(self):
        if not self.clock_ghz > 0:
            raise DomainError("clock_ghz must be > 0")
        if self.ecu_buffer_params < 0:
            raise DomainError("ecu_buffer_params must be >= 0")
        if self.t_del_ns is not None and self.t_del_ns < 0:
            raise DomainError("t_del_ns must be >= 0")

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.clock_ghz

    def resolve_t_del(self, power: DevicePowerTable,
                      tuning_params: tuning.TuningParams) -> float:
        if self.t_del_ns is not None:
            return self.t_del_ns
        return (power.dac.latency_ns + tuning_params.eo_latency_ns
                + power.photodetector.latency_ns + power.tia.latency_ns
                + power.vcsel.latency_ns + power.adc.latency_ns)


@dataclass(frozen=True)
class AreaConstants:
    """Non-MR block footprints [mm^2]."""

    vdp_overhead_mm2: float = 0.002
    dac_block_mm2: float = 0.011
    adc_block_mm2: float = 0.00285
    global_overhead_mm2: float = 0.1

    def __post_init__(self):
        for name in ("vdp_overhead_mm2", "dac_block_mm2", "adc_block_mm2",
                     "global_overhead_mm2"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be >= 0")


@dataclass(frozen=True)
class SimulationEnvironment:
    """Device classes plus all loss/power/tuning/delay tables."""

    designs: dict[RingClass, MrDesign]
    loss: LossBudget
    power: DevicePowerTable
    tuning_params: tuning.TuningParams
    delays: PipelineDelays
    fpv: FpvStatistics
    area: AreaConstants = AreaConstants()


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimReport:
    fps: float
    total_power_mw: float
    power_breakdown_mw: dict[str, float]
    epb_pj_per_bit: float | None
    area_mm2: float
    inference_time_ns: float
    noisy_accuracy: float | None
    required_bandwidth_gb_s: float

    def __post_init__(self):
        total = sum(self.power_breakdown_mw.values())
        if total > 0 and abs(total - self.total_power_mw) > 1e-6 * total:
            raise DomainError("power breakdown does not sum to total")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PipelineTiming:
    total_ns: float
    steps: int                # X of the total-time equation
    buffered_steps: int       # x: steps covered by one ECU buffer fill
    delta_t_ns: float
    t_del_ns: float


@dataclass(frozen=True)
class PathLoss:
    arm_path_db: float
    fanout_db: float

    @property
    def total_db(self) -> float:
        return self.arm_path_db + self.fanout_db


@dataclass(frozen=True)
class LaserPower:
    dbm: float
    mw: float


# ---------------------------------------------------------------------------
# losses and laser
# ---------------------------------------------------------------------------

def path_loss_db(budget: LossBudget, length_cm: float = 0.0,
                 splitters: int = 0, combiners: int = 0,
                 through_mrs: int = 0, modulators: int = 0,
                 tuning_segment_cm: float = 0.0,
                 broadband_mrs: int = 0) -> float:
    """Sum of the component losses along one optical path [dB]."""
    return (budget.propagation_db_per_cm * length_cm
            + budget.splitter_db * splitters
            + budget.combiner_db * combiners
            + budget.mr_through_db * through_mrs
            + budget.mr_modulation_db * modulators
            + (budget.eo_tuning_db_per_cm + budget.to_tuning_db_per_cm)
            * tuning_segment_cm
            + budget.broadband_insertion_db * broadband_mrs)


def loss_accounting(cfg: AcceleratorConfig, env: SimulationEnvironment) -> PathLoss:
    """Worst-case per-arm path loss plus the laser fan-out division.

    The arm path crosses every MR on the arm (through loss), one of them
    modulating, the EO/TO tuned ring segments, the broadband filter, the arm
    combiner, and the waveguide itself; the comb additionally traverses one
    excess-loss splitter per 1:2 fan-out stage. The intrinsic 1:2 power
    division of those stages, 10*log10(2) dB each, is reported separately
    as ``fanout_db``.
    """
    mrs = cfg.mrs_per_arm
    length_cm = mrs * cfg.mr_pitch_um * 1e-4
    stages = math.ceil(math.log2(max(cfg.n_wg * cfg.n_vdp, 1))) if \
        cfg.n_wg * cfg.n_vdp > 1 else 0
    tuned_cm = (cfg.arm_activation_mrs
                * env.designs[RingClass.MULTI_BIT].circumference_nm
                + cfg.arm_weight_mrs
                * env.designs[RingClass.SINGLE_BIT].circumference_nm) * 1e-7
    arm_db = path_loss_db(
        env.loss, length_cm=length_cm, splitters=stages, combiners=1,
        through_mrs=mrs, modulators=1, tuning_segment_cm=tuned_cm,
        broadband_mrs=cfg.n_b)
    return PathLoss(arm_db, stages * (10.0 * math.log10(2.0)))


def laser_power(n_lambda: int, total_loss_db: float,
                sensitivity_dbm: float) -> LaserPower:
    """Laser power at the equality bound of the link budget.

    P_laser [dBm] = sensitivity + total loss + 10*log10(N_lambda)
    """
    if n_lambda < 1:
        raise DomainError("n_lambda must be >= 1")
    dbm = sensitivity_dbm + total_loss_db + 10.0 * math.log10(n_lambda)
    return LaserPower(dbm, 10.0 ** (dbm / 10.0))


# ---------------------------------------------------------------------------
# pipeline timing
# ---------------------------------------------------------------------------

def pipeline_time(model, cfg: AcceleratorConfig,
                  env: SimulationEnvironment) -> PipelineTiming:
    """Total inference latency.

    total = T_del + delta_t * X + (ECU buffering delay) * x
    X = ceil(params / (N_w * N_VDP)),   N_w = n_a * n_wg
    x = ceil(min(params, buffered params) / (N_w * N_VDP))
    delta_t = local buffer delay + vector distribution delay
    """
    params = int(model.parameter_count)
    per_step = cfg.weights_per_vdp_step * cfg.n_vdp
    steps = math.ceil(params / per_step) if params else 0
    buffered = min(params, env.delays.ecu_buffer_params)
    buffered_steps = math.ceil(buffered / per_step) if buffered else 0
    cycle = env.delays.cycle_ns
    delta_t = cycle + cycle
    t_del = env.delays.resolve_t_del(env.power, env.tuning_params)
    total = t_del + delta_t * steps + cycle * buffered_steps
    return PipelineTiming(total, steps, buffered_steps, delta_t, t_del)


# ---------------------------------------------------------------------------
# area
# ---------------------------------------------------------------------------

def mr_footprint_um2(radius_um: float, pitch_um: float) -> float:
    """Keep-out disc of one ring: pi * (R + pitch/2)^2."""
    half = radius_um + pitch_um / 2.0
    return math.pi * half * half


def area_from_counts(act_mrs: int, weight_mrs: int, broadband_mrs: int,
                     n_vdp: int, dacs: int, adcs: int,
                     cfg: AcceleratorConfig,
                     env: SimulationEnvironment) -> float:
    pitch = cfg.mr_pitch_um
    um2 = (act_mrs * mr_footprint_um2(
        env.designs[RingClass.MULTI_BIT].radius_um, pitch)
        + weight_mrs * mr_footprint_um2(
            env.designs[RingClass.SINGLE_BIT].radius_um, pitch)
        + broadband_mrs * mr_footprint_um2(
            env.designs[RingClass.BROADBAND].radius_um, pitch))
    return (um2 * 1e-6
            + n_vdp * env.area.vdp_overhead_mm2
            + dacs * env.area.dac_block_mm2
            + adcs * env.area.adc_block_mm2
            + env.area.global_overhead_mm2)


def area_estimate(cfg: AcceleratorConfig, env: SimulationEnvironment) -> float:
    """Chip area [mm^2] from MR keep-out discs plus block constants."""
    arms = cfg.n_vdp * cfg.n_wg
    return area_from_counts(
        act_mrs=arms * cfg.arm_activation_mrs,
        weight_mrs=arms * cfg.arm_weight_mrs,
        broadband_mrs=arms * cfg.n_b,
        n_vdp=cfg.n_vdp, dacs=cfg.n_vdp * cfg.dacs_per_vdp,
        adcs=cfg.n_vdp, cfg=cfg, env=env)


# ---------------------------------------------------------------------------
# FPV chip maps and tuning power
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChipFpvMap:
    """Per-MR resonance shifts for one chip instance [nm].

    Arrays are indexed by flat MR id: (vdp * n_wg + arm) * slots + slot.
    Weight rails carry independent MR populations.
    """

    act_delta_nm: np.ndarray
    weight_pos_delta_nm: np.ndarray
    weight_neg_delta_nm: np.ndarray
    broadband_delta_nm: np.ndarray


def chip_fpv_map(cfg: AcceleratorConfig, env: SimulationEnvironment,
                 seed: int) -> ChipFpvMap:
    """Sample one FPV map for every MR of the configured array."""
    arms = cfg.n_vdp * cfg.n_wg
    mb = env.designs[RingClass.MULTI_BIT]
    sb = env.designs[RingClass.SINGLE_BIT]
    bb = env.designs[RingClass.BROADBAND]
    n_act = arms * cfg.arm_activation_mrs
    n_w = arms * cfg.arm_weight_mrs

    def draw(design, count, sub_seed):
        fmap = photonics.sample_fpv_map([design], env.fpv, count,
                                        seed=sub_seed)
        return fmap.delta_lambdas_nm

    return ChipFpvMap(
        act_delta_nm=draw(mb, n_act, seed * 4 + 0),
        weight_pos_delta_nm=draw(sb, n_w, seed * 4 + 1),
        weight_neg_delta_nm=draw(sb, n_w, seed * 4 + 2),
        broadband_delta_nm=draw(bb, arms * cfg.n_b, seed * 4 + 3))


def tuning_power_budget(cfg: AcceleratorConfig, env: SimulationEnvironment,
                        chip_map: ChipFpvMap,
                        tuning_fraction: float) -> tuple[float, float]:
    """(eo_mw, to_mw) to correct ``tuning_fraction`` of every MR's shift.

    Each ring population is budgeted bank by bank through
    ``tuning.bank_tuning_budget``: EO corrections are summed per MR, TO
    remainders are solved collectively (TED).
    """
    eo_total = 0.0
    to_total = 0.0
    populations = [
        (chip_map.act_delta_nm, cfg.arm_activation_mrs, RingClass.MULTI_BIT),
        (chip_map.weight_pos_delta_nm, cfg.arm_weight_mrs,
         RingClass.SINGLE_BIT),
        (chip_map.weight_neg_delta_nm, cfg.arm_weight_mrs,
         RingClass.SINGLE_BIT),
        (chip_map.broadband_delta_nm, cfg.n_b, RingClass.BROADBAND),
    ]
    for deltas, bank_size, ring_class in populations:
        if deltas.size == 0:
            continue
        budget = tuning.bank_tuning_budget(
            deltas.reshape(-1, bank_size), tuning_fraction, cfg.mr_pitch_um,
            replace(env.tuning_params,
                    fsr_nm=env.designs[ring_class].fsr_nm))
        eo_total += budget.eo_power_mw
        to_total += budget.to_power_mw
    return eo_total, to_total


# ---------------------------------------------------------------------------
# noisy photonic inference
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhotonicMapping:
    """Per-layer MR index matrices derived from the work plan.

    ``mr_ids`` holds, sorted, the flat MR ids the plan uses and
    ``lambda_nm`` the comb wavelength each of them carries. For each
    weighted layer an [out, in] integer matrix holds, for each
    weight/activation element, the position in ``mr_ids`` of the MR that
    carries it.
    """

    mr_index: dict[int, np.ndarray]
    mr_ids: np.ndarray
    lambda_nm: np.ndarray


def build_photonic_mapping(model: QuantModel,
                           cfg: AcceleratorConfig) -> PhotonicMapping:
    """Place every weight/activation element on an MR of its slice's arm.

    Element ``col`` of a row sits in that row's slice ``col // n_a``, at
    position ``col % n_a`` of the slice, on activation MR
    ``(col % n_a) % slots`` of the arm the plan gave the slice.
    """
    cfg.validate()
    plan = build_work_plan(model, cfg)
    slots = cfg.arm_activation_mrs
    comb = build_comb(slots, cfg.channel_spacing_nm,
                      cfg.center_wavelength_nm, cfg.passband_nm)
    # flat arm id (vdp * n_wg + arm) of every slice, in schedule order
    slice_arm = plan.slices["vdp"] * cfg.n_wg + plan.slices["arm"]
    mr_index = {}
    for li, layer in enumerate(model.layers):
        if not layer.weighted:
            continue
        rows = layer.weights.shape[0]
        col = np.arange(layer.weights[0].size)
        arm = slice_arm[plan.slices["layer"] == li].reshape(rows, -1)
        mr_index[li] = (arm[:, col // cfg.n_a] * slots
                        + (col % cfg.n_a) % slots)
    used = np.zeros(cfg.n_vdp * cfg.n_wg * slots, dtype=bool)
    for idx in mr_index.values():
        used[idx] = True
    ids = np.flatnonzero(used)
    position = np.cumsum(used) - 1     # flat MR id -> position in ids
    return PhotonicMapping({li: position[idx] for li, idx in mr_index.items()},
                           ids, np.asarray(comb)[ids % slots])


def _perturbation_ratios(design: MrDesign, lam: np.ndarray,
                         deltas_nm: np.ndarray,
                         residual: float) -> np.ndarray:
    """rho = T(lambda_s; lambda_s + residual*delta) / T(lambda_s; lambda_s).

    ``lam`` and ``deltas_nm`` give each MR's signal wavelength and FPV shift.
    """
    base = photonics.transmission(design, lam, lam)
    shifted = photonics.transmission(design, lam, lam + residual * deltas_nm)
    return np.asarray(shifted) / np.asarray(base)


@dataclass(frozen=True)
class NoisyInferenceResult:
    accuracy: float
    logits: np.ndarray
    predictions: np.ndarray


def noisy_inference(model: QuantModel, x, y, cfg: AcceleratorConfig,
                    env: SimulationEnvironment, tuning_fraction: float,
                    seed: int,
                    mapping: PhotonicMapping | None = None,
                    chip_map: ChipFpvMap | None = None) -> NoisyInferenceResult:
    """Forward pass through the FPV-perturbed photonic array.

    Binarized layers run optically: activations are scaled by their MR's
    transmission ratio and clamped to [0, 1]; the {0, 1} dual-rail weights
    pass unchanged (see the module docstring). Batch norm is always folded:
    the broadband C_fold gain scales the partial sums after the following
    nonlinearity. Non-binarized layers, nonlinearities, quantization and
    pooling run exactly in the ECU, through the same layer walk as
    ``bnn.reference_inference``. ``tuning_fraction`` = 1 reproduces the
    folded reference forward pass (ratios are identically 1).
    """
    if not (0.0 <= tuning_fraction <= 1.0):
        raise DomainError("tuning_fraction must be in [0, 1]")
    if mapping is None:
        mapping = build_photonic_mapping(model, cfg)
    if chip_map is None:
        chip_map = chip_fpv_map(cfg, env, seed)
    # ratios of the activation MRs the mapping uses
    rho_act = _perturbation_ratios(
        env.designs[RingClass.MULTI_BIT], mapping.lambda_nm,
        chip_map.act_delta_nm[mapping.mr_ids], 1.0 - tuning_fraction)

    def photonic_dot(li, layer, v):
        if not layer.binarized:
            return exact_dot(li, layer, v)
        w = layer.effective_weights()
        w = w.reshape(w.shape[0], -1)
        out = _kernels.noisy_fc_forward(
            v.reshape(-1, v.shape[-1]), (w > 0).astype(np.float64),
            (w < 0).astype(np.float64), rho_act[mapping.mr_index[li]])
        return out.reshape(*v.shape[:-1], -1)

    logits = forward(model, as_batch(x)[0], photonic_dot, folded=True)
    predictions = np.argmax(logits, axis=1)
    acc = float(np.mean(predictions == np.asarray(y))) if y is not None \
        else float("nan")
    return NoisyInferenceResult(acc, logits, predictions)


def fpv_accuracy_sweep(model: QuantModel, x, y, cfg: AcceleratorConfig,
                       env: SimulationEnvironment,
                       fractions: Sequence[float], n_maps: int,
                       base_seed: int) -> list[tuple[float, float, float]]:
    """(fraction, mean accuracy, std accuracy) over seeded FPV maps."""
    if n_maps < 1:
        raise DomainError("n_maps must be >= 1")
    mapping = build_photonic_mapping(model, cfg)
    # maps outside fractions, so one chip map is alive at a time
    accs = [[] for _ in fractions]
    for i in range(n_maps):
        chip_map = chip_fpv_map(cfg, env, base_seed + i)
        for f, per_map in zip(fractions, accs):
            per_map.append(noisy_inference(model, x, y, cfg, env, f, 0,
                                           mapping=mapping,
                                           chip_map=chip_map).accuracy)
    return [(float(f), float(np.mean(a)), float(np.std(a)))
            for f, a in zip(fractions, accs)]


# ---------------------------------------------------------------------------
# power / EPB aggregation
# ---------------------------------------------------------------------------

def required_bandwidth_gb_s(cfg: AcceleratorConfig,
                            env: SimulationEnvironment,
                            activation_bits: int = 4) -> float:
    """Steady-state ECU-to-core interface bandwidth.

    The interface is DAC-array bound: every optical evaluate window (the
    full path latency T_del, enabled by ping-pong buffering) the ECU streams
    one fresh activation word per DAC; binary weights ride on switch
    settings loaded alongside and are not charged.
    """
    t_del = env.delays.resolve_t_del(env.power, env.tuning_params)
    bits_per_window = cfg.dacs_per_vdp * cfg.n_vdp * activation_bits
    return bits_per_window / t_del / 8.0   # bits/ns -> GB/s


@dataclass(frozen=True)
class ChipBudget:
    """The model-independent part of a report for one configuration.

    The chip map, the loss and laser budget, the device power breakdown
    (tuning included) and the area depend on the configuration, the
    environment, the tuning fraction and the map seed, never on the model,
    so a sweep computes them once per configuration.
    """

    cfg: AcceleratorConfig
    chip_map: ChipFpvMap
    loss: PathLoss
    laser: LaserPower
    power_breakdown_mw: dict[str, float]
    area_mm2: float


def chip_budget(cfg: AcceleratorConfig, env: SimulationEnvironment,
                tuning_fraction: float = 0.8, seed: int = 0,
                chip_map: ChipFpvMap | None = None) -> ChipBudget:
    """Power and area of ``cfg`` with ``tuning_fraction`` of every MR's FPV
    shift corrected; the map is drawn from ``seed`` unless given."""
    cfg.validate()
    loss = loss_accounting(cfg, env)
    laser = laser_power(cfg.n_lambda, loss.total_db,
                        env.loss.detector_sensitivity_dbm)
    if chip_map is None:
        chip_map = chip_fpv_map(cfg, env, seed)
    eo_mw, to_mw = tuning_power_budget(cfg, env, chip_map, tuning_fraction)
    arms = cfg.n_vdp * cfg.n_wg
    p = env.power
    breakdown = {
        "laser": laser.mw,
        "to_tuning": to_mw,
        "eo_tuning": eo_mw,
        "dac": cfg.dacs_per_vdp * cfg.n_vdp * p.dac.power_mw,
        "adc": cfg.n_vdp * p.adc.power_mw,
        "pd": (cfg.n_wg + 1) * cfg.n_vdp * p.photodetector.power_mw,
        "tia": (cfg.n_wg + 1) * cfg.n_vdp * p.tia.power_mw,
        "vcsel": arms * p.vcsel.power_mw,
    }
    return ChipBudget(cfg, chip_map, loss, laser, breakdown,
                      area_estimate(cfg, env))


def power_and_epb(model, cfg: AcceleratorConfig, env: SimulationEnvironment,
                  tuning_fraction: float = 0.8, seed: int = 0,
                  noisy_accuracy: float | None = None,
                  chip_map: ChipFpvMap | None = None,
                  budget: ChipBudget | None = None) -> SimReport:
    """Full power/performance report for a model on a configuration.

    ``model`` may be a QuantModel or a ModelStructure; only parameter counts
    and bit widths are needed. A ``budget`` from ``chip_budget`` on the same
    ``cfg`` takes the place of ``tuning_fraction``, ``seed`` and
    ``chip_map``.
    """
    if budget is None:
        budget = chip_budget(cfg, env, tuning_fraction, seed, chip_map)
    elif budget.cfg != cfg:
        raise DomainError("budget was computed for another configuration")
    if isinstance(model, QuantModel):
        structure = ModelStructure.from_model(model)
    else:
        structure = model
    timing = pipeline_time(structure, cfg, env)
    total = sum(budget.power_breakdown_mw.values())
    bits = structure.total_bits
    epb = total * timing.total_ns / bits if bits else None
    fps = 1e9 / timing.total_ns
    return SimReport(
        fps=fps, total_power_mw=total,
        power_breakdown_mw=dict(budget.power_breakdown_mw),
        epb_pj_per_bit=epb, area_mm2=budget.area_mm2,
        inference_time_ns=timing.total_ns, noisy_accuracy=noisy_accuracy,
        required_bandwidth_gb_s=required_bandwidth_gb_s(
            cfg, env, structure.activation_bits))
