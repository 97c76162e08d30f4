"""End-to-end behavioral accelerator simulation.

Covers FPV-noisy photonic inference, optical loss and laser power budgets,
pipeline latency, per-device electrical power, energy-per-bit, area, and
memory bandwidth.

Ring inventory: ``AcceleratorConfig.arm_banks`` says what one arm carries,
an activation bank, one single-bit ring per activation slot for each rail of
a dual-rail binary weight, and the broadband filter. The FPV chip map, the
tuning power, the area and the optical loss all count that inventory.

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
The layer walk hands a narrow quantizer's outputs to a binarized layer as
integer codes, and ``_kernels.noisy_fc_forward`` may sum such a layer by
level: one GEMM for the levels no ratio clamps, one per clamping level with
many inputs, and direct sums for the rare ones. The identity is exact; only
the summation order differs from the element-wise form, which a layer fed
by values (the toy MLP's 8 raw features) runs, input-major with the same
bits when it has few inputs.
A walk takes the batch in balanced chunks of samples (``bnn.chunks``), so
it holds one chunk's activations, and builds each conv layer's signed
table once (``_kernels.layer_table``), not once per chunk. The kernel
reads a conv layer's float inputs straight from their sliding windows, and
takes its blocks, codes patches and FC tables from a scratch workspace
that lasts across calls (``_kernels.WORKSPACE``).
An FPV sweep computes the comb's nominal transmission once, each map's
ratios for every tuning fraction in one call, and one full-tuning test of
all of a map's rows; it walks the layers once per (map, fraction), as
``noisy_inference`` does for one, and the full-tuning row once.
Layers that are not binarized are executed in the electronic control unit
and see no optical noise.

Power, area, latency, FPS and EPB have one evaluator, ``evaluate``, over a
list of configurations and a list of models (``mapping.ModelStructure``):
``power_and_epb`` (one pair, the ``simulate`` report) and ``dse.run_sweep``
(the grid) both call it. A noisy pass reads the ratios of the MRs that
``mapping.build_photonic_mapping`` places the elements on.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from . import _kernels, photonics, tuning
from .bnn import (Codes, LayerKind, QuantModel, as_batch, batch_labels,
                  exact_dot, positive_rail, to_values, walk)
# Nothing here calls quantize_activation (bnn.forward does), but
# bench/spans.py traces it at this binding.
from .bnn import quantize_activation  # noqa: F401
from .errors import DomainError, PhysicalConstraintError
from .mapping import (AcceleratorConfig, ModelStructure, PhotonicMapping,
                      build_photonic_mapping)
# Nothing here calls build_work_plan (build_photonic_mapping places slices
# by mapping.slice_arm), but bench/spans.py traces it at this binding.
from .mapping import build_work_plan  # noqa: F401
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
            if not 0 <= getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be finite and >= 0")
        if not math.isfinite(self.detector_sensitivity_dbm):
            raise DomainError("detector_sensitivity_dbm must be finite")


@dataclass(frozen=True)
class DeviceEntry:
    power_mw: float
    latency_ns: float

    def __post_init__(self):
        if not (0 <= self.power_mw < math.inf
                and 0 <= self.latency_ns < math.inf):
            raise DomainError("device power/latency must be finite and >= 0")


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
        if not 0 < self.clock_ghz < math.inf:
            raise DomainError("clock_ghz must be finite and > 0")
        if self.ecu_buffer_params < 0:
            raise DomainError("ecu_buffer_params must be >= 0")
        if self.t_del_ns is not None and not 0 <= self.t_del_ns < math.inf:
            raise DomainError("t_del_ns must be finite and >= 0")

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
            if not 0 <= getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be finite and >= 0")


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
    pipeline_steps: int
    pipeline_buffered_steps: int
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
    """One pair's latency, or a grid's as arrays (``pipeline_time``)."""

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

    The arm path crosses every MR of ``cfg.arm_banks`` (through loss), one
    of them modulating, the EO/TO tuned ring segments of every bank but the
    broadband one, the broadband filter, the arm combiner, and the waveguide
    itself; the comb additionally traverses one excess-loss splitter per 1:2
    fan-out stage. The intrinsic 1:2 power division of those stages,
    10*log10(2) dB each, is reported separately as ``fanout_db``.
    """
    mrs = cfg.mrs_per_arm
    length_cm = mrs * cfg.mr_pitch_um * 1e-4
    stages = math.ceil(math.log2(cfg.n_wg * cfg.n_vdp))
    tuned_cm = sum(n * env.designs[ring_class].circumference_nm
                   for ring_class, n in cfg.arm_banks
                   if ring_class is not RingClass.BROADBAND) * 1e-7
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

def pipeline_time(structure, cfg, env: SimulationEnvironment) -> PipelineTiming:
    """Total inference latency of a ModelStructure on an AcceleratorConfig.

    total = T_del + delta_t * X + (ECU buffering delay) * x
    X = ceil(params / (N_w * N_VDP)),   N_w = n_a * n_wg
    x = ceil(min(params, buffered params) / (N_w * N_VDP))
    delta_t = local buffer delay + vector distribution delay

    Given a sequence of structures and a sequence of configurations, it
    evaluates the equation once over the [configurations, models] grid:
    ``total_ns``, ``steps`` and ``buffered_steps`` are then arrays of that
    shape, each entry bit for bit the value of that pair alone.
    """
    grid = not isinstance(structure, ModelStructure)
    structures = structure if grid else [structure]
    cfgs = cfg if grid else [cfg]
    params = np.array([s.parameter_count for s in structures],
                      dtype=np.int64)
    per_step = np.array([c.weights_per_vdp_step * c.n_vdp for c in cfgs],
                        dtype=np.int64)[:, None]
    buffered = np.minimum(params, env.delays.ecu_buffer_params)
    steps = np.ceil(params / per_step).astype(np.int64)
    buffered_steps = np.ceil(buffered / per_step).astype(np.int64)
    cycle = env.delays.cycle_ns
    delta_t = cycle + cycle
    t_del = env.delays.resolve_t_del(env.power, env.tuning_params)
    total = t_del + delta_t * steps + cycle * buffered_steps
    if grid:
        return PipelineTiming(total, steps, buffered_steps, delta_t, t_del)
    return PipelineTiming(float(total[0, 0]), int(steps[0, 0]),
                          int(buffered_steps[0, 0]), delta_t, t_del)


# ---------------------------------------------------------------------------
# area
# ---------------------------------------------------------------------------

def mr_footprint_um2(radius_um: float, pitch_um: float) -> float:
    """Keep-out disc of one ring: pi * (R + pitch/2)^2."""
    half = radius_um + pitch_um / 2.0
    return math.pi * half * half


def area_estimate(cfg: AcceleratorConfig, env: SimulationEnvironment) -> float:
    """Chip area [mm^2]: the keep-out disc of every ring of
    ``cfg.arm_banks`` on every arm, plus block constants."""
    arms = cfg.n_vdp * cfg.n_wg
    um2 = sum(arms * n * mr_footprint_um2(env.designs[ring_class].radius_um,
                                          cfg.mr_pitch_um)
              for ring_class, n in cfg.arm_banks)
    return (um2 * 1e-6
            + cfg.n_vdp * env.area.vdp_overhead_mm2
            + cfg.n_vdp * cfg.dacs_per_vdp * env.area.dac_block_mm2
            + cfg.n_vdp * env.area.adc_block_mm2
            + env.area.global_overhead_mm2)


# ---------------------------------------------------------------------------
# FPV chip maps and tuning power
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChipFpvMap:
    """Per-MR resonance shifts for one chip instance [nm].

    ``deltas_nm[k]`` holds bank k of ``AcceleratorConfig.arm_banks`` on
    every arm, indexed by flat MR id (vdp * n_wg + arm) * n + slot, where n
    is the bank's ring count. Each bank, both weight rails included, is an
    independent ring population, drawn from its own prefix-stable stream.

    A bank may therefore hold only its first rows, and a map only its first
    banks: the head of a bank is the same whatever length was drawn. A
    reader must get every row it indexes. ``noisy_inference`` reads bank 0
    at the mapped ids; ``tuning_power_budget`` reads the first
    ``n_vdp * n_wg * n`` rows of every bank. Both check that the rows are
    there. ``evaluate`` draws one map whose banks hold the rows of its
    largest configuration (``_shared_map``), and every configuration reads
    its head: ``tuning_power_budget`` budgets all of them in one call, one
    TED solve per bank layout.
    """

    deltas_nm: tuple[np.ndarray, ...]


def _fpv_bank(env: SimulationEnvironment, seed: int, k: int,
              ring_class: RingClass, rows: int) -> np.ndarray:
    """The first ``rows`` resonance shifts of bank k of the chip drawn from
    ``seed``: one stream per bank, seeded ``seed * 4 + k``. ``rows`` = 0
    draws nothing."""
    if rows == 0:
        return np.empty(0)
    return photonics.sample_fpv_map([env.designs[ring_class]], env.fpv, rows,
                                    seed=seed * 4 + k).delta_lambdas_nm


def _shared_map(cfgs: Sequence[AcceleratorConfig],
                env: SimulationEnvironment, seed: int) -> ChipFpvMap:
    """The chip map drawn from ``seed`` that holds the rings of every
    configuration of ``cfgs``.

    Each bank is drawn once, at the largest size any configuration needs,
    and each configuration reads its head. Bank sizes are not monotone in
    n_a (the bank cap spreads a large n_a over the arms), so the largest is
    taken over all of ``cfgs``. Every arm carries the same ring classes in
    the same order.
    """
    if not cfgs:
        return ChipFpvMap(())
    return ChipFpvMap(tuple(
        _fpv_bank(env, seed, k, ring_class,
                  max(c.n_vdp * c.n_wg * c.arm_banks[k][1] for c in cfgs))
        for k, (ring_class, _) in enumerate(cfgs[0].arm_banks)))


def chip_fpv_map(cfg: AcceleratorConfig, env: SimulationEnvironment,
                 seed: int) -> ChipFpvMap:
    """Sample one FPV map for every MR of the configured array; bank k is
    drawn from seed ``seed * 4 + k``."""
    return _shared_map([cfg], env, seed)


def tuning_power_budget(cfgs: Sequence[AcceleratorConfig],
                        env: SimulationEnvironment, chip_map: ChipFpvMap,
                        tuning_fraction: float) -> list:
    """Per configuration, the (eo_mw, to_mw) that corrects
    ``tuning_fraction`` of every MR's shift, or the
    PhysicalConstraintError of its first bank that cannot be tuned.

    The configurations read one map, as those of a design sweep do; every
    bank of ``chip_map`` must hold at least each configuration's rings, and
    only that head is read. EO corrections are summed per MR and TO
    remainders are solved collectively (TED). Each bank is folded and split
    (``tuning.fold_and_split``) once, on the longest head any configuration
    reads. The banks with n rings per arm at one pitch share a layout, and
    the longest head of each that any configuration reads is TED-solved
    (``tuning.ted_drives``) in one call per layout. A configuration's
    power sums a contiguous prefix of each bank's rows; the drives of a
    prefix are the prefix of the drives, so a configuration gets the bits a
    list of it alone gives.
    """
    heads: dict[tuple, set] = {}       # the arms read of each group
    reads: dict[int, set] = {}         # the rings read of each bank
    classes = {}                       # the ring class of each bank
    for c in cfgs:
        arms = c.n_vdp * c.n_wg
        if len(chip_map.deltas_nm) != len(c.arm_banks):
            raise DomainError(f"chip map holds {len(chip_map.deltas_nm)} "
                              f"banks, an arm carries {len(c.arm_banks)}")
        for k, (ring_class, n) in enumerate(c.arm_banks):
            if chip_map.deltas_nm[k].size < arms * n:
                raise DomainError(
                    f"chip map bank of {chip_map.deltas_nm[k].size} rings, "
                    f"the configuration has {arms * n}")
            classes[k] = ring_class
            heads.setdefault((k, n, c.mr_pitch_um), set()).add(arms)
            reads.setdefault(k, set()).add(arms * n)
    params = {k: replace(env.tuning_params, fsr_nm=env.designs[rc].fsr_nm)
              for k, rc in classes.items()}
    # the EO power of each (bank, rings read) and the TO remainders of each
    # bank; the EO shifts are summed and dropped before any solve
    eo_mw, to = {}, {}
    for k, read in reads.items():
        eo, to[k] = tuning.fold_and_split(chip_map.deltas_nm[k][:max(read)],
                                          tuning_fraction, params[k])
        eo_mw.update(((k, r), float(np.sum(eo[:r]))
                      * params[k].eo_power_uw_per_nm * 1e-3) for r in read)
    layouts: dict[tuple, list] = {}    # the banks of each (n, pitch)
    for k, n, pitch in heads:
        layouts.setdefault((n, pitch), []).append(k)
    # the TO power of each (group, arms) read, or the error of its layout;
    # each layout's drives are summed and dropped before the next solve
    to_mw = {}
    for (n, pitch), banks in layouts.items():
        longest = [max(heads[k, n, pitch]) for k in banks]
        try:
            s = tuning.ted_drives([to[k][:a * n].reshape(a, n)
                                   for k, a in zip(banks, longest)],
                                  pitch, env.tuning_params)
        except PhysicalConstraintError as exc:
            to_mw.update(((k, n, pitch, a), exc)
                         for k in banks for a in heads[k, n, pitch])
            continue
        np.abs(s, out=s)
        first = 0                      # the first row of bank k in s
        for k, a_max in zip(banks, longest):
            to_mw.update(((k, n, pitch, a),
                          float(np.sum(s[first:first + a]))
                          / params[k].heater_efficiency_nm_per_mw)
                         for a in heads[k, n, pitch])
            first += a_max
    results = []
    for c in cfgs:
        arms = c.n_vdp * c.n_wg
        eo_total = to_total = 0.0
        for k, (_, n) in enumerate(c.arm_banks):
            p = to_mw[k, n, c.mr_pitch_um, arms]
            if isinstance(p, PhysicalConstraintError):
                results.append(p)
                break
            eo_total += eo_mw[k, arms * n]
            to_total += p
        else:
            results.append((eo_total, to_total))
    return results


# ---------------------------------------------------------------------------
# noisy photonic inference
# ---------------------------------------------------------------------------

def _nominal_transmission(design: MrDesign, lam: np.ndarray) -> np.ndarray:
    """T(lambda_s; lambda_s), each MR on resonance at its signal wavelength:
    the denominator of ``_perturbation_ratios``. It depends on the comb
    alone, so an FPV sweep computes it once."""
    return np.asarray(photonics.transmission(design, lam, lam))


def _perturbation_ratios(design: MrDesign, lam: np.ndarray,
                         deltas_nm: np.ndarray, residuals,
                         nominal: np.ndarray | None = None) -> np.ndarray:
    """rho = T(lambda_s; lambda_s + residual*delta) / T(lambda_s; lambda_s).

    ``lam`` and ``deltas_nm`` give each MR's signal wavelength and FPV shift.
    One residual gives one ratio per MR; a vector of F residuals gives
    [F, MRs] ratios, row j equal to the call with ``residuals[j]`` bit for
    bit. ``nominal`` is ``_nominal_transmission(design, lam)``, computed
    when not given.
    """
    if nominal is None:
        nominal = _nominal_transmission(design, lam)
    shifted = photonics.transmission(
        design, lam, lam + np.multiply.outer(residuals, deltas_nm))
    return np.asarray(shifted) / nominal


def _read_ids(model: QuantModel, mapping: PhotonicMapping) -> np.ndarray:
    """The mapped activation MR ids whose FPV shifts inference reads: all
    of them, or none when no layer is binarized (only those run
    optically)."""
    if any(layer.binarized for layer in model.layers):
        return mapping.mr_ids
    return mapping.mr_ids[:0]


def _read_map(env: SimulationEnvironment, ids: np.ndarray,
              seed: int) -> ChipFpvMap:
    """The head of ``seed``'s chip map that holds ``ids``: bank 0 of
    ``arm_banks`` (the activation MRs), up to the largest of the sorted
    ``ids``."""
    rows = int(ids[-1]) + 1 if ids.size else 0
    return ChipFpvMap((_fpv_bank(env, seed, 0, RingClass.MULTI_BIT, rows),))


def _dual_rail(layer) -> tuple[np.ndarray, np.ndarray]:
    """(w_pos, w_neg), the rail occupancies of a binarized layer, each
    [out, in] in {0, 1}: int8 views of the sign test, with no float
    sign(W) built. A finite weight sits on exactly one rail."""
    pos = positive_rail(layer.weights.reshape(layer.weights.shape[0], -1))
    return pos.view(np.int8), (~pos).view(np.int8)


def _photonic_logits(model: QuantModel, batch: np.ndarray,
                     mapping: PhotonicMapping, rho_act: np.ndarray,
                     rails: dict, ideal: bool) -> np.ndarray:
    """Logits of ``batch`` through the photonic array whose mapped
    activation MRs have the ratios ``rho_act``: ``bnn.walk`` with the
    binarized layers' dot products on ``_kernels.noisy_fc_forward``, which
    gets a quantizer's codes as the walk carries them. A conv layer's
    ``_kernels.layer_table`` is built when the first part of the batch
    reaches it and serves every part; an FC layer, which the walk calls
    once per chunk, builds its own per call, so that its table is not held
    while the convs walk the next chunk. The kernel's scratch comes from
    ``_kernels.WORKSPACE`` in a conv layer's frame (see ``bnn.forward``)
    and in one an FC layer opens for its table, unless that table is under
    ``_kernels.SMALL_BYTES``: a small layer allocates as usual. The kernel
    reads a conv layer's float inputs straight from their sliding windows
    (``_kernels.Windows``), with no patches copied. ``rails`` maps layer
    indices to their ``_dual_rail``, and a layer it lacks gets its rails
    built then. ``ideal`` says that every ratio is exactly 1."""
    tables = {}

    def photonic_dot(li, layer, v):
        if not layer.binarized:
            if isinstance(v, _kernels.Windows):
                v = v.patches()
            return exact_dot(li, layer, v)
        if ideal:
            # clip(v * 1) * rail summed is clip(v) @ sign(W). Values in
            # [0, 1] need no clamp; others are clamped in place only in the
            # array to_values made, never in the batch or a dot's result
            vals = to_values(v)
            if not (0.0 <= vals.min(initial=0.0)
                    and vals.max(initial=0.0) <= 1.0):    # a NaN fails both
                vals = np.clip(vals, 0.0, 1.0,
                               out=None if vals is v else vals)
            return exact_dot(li, layer, vals)
        if li in tables:
            return noisy(v, *tables[li])
        w_pos, w_neg = rails[li] if li in rails else _dual_rail(layer)
        if layer.kind is LayerKind.CONV2D:
            tables[li] = w_pos, w_neg, _kernels.layer_table(
                w_pos, w_neg, rho_act[mapping.mr_index[li]])
            return noisy(v, *tables[li])
        if 8 * w_pos.size < _kernels.SMALL_BYTES:     # too small to lend
            return noisy(v, w_pos, w_neg, _kernels.layer_table(
                w_pos, w_neg, rho_act[mapping.mr_index[li]]))
        with _kernels.WORKSPACE:
            return noisy(v, w_pos, w_neg, _kernels.layer_table(
                w_pos, w_neg, rho_act[mapping.mr_index[li]],
                _kernels.WORKSPACE.take(w_pos.shape)))

    def noisy(v, w_pos, w_neg, table):
        acts, levels = ((v.codes, v.levels) if isinstance(v, Codes)
                        else (v, None))
        if not isinstance(acts, _kernels.Windows):
            acts = acts.reshape(-1, acts.shape[-1])
        out = _kernels.noisy_fc_forward(acts, w_pos, w_neg, table,
                                        levels=levels)
        return out.reshape(*v.shape[:-1], -1)

    photonic_dot.windows = not ideal    # the noisy kernel reads windows
    return walk(model, batch, photonic_dot, folded=True)


def _check_fraction(tuning_fraction) -> None:
    if not (0.0 <= tuning_fraction <= 1.0):
        raise DomainError("tuning_fraction must be in [0, 1]")


def _accuracy(predictions: np.ndarray, labels: np.ndarray | None) -> float:
    """The share of the [n] ``predictions`` equal to ``labels``, or NaN
    without labels. The count of matches is an exact integer, so its one
    division gives the bits of ``np.mean`` over the matches."""
    if labels is None:
        return float("nan")
    return float(np.count_nonzero(predictions == labels) / predictions.size)


@dataclass(frozen=True)
class NoisyInferenceResult:
    """Shaped as ``bnn.reference_inference`` returns: [n, out] logits and
    [n] classes, or [out] logits and an int class for one unbatched
    sample."""

    accuracy: float
    logits: np.ndarray
    predictions: np.ndarray | int


def noisy_inference(model: QuantModel, x, y, cfg: AcceleratorConfig,
                    env: SimulationEnvironment, tuning_fraction: float,
                    seed: int,
                    chip_map: ChipFpvMap | None = None) -> NoisyInferenceResult:
    """Forward pass through the FPV-perturbed photonic array.

    Binarized layers run optically: activations are scaled by their MR's
    transmission ratio and clamped to [0, 1]; the {0, 1} dual-rail weights
    pass unchanged (see the module docstring). Batch norm is always folded:
    the broadband C_fold gain scales the partial sums after the following
    nonlinearity. Non-binarized layers, nonlinearities, quantization and
    pooling run exactly in the ECU, through the same layer walk as
    ``bnn.reference_inference``. ``tuning_fraction`` = 1 reproduces the
    folded reference forward pass (ratios are identically 1, and binarized
    layers run ``bnn.exact_dot`` on the clamped inputs). Without
    ``chip_map``, only the FPV shifts it reads are drawn from ``seed``'s
    chip map.
    """
    _check_fraction(tuning_fraction)
    batch, single = as_batch(x)
    labels = None if y is None else batch_labels(y, len(batch), single)
    mapping = build_photonic_mapping(model, cfg)
    ids = _read_ids(model, mapping)
    if chip_map is None:
        chip_map = _read_map(env, ids, seed)
    elif ids.size and chip_map.deltas_nm[0].size <= ids[-1]:
        raise DomainError(f"chip map activation bank of "
                          f"{chip_map.deltas_nm[0].size} rings, the mapping "
                          f"reads MR {ids[-1]}")
    # ratios of the activation MRs (bank 0 of arm_banks) the mapping uses
    rho_act = _perturbation_ratios(
        env.designs[RingClass.MULTI_BIT], mapping.lambda_nm[:ids.size],
        chip_map.deltas_nm[0][ids], 1.0 - tuning_fraction)
    logits = _photonic_logits(model, batch, mapping, rho_act, {},
                              bool(np.all(rho_act == 1.0)))
    predictions = np.argmax(logits, axis=1)
    acc = _accuracy(predictions, labels)
    if single:
        return NoisyInferenceResult(acc, logits[0], int(predictions[0]))
    return NoisyInferenceResult(acc, logits, predictions)


def fpv_accuracy_sweep(model: QuantModel, x, y, cfg: AcceleratorConfig,
                       env: SimulationEnvironment,
                       fractions: Sequence[float], n_maps: int,
                       base_seed: int) -> list[tuple[float, float, float]]:
    """(fraction, mean accuracy, std accuracy) over seeded FPV maps.

    Each accuracy is the one ``noisy_inference`` gives for that fraction
    and map, bit for bit. The nominal transmission of the comb is computed
    once per sweep. Per map, the ratios of every fraction come from one
    ``_perturbation_ratios`` call, one test finds the rows whose ratios are
    all exactly 1 (full tuning), and each fraction walks the layers on its
    own row. A full-tuning row does not read the map, so it is walked once
    per sweep.
    """
    if n_maps < 1:
        raise DomainError("n_maps must be >= 1")
    for f in fractions:
        _check_fraction(f)
    batch, single = as_batch(x)
    labels = None if y is None else batch_labels(y, len(batch), single)
    mapping = build_photonic_mapping(model, cfg)
    ids = _read_ids(model, mapping)
    rails = {li: _dual_rail(layer) for li, layer in enumerate(model.layers)
             if layer.binarized}
    residuals = 1.0 - np.asarray(fractions, dtype=np.float64)
    design = env.designs[RingClass.MULTI_BIT]
    lam = mapping.lambda_nm[:ids.size]
    nominal = _nominal_transmission(design, lam)
    # maps outside fractions, so one chip map is alive at a time
    accs = [[] for _ in fractions]
    # a row of ratios all 1 walks exact_dot on the clamped batch, whatever
    # the map, so its accuracy is computed once
    ideal_acc = None
    for i in range(n_maps):
        chip_map = _read_map(env, ids, base_seed + i)
        rho = _perturbation_ratios(design, lam, chip_map.deltas_nm[0][ids],
                                   residuals, nominal)
        for rho_act, ideal, per_map in zip(rho, (rho == 1.0).all(axis=1),
                                           accs):
            if ideal and ideal_acc is not None:
                per_map.append(ideal_acc)
                continue
            logits = _photonic_logits(model, batch, mapping, rho_act,
                                      rails, ideal)
            per_map.append(_accuracy(np.argmax(logits, axis=1), labels))
            if ideal:
                ideal_acc = per_map[-1]
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
class Evaluation:
    """What ``evaluate`` gives for a list of configurations and of models.

    ``tuned`` holds, in input order, the index of each configuration that
    could be tuned, and ``errors`` the (index, error) of each that could
    not. Row i of every other field is configuration ``tuned[i]``; the
    arrays are [tuned configurations, models], with NaN EPB for a model of
    no bits.
    """

    tuned: tuple[int, ...]
    errors: tuple[tuple[int, PhysicalConstraintError], ...]
    power_breakdown_mw: tuple[dict[str, float], ...]
    power_mw: tuple[float, ...]
    area_mm2: tuple[float, ...]
    timing: PipelineTiming
    fps: np.ndarray
    epb_pj_per_bit: np.ndarray


def evaluate(cfgs: Sequence[AcceleratorConfig],
             structures: Sequence[ModelStructure],
             env: SimulationEnvironment, tuning_fraction: float,
             seed: int = 0, chip_map: ChipFpvMap | None = None) -> Evaluation:
    """Power, area, latency, FPS and EPB of every validated configuration
    of ``cfgs`` on every model of ``structures``, with ``tuning_fraction``
    of every MR's FPV shift corrected.

    The configurations read one chip map, drawn from ``seed`` unless given
    (``_shared_map``), and their tuning power is one
    ``tuning_power_budget`` call. Each tuned configuration's power
    breakdown and area are built once, whatever the number of models, and
    ``pipeline_time`` evaluates the latency of the [configurations, models]
    grid in one call. Every value is, bit for bit, what a call with that
    configuration and that model alone gives.
    """
    if chip_map is None:
        chip_map = _shared_map(cfgs, env, seed)
    tuning_mw = tuning_power_budget(cfgs, env, chip_map, tuning_fraction)
    tuned, errors, breakdowns, areas = [], [], [], []
    p = env.power
    for i, (cfg, tuned_mw) in enumerate(zip(cfgs, tuning_mw)):
        if isinstance(tuned_mw, PhysicalConstraintError):
            errors.append((i, tuned_mw))
            continue
        tuned.append(i)
        eo_mw, to_mw = tuned_mw
        loss = loss_accounting(cfg, env)
        laser = laser_power(cfg.n_lambda, loss.total_db,
                            env.loss.detector_sensitivity_dbm)
        breakdowns.append({
            "laser": laser.mw,
            "to_tuning": to_mw,
            "eo_tuning": eo_mw,
            "dac": cfg.dacs_per_vdp * cfg.n_vdp * p.dac.power_mw,
            "adc": cfg.n_vdp * p.adc.power_mw,
            "pd": (cfg.n_wg + 1) * cfg.n_vdp * p.photodetector.power_mw,
            "tia": (cfg.n_wg + 1) * cfg.n_vdp * p.tia.power_mw,
            "vcsel": cfg.n_vdp * cfg.n_wg * p.vcsel.power_mw,
        })
        areas.append(area_estimate(cfg, env))
    power = [sum(b.values()) for b in breakdowns]
    timing = pipeline_time(structures, [cfgs[i] for i in tuned], env)
    bits = np.array([s.total_bits for s in structures], dtype=np.float64)
    epb = (np.array(power, dtype=np.float64)[:, None] * timing.total_ns
           / np.where(bits > 0, bits, np.nan))
    return Evaluation(tuple(tuned), tuple(errors), tuple(breakdowns),
                      tuple(power), tuple(areas), timing,
                      1e9 / timing.total_ns, epb)


def power_and_epb(model, cfg: AcceleratorConfig, env: SimulationEnvironment,
                  tuning_fraction: float = 0.8, seed: int = 0,
                  noisy_accuracy: float | None = None,
                  chip_map: ChipFpvMap | None = None) -> SimReport:
    """Full power/performance report for a model on a configuration: the
    one-pair case of ``evaluate``.

    ``model`` is a ModelStructure, or a QuantModel taken as its
    ``ModelStructure.from_model``. The chip map is drawn from ``seed``
    unless given.
    """
    cfg.validate()
    structure = (ModelStructure.from_model(model)
                 if isinstance(model, QuantModel) else model)
    ev = evaluate([cfg], [structure], env, tuning_fraction, seed, chip_map)
    if ev.errors:
        raise ev.errors[0][1]
    return SimReport(
        fps=float(ev.fps[0, 0]), total_power_mw=ev.power_mw[0],
        power_breakdown_mw=ev.power_breakdown_mw[0],
        epb_pj_per_bit=(float(ev.epb_pj_per_bit[0, 0])
                        if structure.total_bits else None),
        area_mm2=ev.area_mm2[0],
        inference_time_ns=float(ev.timing.total_ns[0, 0]),
        pipeline_steps=int(ev.timing.steps[0, 0]),
        pipeline_buffered_steps=int(ev.timing.buffered_steps[0, 0]),
        noisy_accuracy=noisy_accuracy,
        required_bandwidth_gb_s=required_bandwidth_gb_s(
            cfg, env, structure.activation_bits))
