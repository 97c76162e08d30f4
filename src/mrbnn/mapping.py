"""Mapping of CONV/FC layers onto vector-dot-product (VDP) units.

Every output element of a layer is a dot product; dot products are split
into sub-vectors of at most ``n_a`` elements, summed by per-arm
photodetectors and then across arms. ``chunks_per_row`` is the one slicing
rule: the work plan, the MR mapping (``simulator.build_photonic_mapping``)
and ``decompose_fc`` / ``decompose_conv`` cut weight rows by it, a model's
rows being those ``QuantModel.shapes`` lists. ``slice_arm`` is the one slot
rule: the slices of a layer go round-robin over (VDP unit, arm), and the
plan and the MR mapping place them by it. The same wavelength comb is reused
by every arm, so the unique wavelength count equals the per-arm activation
MR count, independent of the number of arms and VDP units.

Two readings of ``n_a`` coexist deliberately: throughput equations use
``n_a * n_wg`` weights per VDP per step, while physical per-arm MR counts
are capped at the bank limit (n_a distributed over arms when it exceeds the
cap). Both are exposed as distinct properties. ``arm_banks`` is the one
statement of the rings an arm carries; every physical count derives from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bnn import QuantModel, im2col
from .errors import DomainError, PhysicalConstraintError
from .photonics import RingClass


@dataclass(frozen=True)
class AcceleratorConfig:
    """VDP array geometry: (N_A, N_VDP, N_WG) plus layout constants."""

    n_a: int
    n_vdp: int
    n_wg: int
    n_b: int = 1
    mrs_per_bank_max: int = 15
    channel_spacing_nm: float = 1.0
    center_wavelength_nm: float = 1550.0
    mr_pitch_um: float = 5.0
    passband_nm: float = 20.0

    def __post_init__(self):
        for name in ("n_a", "n_vdp", "n_wg", "n_b"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be >= 1")
        for name in ("channel_spacing_nm", "center_wavelength_nm",
                     "mr_pitch_um", "passband_nm"):
            if not 0 < getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be finite and > 0")

    # -- throughput-side quantities (pipeline equations) --

    @property
    def weights_per_vdp_step(self) -> int:
        """N_w of the pipeline equations: weights a VDP retires per step."""
        return self.n_a * self.n_wg

    @property
    def dacs_per_vdp(self) -> int:
        """One shared (ping-pong buffered) DAC array of N_A converters."""
        return self.n_a

    # -- physical-side quantities (device counts, wavelengths) --

    @property
    def arm_activation_mrs(self) -> int:
        """Activation MRs physically present on one arm.

        n_a when it respects the bank cap, otherwise n_a spread over arms.
        """
        if self.n_a <= self.mrs_per_bank_max:
            return self.n_a
        return math.ceil(self.n_a / self.n_wg)

    @cached_property
    def arm_banks(self) -> tuple[tuple[RingClass, int], ...]:
        """What one arm carries: (ring class, rings per arm) of each bank.

        In order: the activation bank, the positive and the negative weight
        rail (each rail of a dual-rail binary weight on its own single-bit
        ring, one per activation slot) and the broadband filter. Kept after
        the first read: a sweep reads it hundreds of times per pass.
        """
        slots = self.arm_activation_mrs
        return ((RingClass.MULTI_BIT, slots), (RingClass.SINGLE_BIT, slots),
                (RingClass.SINGLE_BIT, slots), (RingClass.BROADBAND, self.n_b))

    @property
    def mrs_per_arm(self) -> int:
        return sum(n for _, n in self.arm_banks)

    @property
    def total_mrs(self) -> int:
        return self.n_vdp * self.n_wg * self.mrs_per_arm

    @property
    def n_lambda(self) -> int:
        """Unique wavelengths after reuse across arms and VDP units."""
        return self.arm_activation_mrs

    def validate(self):
        """Physical feasibility checks (raise PhysicalConstraintError)."""
        comb = self.arm_activation_mrs
        if comb * self.channel_spacing_nm > self.passband_nm:
            raise PhysicalConstraintError(
                f"comb of {comb} channels x {self.channel_spacing_nm} nm "
                f"exceeds the {self.passband_nm} nm broadband passband")
        if comb > self.mrs_per_bank_max:
            raise PhysicalConstraintError(
                f"{comb} MRs per bank exceeds the "
                f"{self.mrs_per_bank_max}-MR bank limit")
        return self


# ---------------------------------------------------------------------------
# dot-product decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DotDecomposition:
    """One output element's dot product split into sub-vector pairs.

    Partial sums are reduced in ascending slice order (fixed for
    determinism): per-slice photodetector sums first, then their total.
    """

    output_index: tuple[int, ...]
    weight_slices: tuple[np.ndarray, ...]
    activation_slices: tuple[np.ndarray, ...]

    def partial_sums(self) -> list[float]:
        return [float(np.dot(w, a)) for w, a in
                zip(self.weight_slices, self.activation_slices)]

    def reconstruct(self) -> float:
        total = 0.0
        for ps in self.partial_sums():
            total += ps
        return total


def chunks_per_row(n_in: int, n_a: int) -> int:
    """The slicing rule: a row of ``n_in`` elements takes ceil(n_in / n_a)
    slices of at most ``n_a`` elements, slice c starting at c * n_a."""
    return -(-n_in // n_a)


def _decompose(w: np.ndarray, vectors: np.ndarray, grid: tuple[int, ...],
               granularity: int) -> list[DotDecomposition]:
    """Pair every weight row of ``w`` [out, in] with every activation
    vector (one per point of ``grid``), both cut into ``chunks_per_row``
    slices at n_a = ``granularity``."""
    if granularity < 1:
        raise DomainError("granularity must be >= 1")
    cuts = granularity * np.arange(1, chunks_per_row(w.shape[1], granularity))
    return [DotDecomposition((r, *pos), tuple(np.split(row, cuts)),
                             tuple(np.split(vec, cuts)))
            for r, row in enumerate(w)
            for pos, vec in zip(np.ndindex(*grid), vectors)]


def decompose_fc(weights, activations, granularity: int) -> list[DotDecomposition]:
    """Split a matrix-vector product into per-row sub-vector dot products."""
    w = np.asarray(weights, dtype=np.float64)
    a = np.asarray(activations, dtype=np.float64)
    if w.ndim != 2 or a.ndim != 1 or w.shape[1] != a.size:
        raise DomainError("weights must be [out, in] matching activations")
    return _decompose(w, a[None], (), granularity)


def decompose_conv(kernel, activations, granularity: int,
                   stride: int = 1) -> list[DotDecomposition]:
    """Split a valid-padding convolution into patch dot products.

    ``kernel`` is [kh, kw] or [out_c, in_c, kh, kw]; ``activations`` is the
    matching [h, w] or [in_c, h, w] input. Each output element (oc, oy, ox)
    becomes one decomposed dot product over its ``bnn.im2col`` patch.
    """
    k = np.asarray(kernel, dtype=np.float64)
    x = np.asarray(activations, dtype=np.float64)
    if k.ndim == 2:
        k = k[None, None]
    if x.ndim == 2:
        x = x[None]
    if k.ndim != 4 or x.ndim != 3 or k.shape[1] != x.shape[0]:
        raise DomainError("kernel/activation ranks or channels do not match")
    if k.size == 0:
        raise DomainError("kernel must not be empty")
    cols, oh, ow = im2col(x[None], k.shape[2], k.shape[3], stride)
    return _decompose(k.reshape(k.shape[0], -1), cols[0], (oh, ow),
                      granularity)


# ---------------------------------------------------------------------------
# work plan
# ---------------------------------------------------------------------------

SLICE_DTYPE = np.dtype([
    ("layer", np.int64),     # index of the weighted layer in the model
    ("output", np.int64),    # flattened output element (FC row / out chan)
    ("chunk", np.int64),     # position of this slice within its vector
    ("offset", np.int64),    # start offset within the flattened vector
    ("length", np.int64),
    ("vdp", np.int64),
    ("arm", np.int64),
    ("step", np.int64),
    ("c_fold", np.float64),
])


@dataclass(frozen=True)
class WorkPlan:
    """Every weight sub-vector scheduled on (vdp, arm) at a step.

    ``slices`` has one ``SLICE_DTYPE`` row per slice, in schedule order.
    """

    slices: np.ndarray
    steps_per_layer: tuple[int, ...]
    cfg: AcceleratorConfig

    @property
    def total_steps(self) -> int:
        return sum(self.steps_per_layer)

    def dump(self) -> str:
        cols = [self.slices[name].tolist() for name in
                ("layer", "output", "chunk", "vdp", "arm", "step", "length",
                 "c_fold")]
        lines = ["layer output chunk vdp arm step len c_fold"]
        lines += [f"{li} {out} {chunk} {vdp} {arm} {step} {n} {c_fold:.9g}"
                  for li, out, chunk, vdp, arm, step, n, c_fold
                  in zip(*cols)]
        return "\n".join(lines) + "\n"


def slice_arm(k, cfg: AcceleratorConfig, out=None) -> np.ndarray:
    """The slot rule: slice ``k`` of a layer, numbered row by row
    (``row * chunks + chunk``), fills slot ``k % (n_vdp * n_wg)`` of step
    ``k // (n_vdp * n_wg)``. The slot is the flat arm id ``vdp * n_wg +
    arm``. ``out`` may be ``k`` itself."""
    return np.remainder(k, cfg.n_vdp * cfg.n_wg, out=out)


def build_work_plan(model: QuantModel, cfg: AcceleratorConfig) -> WorkPlan:
    """Slice every weighted layer and schedule round-robin over the array.

    Slice k of a layer fills the slot ``slice_arm`` gives it, slot s being
    VDP ``s // n_wg``, arm ``s % n_wg``. Each weight element appears in
    exactly one slice; slice length never exceeds ``n_a``. ``c_fold`` is
    the output's folded BN gain (``QuantModel.fold_gains``), 1 where no BN
    follows the layer.
    """
    slots_per_step = cfg.n_vdp * cfg.n_wg
    gains = model.fold_gains()
    parts = [np.zeros(0, SLICE_DTYPE)]
    steps: list[int] = []
    for li, rows, size in model.shapes:
        chunks = chunks_per_row(size, cfg.n_a)
        k = np.arange(rows * chunks)
        slot = slice_arm(k, cfg)
        part = np.zeros(k.size, SLICE_DTYPE)
        part["layer"] = li
        part["output"] = k // chunks
        part["chunk"] = k % chunks
        part["offset"] = part["chunk"] * cfg.n_a
        part["length"] = np.minimum(cfg.n_a, size - part["offset"])
        part["vdp"] = slot // cfg.n_wg
        part["arm"] = slot % cfg.n_wg
        part["step"] = k // slots_per_step
        part["c_fold"] = gains[li][part["output"]] if li in gains else 1.0
        parts.append(part)
        steps.append(math.ceil(k.size / slots_per_step))
    return WorkPlan(np.concatenate(parts), tuple(steps), cfg)


# ---------------------------------------------------------------------------
# wavelength reuse
# ---------------------------------------------------------------------------

def build_comb(count: int, spacing_nm: float, center_nm: float,
               passband_nm: float) -> tuple[float, ...]:
    """Wavelength comb centred on ``center_nm``; errors past the passband."""
    if count < 1:
        raise DomainError("comb needs at least one channel")
    if count * spacing_nm > passband_nm:
        raise PhysicalConstraintError(
            f"{count} channels x {spacing_nm} nm exceed the "
            f"{passband_nm} nm passband")
    return tuple(center_nm + (i - (count - 1) / 2.0) * spacing_nm
                 for i in range(count))


# ---------------------------------------------------------------------------
# structure-only models (design-space workloads)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelStructure:
    """Parameter-count skeleton of a network, enough for pipeline/power math."""

    name: str
    layer_parameter_counts: tuple[int, ...]
    activation_bits: int = 4

    @property
    def parameter_count(self) -> int:
        return int(sum(self.layer_parameter_counts))

    @property
    def total_bits(self) -> int:
        """Bits moved per inference: each MAC operand pair moves one weight
        bit plus activation bits."""
        return self.parameter_count * (1 + self.activation_bits)

    @classmethod
    def from_model(cls, model: QuantModel, name: str = "model") -> "ModelStructure":
        counts = tuple(s.n_out * s.n_in for s in model.shapes)
        return cls(name, counts, activation_bits=model.activation_bits)
