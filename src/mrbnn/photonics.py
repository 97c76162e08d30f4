"""Closed-form microring resonator device math.

Implements the all-pass transmission model, linewidth/Q relations,
inter-channel crosstalk, achievable bit resolution, geometry sensitivity
slopes, and fabrication-process-variation (FPV) resonance-shift sampling.

Theory summary
--------------
Through-port power transmission of an all-pass ring:

    T(phi) = (a^2 - 2*r*a*cos(phi) + r^2) / (1 - 2*r*a*cos(phi) + (r*a)^2)

with r the self-coupling coefficient, a the single-pass amplitude
transmission and phi = beta * L the round-trip phase. The resonance comb is
pinned by the integer mode order m = round(n_eff * L / lambda_res): for a
ring resonant at lambda_res the phase seen by a signal at lambda_s is
phi = 2*pi*m*lambda_res/lambda_s, which is exactly 2*pi*m on resonance.

Linewidth and quality factor:

    FWHM = (1 - r*a) * lambda^2 / (pi * n_g * L * sqrt(r*a)),   Q = lambda/FWHM

Crosstalk from channel j into channel i:

    phi(i, j) = delta^2 / ((lambda_i - lambda_j)^2 + delta^2),
    delta = lambda_i / (2 Q)

FPV resonance shift (sensitivity slopes are absolute values, deviations are
signed):

    dlambda = s_w * dw + s_t * dt + s_R * dR
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from . import _kernels
from .errors import DegenerateResonatorError, DomainError


class RingClass(Enum):
    """The three heterogeneous ring roles used by the accelerator."""

    MULTI_BIT = "multi_bit"      # activation imprinting, moderate Q
    SINGLE_BIT = "single_bit"    # weight on/off switching, high Q
    BROADBAND = "broadband"      # batch-norm gain scaling, flat passband


@dataclass(frozen=True)
class MrDesign:
    """Geometry and coupling parameters of one microring class.

    A design is the config node of one ``device_classes`` entry. It stores
    only what the device math reads: the quality factor follows from r and
    a (``fwhm_and_q``), and the coupler is taken to be lossless, so the
    cross-coupling is kappa = sqrt(1 - r^2).

    Parameters
    ----------
    radius_um : float
        Ring radius [um].
    resonant_wavelength_nm : float
        Design resonance lambda_MR [nm].
    self_coupling_r : float
        Self-coupling coefficient of the lossless coupler, 0 < r < 1.
    amplitude_a : float
        Single-pass amplitude transmission, 0 < a <= 1.
    group_index_ng, effective_index_neff : float
        Group and effective indices of the circulating mode.
    slopes_nm_per_nm : (float, float, float)
        |dlambda/dw|, |dlambda/dt|, |dlambda/dR| in nm/nm.
    """

    radius_um: float
    resonant_wavelength_nm: float
    self_coupling_r: float
    amplitude_a: float
    group_index_ng: float
    effective_index_neff: float
    slopes_nm_per_nm: tuple[float, float, float]

    def __post_init__(self):
        for name in ("radius_um", "resonant_wavelength_nm", "group_index_ng",
                     "effective_index_neff"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise DomainError(f"{name} must be finite and > 0, "
                                  f"got {value}")
        if not (0 < self.amplitude_a <= 1):
            raise DomainError(f"amplitude a must be in (0, 1], got {self.amplitude_a}")
        if not (0 < self.self_coupling_r < 1):
            raise DomainError(f"self-coupling r must be in (0, 1), got {self.self_coupling_r}")
        if not all(s >= 0 for s in self.slopes_nm_per_nm):
            raise DomainError("sensitivity slopes are magnitudes, must be >= 0")

    @property
    def circumference_nm(self) -> float:
        """Round-trip length L = 2*pi*R [nm] (derived, never stored)."""
        return 2.0 * math.pi * self.radius_um * 1000.0

    @property
    def mode_order(self) -> int:
        """Integer number of wavelengths fitting L at the design resonance."""
        m = round(self.effective_index_neff * self.circumference_nm
                  / self.resonant_wavelength_nm)
        return max(m, 1)

    @property
    def fsr_nm(self) -> float:
        """Free spectral range lambda^2 / (n_g * L) [nm]."""
        return (self.resonant_wavelength_nm ** 2
                / (self.group_index_ng * self.circumference_nm))


@dataclass(frozen=True)
class FpvStatistics:
    """Gaussian FPV statistics: per-dimension mean and standard deviation.

    ``seed`` only serves ``sample_fpv_map`` calls given none; it is not a
    config key (see ``config``)."""

    mean_nm: tuple[float, float, float] = (0.0, 0.0, 0.0)
    sigma_nm: tuple[float, float, float] = (4.9, 1.5, 0.75)
    seed: int = field(default=0, metadata={"derived": True})

    def __post_init__(self):
        if any(s < 0 for s in self.sigma_nm):
            raise DomainError("sigma components must be >= 0")
        if self.seed < 0:
            raise DomainError("seed must be >= 0")


@dataclass(frozen=True)
class FpvMap:
    """A population of FPV samples (design-major order) plus summary stats.

    ``deviations_nm`` is ``[n, 3]`` (dw, dt, dR) and ``delta_lambdas_nm``
    the ``[n]`` resonance shifts they cause.
    """

    deviations_nm: np.ndarray
    delta_lambdas_nm: np.ndarray
    delta_mean_nm: float
    delta_std_nm: float


# ---------------------------------------------------------------------------
# transmission
# ---------------------------------------------------------------------------

def transmission_from_phase(cos_phi, r: float, a: float):
    """All-pass transmission as a function of cos(round-trip phase)."""
    return _kernels.all_pass_transmission(cos_phi, r, a)


def transmission(design: MrDesign, signal_wavelength_nm,
                 shifted_resonance_nm):
    """Through-port transmission of `design` for a signal wavelength.

    The ring is taken to be resonant exactly at ``shifted_resonance_nm``:
    the effective index is rescaled so the design's integer mode order m
    fits that wavelength, giving round-trip phase
    phi = 2*pi*m*shifted_resonance/signal.

    Either argument may be an ndarray (broadcast together).

    Returns
    -------
    float or ndarray in [0, 1].
    """
    sig = np.asarray(signal_wavelength_nm, dtype=np.float64)
    res = np.asarray(shifted_resonance_nm, dtype=np.float64)
    if not (np.all(np.isfinite(sig)) and np.all(np.isfinite(res))):
        raise DomainError("wavelengths must be finite")
    if np.any(sig <= 0):
        raise DomainError("signal wavelength must be positive")
    m = design.mode_order
    cos_phi = np.cos(2.0 * math.pi * m * res / sig)
    out = transmission_from_phase(cos_phi, design.self_coupling_r,
                                  design.amplitude_a)
    if np.ndim(out) == 0:
        return float(out)
    return out


def fwhm_and_q(design: MrDesign) -> tuple[float, float]:
    """Resonance linewidth (FWHM, nm) and quality factor of a design.

    Raises
    ------
    DegenerateResonatorError
        If r*a >= 1 (no energy leaves the ring; linewidth undefined).
    """
    ra = design.self_coupling_r * design.amplitude_a
    if ra >= 1.0:
        raise DegenerateResonatorError(f"r*a = {ra} >= 1")
    lam = design.resonant_wavelength_nm
    fwhm = ((1.0 - ra) * lam * lam
            / (math.pi * design.group_index_ng * design.circumference_nm
               * math.sqrt(ra)))
    return fwhm, lam / fwhm


# ---------------------------------------------------------------------------
# crosstalk and resolution
# ---------------------------------------------------------------------------

def crosstalk_phi(lambda_i_nm: float, lambda_j_nm: float,
                  q_factor: float) -> float:
    """Noise fraction leaking from channel j into channel i.

    delta is computed from channel i: delta = lambda_i / (2 Q).
    """
    if not (math.isfinite(lambda_i_nm) and math.isfinite(lambda_j_nm)):
        raise DomainError("wavelengths must be finite")
    if not (q_factor > 0):
        raise DomainError(f"q_factor must be positive, got {q_factor}")
    delta = lambda_i_nm / (2.0 * q_factor)
    det2 = (lambda_i_nm - lambda_j_nm) ** 2
    return delta * delta / (det2 + delta * delta)


@dataclass(frozen=True)
class ChannelResolution:
    """Worst-case crosstalk noise and the resulting distinguishable levels."""

    noise_powers: tuple[float, ...]
    levels: float   # inf sentinel for a single (or noiseless) comb
    bits: int


def channel_resolution(channel_wavelengths_nm: Sequence[float],
                       q_factor: float,
                       input_powers: Sequence[float] | None = None,
                       max_bits: int = 16) -> ChannelResolution:
    """Distinguishable intensity levels for a WDM comb read through one MR.

    For each channel the crosstalk noise power is accumulated from every
    other channel; the resolvable level count is the reciprocal of the worst
    channel's noise, and bits = floor(log2(levels)) capped at ``max_bits``.
    """
    lams = np.asarray(channel_wavelengths_nm, dtype=np.float64)
    if lams.size == 0:
        raise DomainError("channel list must not be empty")
    if input_powers is None:
        powers = np.ones(lams.size)
    else:
        powers = np.asarray(input_powers, dtype=np.float64)
        if powers.size != lams.size:
            raise DomainError("input_powers length must match channels")
        if np.any(powers < 0):
            raise DomainError("input powers must be >= 0")
    noise = _kernels.channel_noise_powers(lams, float(q_factor), powers)
    worst = float(np.max(noise)) if lams.size > 1 else 0.0
    if worst <= 0.0:
        return ChannelResolution(tuple(noise.tolist()), math.inf, max_bits)
    levels = 1.0 / worst
    bits = min(int(math.floor(math.log2(levels))), max_bits) if levels >= 1 else 0
    return ChannelResolution(tuple(noise.tolist()), levels, bits)


# ---------------------------------------------------------------------------
# geometry sensitivity
# ---------------------------------------------------------------------------

GEOMETRY_PARAMETERS = ("width", "thickness", "radius")


@dataclass(frozen=True)
class GeometrySurrogate:
    """Analytic stand-in for an eigenmode solver: geometry -> lambda_MR [nm].

    lambda(w, t, R) = lambda0 + sum_p c_p*(p - p0) + q_p*(p - p0)^2
    """

    lambda0_nm: float
    base_nm: tuple[float, float, float]            # (w0, t0, R0)
    linear: tuple[float, float, float]             # c_w, c_t, c_R [nm/nm]
    quadratic: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __call__(self, width_nm: float, thickness_nm: float,
                 radius_nm: float) -> float:
        out = self.lambda0_nm
        for p, p0, c, q in zip((width_nm, thickness_nm, radius_nm),
                               self.base_nm, self.linear, self.quadratic):
            d = p - p0
            out += c * d + q * d * d
        return out


def sensitivity_slope(shift_fn: Callable[[float, float, float], float],
                      parameter: str, epsilon_nm: float,
                      at_nm: tuple[float, float, float]) -> float:
    """Central-difference resonance sensitivity |dlambda/dp| [nm/nm].

    ``shift_fn(w, t, R)`` maps geometry [nm] to resonance wavelength [nm];
    the derivative is taken at ``at_nm`` along ``parameter``.
    """
    if parameter not in GEOMETRY_PARAMETERS:
        raise DomainError(f"parameter must be one of {GEOMETRY_PARAMETERS}")
    if not (epsilon_nm > 0):
        raise DomainError("epsilon must be positive")
    axis = GEOMETRY_PARAMETERS.index(parameter)
    hi = list(at_nm)
    lo = list(at_nm)
    hi[axis] += epsilon_nm
    lo[axis] -= epsilon_nm
    return abs(shift_fn(*hi) - shift_fn(*lo)) / (2.0 * epsilon_nm)


# ---------------------------------------------------------------------------
# FPV sampling
# ---------------------------------------------------------------------------

def delta_lambda_of(design: MrDesign, dw_nm: float, dt_nm: float,
                    dR_nm: float) -> float:
    """Resonance shift for given signed geometry deviations [nm]."""
    s_w, s_t, s_r = design.slopes_nm_per_nm
    return s_w * dw_nm + s_t * dt_nm + s_r * dR_nm


def sample_fpv_map(designs: Sequence[MrDesign], stats: FpvStatistics,
                   count: int, seed: int | None = None) -> FpvMap:
    """Draw ``count`` FPV samples per design (design-major order).

    The draw is a pure function of the seed: all deviations come from one
    vectorized ziggurat-normal stream of a PCG64 generator seeded with
    ``seed`` (``stats.seed`` when not given).
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    if not designs:
        raise DomainError("need at least one design")
    rng = np.random.Generator(
        np.random.PCG64(stats.seed if seed is None else seed))
    n = len(designs) * count
    devs = rng.normal(loc=np.asarray(stats.mean_nm),
                      scale=np.asarray(stats.sigma_nm), size=(n, 3))
    slopes = np.repeat(np.array([d.slopes_nm_per_nm for d in designs]),
                       count, axis=0)
    deltas = np.sum(slopes * devs, axis=1)
    return FpvMap(devs, deltas, float(np.mean(deltas)), float(np.std(deltas)))
