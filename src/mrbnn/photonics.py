"""Closed-form microring resonator device math.

Implements the all-pass transmission model, linewidth/Q relations,
inter-channel crosstalk, achievable bit resolution, and
fabrication-process-variation (FPV) resonance-shift sampling.

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
signed and independent Gaussians, dp ~ N(mu_p, sigma_p^2)):

    dlambda = s_w * dw + s_t * dt + s_R * dR  ~  N(mu', sigma'^2)
    mu' = sum_p s_p * mu_p,   sigma' = sqrt(sum_p (s_p * sigma_p)^2)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

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
    """A population of FPV resonance shifts (design-major order) plus
    summary stats, computed when read: ``delta_lambdas_nm`` is ``[n]``, in
    nm."""

    delta_lambdas_nm: np.ndarray

    @property
    def delta_mean_nm(self) -> float:
        return float(np.mean(self.delta_lambdas_nm))

    @property
    def delta_std_nm(self) -> float:
        return float(np.std(self.delta_lambdas_nm))


# ---------------------------------------------------------------------------
# transmission
# ---------------------------------------------------------------------------

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
    out = _kernels.all_pass_transmission(cos_phi, design.self_coupling_r,
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

MAX_BITS = 16   # the bit count of a noiseless comb, and the cap of any other


@dataclass(frozen=True)
class ChannelResolution:
    """Worst-case crosstalk noise and the resulting distinguishable levels."""

    noise_powers: tuple[float, ...]
    levels: float   # inf sentinel for a single (or noiseless) comb
    bits: int


def channel_resolution(channel_wavelengths_nm: Sequence[float],
                       q_factor: float) -> ChannelResolution:
    """Distinguishable intensity levels for a WDM comb of unit-power
    channels read through one MR.

    For each channel the crosstalk noise power is accumulated from every
    other channel; the resolvable level count is the reciprocal of the worst
    channel's noise, and bits = floor(log2(levels)) capped at ``MAX_BITS``.
    """
    lams = np.asarray(channel_wavelengths_nm, dtype=np.float64)
    if lams.size == 0:
        raise DomainError("channel list must not be empty")
    noise = _kernels.channel_noise_powers(lams, float(q_factor),
                                          np.ones(lams.size))
    worst = float(np.max(noise)) if lams.size > 1 else 0.0
    if worst <= 0.0:
        return ChannelResolution(tuple(noise.tolist()), math.inf, MAX_BITS)
    levels = 1.0 / worst
    bits = min(int(math.floor(math.log2(levels))), MAX_BITS) if levels >= 1 else 0
    return ChannelResolution(tuple(noise.tolist()), levels, bits)


# ---------------------------------------------------------------------------
# FPV sampling
# ---------------------------------------------------------------------------

def sample_fpv_map(designs: Sequence[MrDesign], stats: FpvStatistics,
                   count: int, seed: int | None = None) -> FpvMap:
    """Draw ``count`` FPV samples per design (design-major order).

    A shift is linear in three independent Gaussian deviations, so it is
    itself Gaussian: with the design's slopes s and the per-dimension means
    mu and standard deviations sigma of ``stats``, each shift is
    mu' + sigma' * z with mu' = sum_p s_p * mu_p, sigma' =
    sqrt(sum_p (s_p * sigma_p)^2) and z a standard normal, one per sample.

    The draw is a pure function of the seed: the normals are one vectorized
    ziggurat stream of a PCG64 generator seeded with ``seed``
    (``stats.seed`` when not given), design-major. The stream is
    prefix-stable: for one design, the first m shifts of a draw of any
    count >= m are the shifts a draw of count m gives, bit for bit.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    if not designs:
        raise DomainError("need at least one design")
    rng = np.random.Generator(
        np.random.PCG64(stats.seed if seed is None else seed))
    deltas = rng.standard_normal(len(designs) * count)
    for i, design in enumerate(designs):
        slopes = design.slopes_nm_per_nm
        mean = sum(s * m for s, m in zip(slopes, stats.mean_nm))
        sigma = math.sqrt(sum((s * g) * (s * g)
                              for s, g in zip(slopes, stats.sigma_nm)))
        block = deltas[i * count:(i + 1) * count]
        block *= sigma
        block += mean
    return FpvMap(deltas)
