"""MR tuning power: hybrid electro-optic/thermo-optic split and collective
thermal-crosstalk-aware (TED) tuning of MR banks.

The thermal crosstalk between heaters decays exponentially with distance:
K[i][i] = 1, K[i][j] = eta * exp(-d_ij / d0). Collective tuning solves the
coupled system K s = t once for the whole bank; the naive per-MR alternative
must additionally cancel the crosstalk injected by its neighbours, escalating
through the fixed point s <- t + (K - I) |s|.

Heaters only red-shift, so all tuning targets are shift magnitudes (>= 0),
pre-folded to the nearest resonance (<= FSR/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, IllConditionedLayoutError

# Default FSR of the multi-bit ring: lambda^2 / (n_g * 2*pi*R)
_DEFAULT_FSR_NM = 1550.0 ** 2 / (4.2 * 2.0 * np.pi * 5000.0)


@dataclass(frozen=True)
class TuningParams:
    """Electro-optic / thermo-optic tuning rates and thermal crosstalk."""

    eo_power_uw_per_nm: float = 4.0
    eo_max_shift_nm: float = 1.0
    eo_latency_ns: float = 20.0
    to_power_mw_per_fsr: float = 27.5
    to_latency_us: float = 4.0
    fsr_nm: float = _DEFAULT_FSR_NM
    crosstalk_eta: float = 0.0946
    crosstalk_decay_um: float = 16.6
    heater_efficiency_nm_per_mw: float | None = None

    def __post_init__(self):
        for name in ("eo_power_uw_per_nm", "eo_max_shift_nm", "eo_latency_ns",
                     "to_power_mw_per_fsr", "to_latency_us", "fsr_nm",
                     "crosstalk_eta", "crosstalk_decay_um"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be >= 0")
        if not self.eo_max_shift_nm < self.fsr_nm:
            raise DomainError("eo_max_shift_nm must be smaller than the FSR")
        if self.heater_efficiency_nm_per_mw is None:
            object.__setattr__(self, "heater_efficiency_nm_per_mw",
                               self.fsr_nm / self.to_power_mw_per_fsr)
        if self.heater_efficiency_nm_per_mw <= 0:
            raise DomainError("heater efficiency must be positive")

    @property
    def to_latency_ns(self) -> float:
        return self.to_latency_us * 1000.0


@dataclass(frozen=True)
class HybridSplit:
    """EO/TO decomposition of one MR's correction shift."""

    eo_shift_nm: float
    to_shift_nm: float
    power_mw: float
    latency_ns: float


@dataclass(frozen=True)
class TedResult:
    p_naive_mw: float
    p_ted_mw: float
    reduction_fraction: float


@dataclass(frozen=True)
class BankBudget:
    total_power_mw: float
    eo_power_mw: float
    to_power_mw: float
    worst_latency_ns: float


def fold_to_nearest_resonance(delta_lambda_nm: float, fsr_nm: float) -> float:
    """Shift magnitude to the nearest comb resonance, always <= FSR/2."""
    x = abs(delta_lambda_nm) % fsr_nm
    return min(x, fsr_nm - x)


def hybrid_split(delta_lambda_nm: float, params: TuningParams) -> HybridSplit:
    """Split one correction shift between the EO and TO mechanisms.

    EO covers up to ``eo_max_shift_nm``; any remainder falls to the heater.
    Power is eo_shift * (uW/nm) + (to_shift / FSR) * (mW/FSR); latency is the
    TO latency as soon as a heater is involved.
    """
    if not np.isfinite(delta_lambda_nm) or delta_lambda_nm < 0:
        raise DomainError("delta_lambda must be a finite magnitude >= 0")
    if delta_lambda_nm > params.fsr_nm / 2.0 + 1e-12:
        raise DomainError(
            "shift exceeds FSR/2; fold to the nearest resonance first")
    eo = min(delta_lambda_nm, params.eo_max_shift_nm)
    to = delta_lambda_nm - eo
    power = (eo * params.eo_power_uw_per_nm * 1e-3
             + (to / params.fsr_nm) * params.to_power_mw_per_fsr)
    latency = params.to_latency_ns if to > 0 else params.eo_latency_ns
    return HybridSplit(eo, to, power, latency)


def uniform_positions_um(n: int, spacing_um: float) -> np.ndarray:
    return np.arange(n, dtype=np.float64) * spacing_um


def _distance_matrix(spacings_um) -> np.ndarray:
    arr = np.asarray(spacings_um, dtype=np.float64)
    if arr.ndim == 1:
        return np.abs(arr[:, None] - arr[None, :])
    if arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
        return arr
    raise DomainError("spacings must be 1-D positions or a square "
                      "pairwise-distance matrix")


def thermal_crosstalk_matrix(spacings_um, eta: float,
                             decay_um: float) -> np.ndarray:
    """K with unit diagonal and exponentially decaying off-diagonals."""
    d = _distance_matrix(spacings_um)
    k = eta * np.exp(-d / decay_um)
    np.fill_diagonal(k, 1.0)
    return k


def _check_dominance(k: np.ndarray):
    off = k.sum(axis=1) - np.diag(k)
    if np.max(off) >= 1.0:
        raise IllConditionedLayoutError(
            f"crosstalk row sum {np.max(off):.4f} >= 1; layout too dense")


def ted_tuning_power(target_shifts_nm: Sequence[float], spacings_um,
                     params: TuningParams,
                     max_iterations: int = 100_000) -> TedResult:
    """Bank tuning power with and without collective (TED) tuning.

    TED solves the coupled heater system K s = t exactly; the naive model
    iterates s <- t + (K - I) |s| until each heater has cancelled its
    neighbours' injected crosstalk. Power is sum(|s|) / heater_efficiency.
    """
    t = np.asarray(target_shifts_nm, dtype=np.float64)
    if t.ndim != 1 or t.size == 0:
        raise DomainError("target shifts must be a non-empty vector")
    if np.any(t < 0):
        raise DomainError("target shifts are red-shift magnitudes, >= 0")
    k = thermal_crosstalk_matrix(spacings_um, params.crosstalk_eta,
                                 params.crosstalk_decay_um)
    if k.shape[0] != t.size:
        raise DomainError("layout size does not match target vector")
    _check_dominance(k)

    eff = params.heater_efficiency_nm_per_mw
    s_ted = np.linalg.solve(k, t)
    p_ted = float(np.sum(np.abs(s_ted))) / eff

    s = t.copy()
    non_diag = k - np.eye(k.shape[0])
    scale = max(float(np.max(t)), 1.0)
    for _ in range(max_iterations):
        s_new = t + non_diag @ np.abs(s)
        if not np.all(np.isfinite(s_new)):
            raise IllConditionedLayoutError("naive tuning iteration diverged")
        if np.max(np.abs(s_new - s)) < 1e-13 * scale:
            s = s_new
            break
        s = s_new
    else:
        raise IllConditionedLayoutError("naive tuning did not converge")
    p_naive = float(np.sum(np.abs(s))) / eff

    reduction = 0.0 if p_naive == 0.0 else 1.0 - p_ted / p_naive
    return TedResult(p_naive, p_ted, reduction)


def bank_tuning_budget(delta_lambdas_nm, tuning_fraction: float,
                       spacing_um: float, params: TuningParams) -> BankBudget:
    """Aggregate correction power of one MR bank or of [n_banks, bank_size].

    Each MR corrects ``tuning_fraction`` of its (nearest-resonance folded)
    FPV shift; EO covers up to ``eo_max_shift_nm`` and is summed directly,
    the TO remainders of each bank are tuned collectively through the TED
    solve. All banks share one uniform layout, hence one crosstalk matrix.
    Powers are totals over all banks; the latency is the worst bank's.
    """
    if not (0.0 <= tuning_fraction <= 1.0):
        raise DomainError("tuning_fraction must be in [0, 1]")
    deltas = np.atleast_2d(np.asarray(delta_lambdas_nm, dtype=np.float64))
    folded = np.abs(deltas) % params.fsr_nm
    folded = np.minimum(folded, params.fsr_nm - folded)
    corrected = tuning_fraction * folded
    eo = np.minimum(corrected, params.eo_max_shift_nm)
    to = corrected - eo
    eo_power = float(np.sum(eo)) * params.eo_power_uw_per_nm * 1e-3
    if not np.any(to > 0):
        return BankBudget(eo_power, eo_power, 0.0, params.eo_latency_ns)
    k = thermal_crosstalk_matrix(
        uniform_positions_um(deltas.shape[1], spacing_um),
        params.crosstalk_eta, params.crosstalk_decay_um)
    _check_dominance(k)
    s = np.linalg.solve(k, to.T)
    to_power = float(np.sum(np.abs(s))) / params.heater_efficiency_nm_per_mw
    return BankBudget(eo_power + to_power, eo_power, to_power,
                      params.to_latency_ns)


def ted_spacing_sweep(spacings_um: Sequence[float], n_mrs: int,
                      target_shift_nm: float,
                      params: TuningParams) -> list[tuple[float, float, float, float]]:
    """(spacing, p_naive, p_ted, reduction) rows for a uniform bank sweep."""
    rows = []
    for d in spacings_um:
        res = ted_tuning_power(np.full(n_mrs, target_shift_nm),
                               uniform_positions_um(n_mrs, d), params)
        rows.append((float(d), res.p_naive_mw, res.p_ted_mw,
                     res.reduction_fraction))
    return rows
