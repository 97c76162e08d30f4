"""MR tuning power: hybrid electro-optic/thermo-optic split and collective
thermal-crosstalk-aware (TED) tuning of MR banks.

The thermal crosstalk between heaters decays exponentially with distance:
K[i][i] = 1, K[i][j] = eta * exp(-d_ij / d0). Collective tuning solves the
coupled system K s = t once for the whole bank; the naive per-MR alternative
must additionally cancel the crosstalk injected by its neighbours, escalating
through the fixed point s <- t + (K - I) |s|. Since t >= 0 and K - I >= 0,
every iterate from s = t stays >= 0, so |s| = s and the fixed point is the
solution of (2I - K) s = t: both schemes are one linear solve. Every
crosstalk matrix is checked for strict diagonal dominance (off-diagonal row
sums < 1), which makes both systems non-singular and the naive iteration a
contraction onto that solution.

Heaters only red-shift, so all tuning targets are shift magnitudes (>= 0),
folded to the nearest resonance (<= FSR/2); EO takes up to
``eo_max_shift_nm`` of each and the heater the rest.

A set of banks is budgeted in two steps. ``fold_and_split`` is
element-wise: it folds each shift, scales it by the tuning fraction and
splits it into EO and TO. The fold's remainder and nearest-resonance min
are skipped when no shift needs them (``fmod(x, fsr) == x`` for
0 <= x < fsr), so drawn shifts, far inside FSR/2, are only scaled and
split. ``ted_drives`` is per layout: it builds and checks K and solves
every bank. Both systems are solved by ``_solve_rows``: a bank whose
targets are all 0 needs no heater and gets a zero drive without a solve,
and the others are solved together from K^-1 with element-wise products
and sums only, so the bits of a bank's drives depend on K and that bank's
targets alone, on any BLAS and whatever the number of banks: the drives of
the first a banks are the first a rows of the drives of all of them. The
drives come back C-ordered, because a caller's ``np.sum`` adds in memory
order. A design sweep whose configurations read the first rows of one
drawn bank folds that bank once, solves all banks of one layout at once
and sums each configuration's prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    # set from the tuned ring's design, never from a config file
    fsr_nm: float = field(default=_DEFAULT_FSR_NM, metadata={"derived": True})
    crosstalk_eta: float = 0.0946
    crosstalk_decay_um: float = 16.6

    def __post_init__(self):
        for name in ("eo_power_uw_per_nm", "eo_max_shift_nm", "eo_latency_ns",
                     "crosstalk_eta"):
            if not 0 <= getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be finite and >= 0")
        for name in ("to_power_mw_per_fsr", "crosstalk_decay_um"):
            if not 0 < getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be finite and > 0")
        # an infinite FSR is the placeholder of a ring not yet bound
        if not self.fsr_nm > 0:
            raise DomainError("fsr_nm must be > 0")
        if not self.eo_max_shift_nm < self.fsr_nm:
            raise DomainError("eo_max_shift_nm must be smaller than the FSR")

    @property
    def heater_efficiency_nm_per_mw(self) -> float:
        return self.fsr_nm / self.to_power_mw_per_fsr


@dataclass(frozen=True)
class TedResult:
    p_naive_mw: float
    p_ted_mw: float
    reduction_fraction: float


def uniform_positions_um(n: int, spacing_um: float) -> np.ndarray:
    return np.arange(n, dtype=np.float64) * spacing_um


def _distance_matrix(spacings_um) -> np.ndarray:
    """Pairwise distances from 1-D positions or a square distance matrix;
    ``inf`` means no coupling, NaN and negative distances are rejected."""
    arr = np.asarray(spacings_um, dtype=np.float64)
    if arr.ndim == 1:
        arr = np.abs(arr[:, None] - arr[None, :])
    elif not (arr.ndim == 2 and arr.shape[0] == arr.shape[1]):
        raise DomainError("spacings must be 1-D positions or a square "
                          "pairwise-distance matrix")
    if arr.size == 0 or not np.all(arr >= 0):
        raise DomainError("distances must be non-empty, >= 0 and not NaN")
    return arr


def thermal_crosstalk_matrix(spacings_um, eta: float,
                             decay_um: float) -> np.ndarray:
    """K with unit diagonal and exponentially decaying off-diagonals.

    Raises IllConditionedLayoutError unless every off-diagonal row sum is
    below 1 (a NaN row sum fails too).
    """
    d = _distance_matrix(spacings_um)
    k = eta * np.exp(-d / decay_um)
    np.fill_diagonal(k, 1.0)
    off = k.sum(axis=1) - np.diag(k)
    if not np.max(off) < 1.0:
        raise IllConditionedLayoutError(
            f"crosstalk row sum {np.max(off):.4f} >= 1; layout too dense")
    return k


def ted_tuning_power(target_shifts_nm: Sequence[float], spacings_um,
                     params: TuningParams) -> TedResult:
    """Bank tuning power with and without collective (TED) tuning.

    TED solves the coupled heater system K s = t. The naive heaters'
    fixed point s = t + (K - I) |s| is the solution of (2I - K) s = t:
    t >= 0 and K - I >= 0 keep every iterate from s = t non-negative, and
    the dominance of K makes the iteration converge to that unique
    solution. Power is sum(|s|) / heater_efficiency.
    """
    t = np.asarray(target_shifts_nm, dtype=np.float64)
    if t.ndim != 1 or t.size == 0:
        raise DomainError("target shifts must be a non-empty vector")
    if not np.all((t >= 0) & (t < np.inf)):
        raise DomainError("target shifts are finite magnitudes >= 0")
    k = thermal_crosstalk_matrix(spacings_um, params.crosstalk_eta,
                                 params.crosstalk_decay_um)
    if k.shape[0] != t.size:
        raise DomainError("layout size does not match target vector")

    eff = params.heater_efficiency_nm_per_mw
    p_ted = float(np.sum(np.abs(_solve_rows(k, [t[None]])))) / eff
    s_naive = _solve_rows(2.0 * np.eye(t.size) - k, [t[None]])
    p_naive = float(np.sum(np.abs(s_naive))) / eff

    reduction = 0.0 if p_naive == 0.0 else 1.0 - p_ted / p_naive
    return TedResult(p_naive, p_ted, reduction)


def fold_and_split(delta_lambdas_nm, tuning_fraction: float,
                   params: TuningParams) -> tuple[np.ndarray, np.ndarray]:
    """(eo, to) shifts [nm] that correct ``tuning_fraction`` of each FPV
    shift, folded to the nearest resonance: EO takes up to
    ``eo_max_shift_nm`` and the heater the rest. Element-wise, so the
    result on a prefix of the shifts is that prefix of the result."""
    if not (0.0 <= tuning_fraction <= 1.0):
        raise DomainError("tuning_fraction must be in [0, 1]")
    fsr = params.fsr_nm
    folded = np.abs(np.asarray(delta_lambdas_nm, dtype=np.float64))
    # NaN and inf fail both tests and take the whole fold
    top = np.max(folded, initial=0.0)
    if not top < fsr:
        folded %= fsr
    if not top <= fsr - top:   # else x <= fsr - x for every x <= top
        folded = np.minimum(folded, fsr - folded)
    corrected = np.multiply(folded, tuning_fraction, out=folded)
    eo = np.minimum(corrected, params.eo_max_shift_nm)
    return eo, np.subtract(corrected, eo, out=corrected)


def _solve_rows(k: np.ndarray, blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Row b of the C-ordered result solves K s = t[b] for each row of
    ``t``, the [banks, n] ``blocks`` stacked in order, as the sum over j of
    t[b, j] times column j of K^-1, in that order. Element-wise products
    and sums only, so a row's bits depend on K and t[b] alone, on any BLAS
    and for any number of rows. A row of zeros gets +0 drives without a
    solve, where the solve could give -0 (callers take |s|); the other
    rows are solved transposed, as one contiguous [n, rows] block."""
    n = k.shape[0]
    t_t = np.empty((n, sum(len(b) for b in blocks)))
    np.concatenate([b.T for b in blocks], axis=1, out=t_t)
    hot = np.logical_or.reduce(t_t != 0, axis=0)
    if not hot.any():
        return np.zeros((hot.size, n))
    t_t = np.compress(hot, t_t, axis=1)
    k_inv = np.linalg.inv(k)
    s_t = t_t[0] * k_inv[:, :1]
    product = np.empty_like(s_t)
    for j in range(1, n):
        s_t += np.multiply(t_t[j], k_inv[:, j:j + 1], out=product)
    del t_t, product                    # before the result is allocated
    s = np.zeros((hot.size, n))
    s[hot] = s_t.T
    return s


def ted_drives(to: Sequence[np.ndarray], spacing_um: float,
               params: TuningParams) -> np.ndarray:
    """Heater drives [nm] of each row of the [n_banks, bank_size] TO
    remainders that ``fold_and_split`` gave, tuned collectively (TED) over
    a uniform layout at ``spacing_um``; a bank's power is
    sum(|s|) / heater_efficiency. ``to`` is a sequence of such blocks,
    solved as one stack: banks of several ring classes that share the
    layout take one call and no concatenated copy.

    All banks share one crosstalk matrix, which is built and checked even
    when no MR needs heater power, so a layout too dense to tune raises
    whatever the shifts. The drives of the first a rows of the stack are
    the first a rows of the C-ordered result, bit for bit.
    """
    k = thermal_crosstalk_matrix(
        uniform_positions_um(to[0].shape[1], spacing_um),
        params.crosstalk_eta, params.crosstalk_decay_um)
    return _solve_rows(k, to)


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
