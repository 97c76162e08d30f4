"""Design-space exploration over (N_A, N_VDP, N_WG).

Every grid point is evaluated with the simulator over a workload of model
structures; the Pareto set is computed under (maximize FPS, minimize power,
minimize area). The energy-optimized pick maximizes FPS/Watt and the
performance-optimized pick maximizes FPS, with ties broken by lower power,
then lower area, then lexicographic configuration.

The grid is scored by one ``simulator.evaluate`` call, the evaluator that
``simulate`` uses for one pair: one chip map for every configuration (each
bank drawn once, at the largest size on the grid), one tuning power
budget, each configuration's power breakdown and area once, and the
latency, FPS and EPB of every (configuration, model) pair as one
[configurations, models] array. Every value is, bit for bit, what a
``simulator.power_and_epb`` report per pair gives. This module keeps the
grid's validation, the means over models (one reduction of each row), the
Pareto filter and the picks. The filter compares blocks of points with all
points as arrays, so its temporaries stay bounded. A grid whose every
configuration is excluded raises ``PhysicalConstraintError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import DomainError, PhysicalConstraintError
from .mapping import AcceleratorConfig, ModelStructure
from . import simulator
from .simulator import SimulationEnvironment
# Nothing here calls power_and_epb (a sweep calls simulator.evaluate
# once), but bench/spans.py traces it at this binding.
from .simulator import power_and_epb  # noqa: F401
from .textio import render_csv


@dataclass(frozen=True)
class SweepSpec:
    """The (N_A, N_VDP, N_WG) grid; the config node of ``sweep``.

    ``n_b`` is not a config key: it is taken from the accelerator.
    """

    n_a_values: tuple[int, ...] = (5, 10, 15, 25, 50)
    n_vdp_values: tuple[int, ...] = (25, 50, 100, 200)
    n_wg_values: tuple[int, ...] = (5, 10)
    n_b: int = field(default=1, metadata={"derived": True})
    tuning_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        for name in ("n_a_values", "n_vdp_values", "n_wg_values"):
            vals = getattr(self, name)
            if not vals or any(v < 1 for v in vals):
                raise DomainError(f"{name} must be non-empty, all >= 1")
            if len(set(vals)) != len(vals):
                raise DomainError(f"{name} must not repeat a value")
        if not 0.0 <= self.tuning_fraction <= 1.0:
            raise DomainError("tuning_fraction must be in [0, 1]")
        if self.seed < 0:
            raise DomainError("seed must be >= 0")

    def grid(self) -> list[tuple[int, int, int]]:
        return sorted((a, v, w) for a in self.n_a_values
                      for v in self.n_vdp_values for w in self.n_wg_values)


@dataclass(frozen=True)
class SweepPoint:
    n_a: int
    n_vdp: int
    n_wg: int
    fps: float
    epb_pj_per_bit: float
    power_mw: float
    area_mm2: float
    pareto: bool = False

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.n_a, self.n_vdp, self.n_wg)

    @property
    def fps_per_watt(self) -> float:
        return self.fps / (self.power_mw * 1e-3)


@dataclass(frozen=True)
class ParetoResult:
    points: tuple[SweepPoint, ...]
    eo_pick: SweepPoint
    po_pick: SweepPoint
    errors: tuple[tuple[tuple[int, int, int], str], ...]

    def point(self, key: tuple[int, int, int]) -> SweepPoint:
        for p in self.points:
            if p.key == key:
                return p
        raise KeyError(key)


# A dominance test compares a block of points with every point; the block
# is sized so that each boolean temporary holds about this many cells.
_PARETO_CELLS = 1 << 18


def pareto_front(points: Sequence[SweepPoint]) -> list[bool]:
    """Exact dominance filter: True where no point is at least as good on
    all of (FPS max, power min, area min) and strictly better on one.

    Array comparisons of each block of points against all points keep
    every temporary near ``_PARETO_CELLS`` booleans on any grid.
    """
    n = len(points)
    fps, power, area = (
        np.array([getattr(p, name) for p in points], dtype=np.float64)[:, None]
        for name in ("fps", "power_mw", "area_mm2"))
    dominated = np.zeros(n, dtype=bool)
    block = max(1, _PARETO_CELLS // max(n, 1))
    for lo in range(0, n, block):
        # rows: every point p; columns: the block's points q
        q = slice(lo, lo + block)
        f, pw, a = fps[q, 0], power[q, 0], area[q, 0]
        at_least = (fps >= f) & (power <= pw) & (area <= a)
        better = (fps > f) | (power < pw) | (area < a)
        dominated[q] = (at_least & better).any(axis=0)
    return (~dominated).tolist()


def _pick(points: Sequence[SweepPoint], objective) -> SweepPoint:
    # maximize objective; ties: lower power, lower area, lexicographic key
    return min(points, key=lambda p: (-objective(p), p.power_mw,
                                      p.area_mm2, p.key))


def run_sweep(spec: SweepSpec, base_cfg: AcceleratorConfig,
              env: SimulationEnvironment,
              workload: Sequence[ModelStructure],
              seed: int | None = None) -> ParetoResult:
    """Evaluate the grid, mark the Pareto set, and select the EO/PO picks.

    Every configuration reads its head of one chip map drawn from ``seed``
    (``spec.seed`` when not given). Infeasible configurations (bank,
    passband or crosstalk-dominance violations) are recorded and skipped,
    and a PhysicalConstraintError says how many when none is left;
    evaluation order never affects the result (the grid is sorted by
    configuration key).
    """
    if not workload:
        raise DomainError("workload must contain at least one model")
    seed = spec.seed if seed is None else seed
    errors: list[tuple[tuple[int, int, int], str]] = []
    keys, cfgs = [], []
    for key in spec.grid():
        n_a, n_vdp, n_wg = key
        cfg = replace(base_cfg, n_a=n_a, n_vdp=n_vdp, n_wg=n_wg, n_b=spec.n_b)
        try:
            cfgs.append(cfg.validate())
        except PhysicalConstraintError as exc:
            errors.append((key, str(exc)))
        else:
            keys.append(key)
    ev = simulator.evaluate(cfgs, workload, env, spec.tuning_fraction, seed)
    errors += [(keys[i], str(exc)) for i, exc in ev.errors]
    if not ev.tuned:
        raise PhysicalConstraintError(
            f"no feasible configuration in the sweep: all {len(errors)} "
            f"configurations were excluded")
    has_bits = np.array([m.total_bits > 0 for m in workload])
    # the mean over a row of a C-ordered array adds in the order np.mean
    # of a list does (boolean indexing of columns returns another order)
    fps = ev.fps.mean(axis=1).tolist()
    epb = (np.ascontiguousarray(ev.epb_pj_per_bit[:, has_bits])
           .mean(axis=1).tolist()
           if has_bits.any() else [math.nan] * len(ev.tuned))
    rows = [(*keys[i], f, e, p, a) for i, f, e, p, a
            in zip(ev.tuned, fps, epb, ev.power_mw, ev.area_mm2)]
    flags = pareto_front([SweepPoint(*row) for row in rows])
    points = [SweepPoint(*row, pareto=flag) for row, flag in zip(rows, flags)]
    eo = _pick(points, lambda p: p.fps_per_watt)
    po = _pick(points, lambda p: p.fps)
    # SweepSpec repeats no value, so keys are unique and this is grid order
    return ParetoResult(tuple(points), eo, po, tuple(sorted(errors)))


def scatter_export(result: ParetoResult) -> str:
    """Lossless CSV of every evaluated point (fixed 9-digit formatting)."""
    rows = [(p.n_a, p.n_vdp, p.n_wg, p.fps, p.epb_pj_per_bit, p.power_mw,
             p.area_mm2, int(p.pareto)) for p in result.points]
    return render_csv(
        ["n_a", "n_vdp", "n_wg", "fps", "epb_pj_per_bit", "power_mw",
         "area_mm2", "pareto"], rows)


def summary_dict(result: ParetoResult) -> dict:
    def point_dict(p: SweepPoint) -> dict:
        return {"n_a": p.n_a, "n_vdp": p.n_vdp, "n_wg": p.n_wg,
                "fps": p.fps, "fps_per_watt": p.fps_per_watt,
                "power_mw": p.power_mw, "area_mm2": p.area_mm2,
                "epb_pj_per_bit": p.epb_pj_per_bit}
    return {
        "evaluated_points": len(result.points),
        "pareto_points": sum(p.pareto for p in result.points),
        "excluded": [{"config": list(k), "reason": msg}
                     for k, msg in result.errors],
        "energy_optimized": point_dict(result.eo_pick),
        "performance_optimized": point_dict(result.po_pick),
    }
