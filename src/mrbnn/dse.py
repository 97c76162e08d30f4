"""Design-space exploration over (N_A, N_VDP, N_WG).

Every grid point is evaluated with the simulator over a workload of model
structures; the Pareto set is computed under (maximize FPS, minimize power,
minimize area). The energy-optimized pick maximizes FPS/Watt and the
performance-optimized pick maximizes FPS, with ties broken by lower power,
then lower area, then lexicographic configuration.

The configurations of a sweep read one chip map: each bank is drawn once,
at the largest size on the grid, and each configuration reads its head.
Their tuning power is one ``simulator.tuning_power_budget`` call, which
folds and splits each bank once, TED-solves each (bank, rings per arm)
group once on its longest head, and sums each configuration's prefix of
those results; each configuration still gets the bits of a chip budget of
its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import DomainError, PhysicalConstraintError
from .mapping import AcceleratorConfig, ModelStructure
from . import simulator
from .simulator import (ChipFpvMap, SimulationEnvironment, _fpv_bank,
                        _tuned_chip_budget, power_and_epb)
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


def dominates(p: SweepPoint, q: SweepPoint) -> bool:
    """p dominates q under (FPS max, power min, area min)."""
    ge = (p.fps >= q.fps and p.power_mw <= q.power_mw
          and p.area_mm2 <= q.area_mm2)
    strict = (p.fps > q.fps or p.power_mw < q.power_mw
              or p.area_mm2 < q.area_mm2)
    return ge and strict


def pareto_front(points: Sequence[SweepPoint]) -> list[bool]:
    """Exact dominance filter (quadratic; sweeps are small)."""
    flags = []
    for q in points:
        flags.append(not any(dominates(p, q) for p in points if p is not q))
    return flags


def _pick(points: Sequence[SweepPoint], objective) -> SweepPoint:
    # maximize objective; ties: lower power, lower area, lexicographic key
    return min(points, key=lambda p: (-objective(p), p.power_mw,
                                      p.area_mm2, p.key))


def _sweep_map(cfgs: Sequence[AcceleratorConfig],
               env: SimulationEnvironment, seed: int) -> ChipFpvMap:
    """One chip map that holds the rings of every configuration.

    Bank k of every configuration is the head of one prefix-stable stream
    (see ``simulator.ChipFpvMap``), so each bank is drawn once, at the
    largest size any configuration needs, and each configuration reads its
    head. Bank sizes are not monotone in n_a (the bank cap spreads a large
    n_a over the arms), so the largest is taken over the whole grid. Every
    arm carries the same ring classes in the same order.
    """
    if not cfgs:
        return ChipFpvMap(())
    return ChipFpvMap(tuple(
        _fpv_bank(env, seed, k, ring_class,
                  max(c.n_vdp * c.n_wg * c.arm_banks[k][1] for c in cfgs))
        for k, (ring_class, _) in enumerate(cfgs[0].arm_banks)))


def run_sweep(spec: SweepSpec, base_cfg: AcceleratorConfig,
              env: SimulationEnvironment,
              workload: Sequence[ModelStructure],
              seed: int | None = None) -> ParetoResult:
    """Evaluate the grid, mark the Pareto set, and select the EO/PO picks.

    Every configuration reads its head of one chip map drawn from ``seed``
    (``spec.seed`` when not given). Infeasible configurations (bank,
    passband or crosstalk-dominance violations) are recorded and skipped;
    evaluation order never affects the result (the grid is sorted by
    configuration key).
    """
    if not workload:
        raise DomainError("workload must contain at least one model")
    seed = spec.seed if seed is None else seed
    points: list[SweepPoint] = []
    errors: list[tuple[tuple[int, int, int], str]] = []
    feasible = []
    for key in spec.grid():
        n_a, n_vdp, n_wg = key
        cfg = replace(base_cfg, n_a=n_a, n_vdp=n_vdp, n_wg=n_wg, n_b=spec.n_b)
        try:
            feasible.append((key, cfg.validate()))
        except PhysicalConstraintError as exc:
            errors.append((key, str(exc)))
    cfgs = [cfg for _, cfg in feasible]
    chip_map = _sweep_map(cfgs, env, seed)
    # one tuning solve per bank size for the whole grid, and one power
    # budget per configuration, shared by every workload model; called
    # through the module, where bench/spans.py traces it
    tuned = simulator.tuning_power_budget(cfgs, env, chip_map,
                                          spec.tuning_fraction)
    for (key, cfg), tuning_mw in zip(feasible, tuned):
        if isinstance(tuning_mw, PhysicalConstraintError):
            errors.append((key, str(tuning_mw)))
            continue
        budget = _tuned_chip_budget(cfg, env, tuning_mw)
        reports = [power_and_epb(m, cfg, env, budget=budget)
                   for m in workload]
        fps = float(np.mean([r.fps for r in reports]))
        epbs = [r.epb_pj_per_bit for r in reports
                if r.epb_pj_per_bit is not None]
        epb = float(np.mean(epbs)) if epbs else float("nan")
        points.append(SweepPoint(
            *key, fps=fps, epb_pj_per_bit=epb,
            power_mw=reports[0].total_power_mw,
            area_mm2=reports[0].area_mm2))
    if not points:
        raise DomainError("no feasible configuration in the sweep")
    flags = pareto_front(points)
    points = [replace(p, pareto=flag) for p, flag in zip(points, flags)]
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
