import math
import tracemalloc
from dataclasses import astuple, replace

import numpy as np
import pytest

from mrbnn import config, dse
from mrbnn.dse import (ParetoResult, SweepPoint, SweepSpec, pareto_front,
                       run_sweep, scatter_export, summary_dict)
from mrbnn.simulator import chip_fpv_map, power_and_epb
from mrbnn.errors import DomainError, PhysicalConstraintError
from mrbnn.mapping import ModelStructure


def oracle_pareto(points):
    """Independent dominance oracle, formulated over objective tuples."""
    objs = [(p.fps, -p.power_mw, -p.area_mm2) for p in points]

    def dominated(i):
        for j, other in enumerate(objs):
            if j == i:
                continue
            if all(o >= m for o, m in zip(other, objs[i])) \
                    and any(o > m for o, m in zip(other, objs[i])):
                return True
        return False

    return [not dominated(i) for i in range(len(points))]


def mk_point(key, fps, power, area):
    return SweepPoint(*key, fps=fps, epb_pj_per_bit=1.0, power_mw=power,
                      area_mm2=area)


@pytest.fixture(scope="module")
def small_result(toolkit_config, env):
    spec = SweepSpec(n_a_values=(10, 50), n_vdp_values=(50, 200),
                     n_wg_values=(10,))
    workload = config.workload_structures(toolkit_config)
    return run_sweep(spec, config.arch_config(toolkit_config), env,
                     workload, seed=0)


def random_points(n, seed, levels=None):
    """n points with uniform objectives; ``levels`` draws each objective
    from that many values, so that ties and duplicates are common."""
    rng = np.random.Generator(np.random.PCG64(seed))

    def draw():
        if levels is None:
            return rng.uniform(1, 100, size=n)
        return rng.integers(1, levels + 1, size=n).astype(float)

    return [mk_point((i, 1, 1), f, p, a)
            for i, (f, p, a) in enumerate(zip(draw(), draw(), draw()))]


class TestDominance:
    def test_strict_domination(self):
        a = mk_point((1, 1, 1), fps=10, power=5, area=2)
        b = mk_point((2, 1, 1), fps=5, power=6, area=3)
        # a dominates b, and b does not dominate a, in either order
        assert pareto_front([a, b]) == [True, False]
        assert pareto_front([b, a]) == [False, True]

    def test_equal_points_do_not_dominate(self):
        a = mk_point((1, 1, 1), fps=10, power=5, area=2)
        b = mk_point((2, 1, 1), fps=10, power=5, area=2)
        assert pareto_front([a, b]) == [True, True]

    def test_pareto_single_survivor(self):
        pts = [mk_point((1, 1, 1), 10, 5, 2), mk_point((2, 1, 1), 8, 6, 3)]
        assert pareto_front(pts) == [True, False]

    def test_pareto_matches_oracle_random(self):
        rng = np.random.Generator(np.random.PCG64(19))
        pts = [mk_point((i, 1, 1), rng.uniform(1, 100), rng.uniform(1, 100),
                        rng.uniform(1, 100)) for i in range(200)]
        assert pareto_front(pts) == oracle_pareto(pts)

    def test_empty_and_one_point(self):
        assert pareto_front([]) == []
        assert pareto_front([mk_point((1, 1, 1), 1, 1, 1)]) == [True]

    @pytest.mark.parametrize("levels", [2, 3, 5])
    def test_ties_and_duplicates_match_oracle(self, levels):
        pts = random_points(150, levels, levels=levels)
        # the same object twice, and two equal points, dominate nothing
        pts += [pts[0], replace(pts[1], n_a=1000)]
        assert pareto_front(pts) == oracle_pareto(pts)

    @pytest.mark.parametrize("cells", [1, 7, 64, 1000])
    def test_many_blocks_match_oracle(self, monkeypatch, cells):
        # blocks of max(1, cells // n) points; the last block is short
        monkeypatch.setattr(dse, "_PARETO_CELLS", cells)
        for pts in (random_points(120, 23), random_points(120, 24, 4)):
            assert pareto_front(pts) == oracle_pareto(pts)

    def test_temporaries_stay_bounded(self):
        pts = random_points(2000, 29)
        full = oracle_pareto_arrays(pts)
        tracemalloc.start()
        try:
            flags = pareto_front(pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert flags == full
        # one [2000, 2000] boolean temporary alone is 4 MB
        assert peak < 3e6


def oracle_pareto_arrays(points):
    """The dominance test on full [n, n] arrays, for grids too large for
    ``oracle_pareto``."""
    f, p, a = (np.array([getattr(q, name) for q in points])
               for name in ("fps", "power_mw", "area_mm2"))
    at_least = ((f[:, None] >= f) & (p[:, None] <= p)
                & (a[:, None] <= a))
    better = (f[:, None] > f) | (p[:, None] < p) | (a[:, None] < a)
    return (~(at_least & better).any(axis=0)).tolist()


def oracle_pick(points, objective):
    best = max(objective(p) for p in points)
    cands = [p for p in points if objective(p) == best]
    for attr in ("power_mw", "area_mm2"):
        low = min(getattr(p, attr) for p in cands)
        cands = [p for p in cands if getattr(p, attr) == low]
    return min(cands, key=lambda p: p.key)


def oracle_sweep(spec, base, env, workload, seed):
    """``run_sweep`` one configuration at a time: a chip map of its own
    and one ``power_and_epb`` report per model."""
    points, errors = [], []
    for key in spec.grid():
        n_a, n_vdp, n_wg = key
        cfg = replace(base, n_a=n_a, n_vdp=n_vdp, n_wg=n_wg, n_b=spec.n_b)
        chip_map = chip_fpv_map(cfg, env, seed)
        try:
            reports = [power_and_epb(m, cfg, env, spec.tuning_fraction,
                                     chip_map=chip_map) for m in workload]
        except PhysicalConstraintError as exc:
            errors.append((key, str(exc)))
            continue
        epbs = [r.epb_pj_per_bit for r in reports
                if r.epb_pj_per_bit is not None]
        points.append(SweepPoint(
            *key, fps=float(np.mean([r.fps for r in reports])),
            epb_pj_per_bit=float(np.mean(epbs)) if epbs else math.nan,
            power_mw=reports[0].total_power_mw,
            area_mm2=reports[0].area_mm2))
    points = [replace(p, pareto=flag)
              for p, flag in zip(points, oracle_pareto(points))]
    return ParetoResult(tuple(points),
                        oracle_pick(points, lambda p: p.fps_per_watt),
                        oracle_pick(points, lambda p: p.fps), tuple(errors))


def exact_fields(result):
    """Every field of a ParetoResult, NaN written as a string so that
    ``==`` compares it too."""
    def point(p):
        return tuple("nan" if isinstance(v, float) and math.isnan(v) else v
                     for v in astuple(p))
    return ([point(p) for p in result.points], point(result.eo_pick),
            point(result.po_pick), list(result.errors))


# ten models, nine of them with bits: np.mean adds eight or more values
# in a pairwise order, which a reduction along a non-contiguous axis
# would not keep
MANY_MODELS = [ModelStructure(f"m{i}", (c, c // 7 + 1) if c else ())
               for i, c in enumerate((60642, 1000, 13, 250000, 0, 7, 99991,
                                      4096, 123456, 31))]


class TestRunSweepOracle:
    """``run_sweep`` against one chip map per configuration and one report
    per (configuration, model), field by field with ``==``."""

    @pytest.mark.parametrize("eta,fraction,workload", [
        (None, 0.8, None),
        (0.3, 0.8, None),
        (None, 0.0, None),
        (None, 1.0, None),
        (None, 0.8, [ModelStructure("one", (60642, 1064))]),
        (None, 0.8, [ModelStructure("m", (60642,)),
                     ModelStructure("zero", ())]),
        (None, 0.8, [ModelStructure("zero", ()),
                     ModelStructure("empty", (0, 0))]),
        (None, 0.8, MANY_MODELS),
    ], ids=["default", "dense", "fraction-0", "fraction-1", "one-model",
            "zero-model", "all-zero", "ten-models"])
    def test_equals_per_configuration_oracle(self, toolkit_config, eta,
                                             fraction, workload):
        cfg = toolkit_config if eta is None else replace(
            toolkit_config, tuning=replace(toolkit_config.tuning,
                                           crosstalk_eta=eta))
        env = config.build_environment(cfg)
        spec = replace(config.sweep_spec(cfg), tuning_fraction=fraction)
        base = config.arch_config(cfg)
        if workload is None:
            workload = config.workload_structures(cfg)
        got = run_sweep(spec, base, env, workload, seed=5)
        want = oracle_sweep(spec, base, env, workload, 5)
        assert exact_fields(got) == exact_fields(want)
        assert scatter_export(got) == scatter_export(want)
        assert bool(got.errors) == (eta is not None)
        bits = [m.total_bits for m in workload]
        assert all(math.isnan(p.epb_pj_per_bit) for p in got.points) \
            == (not any(bits))


class TestRunSweep:
    def test_single_point_is_everything(self, toolkit_config, env):
        spec = SweepSpec(n_a_values=(10,), n_vdp_values=(50,),
                         n_wg_values=(10,))
        res = run_sweep(spec, config.arch_config(toolkit_config), env,
                        [ModelStructure("m", (60642,))])
        assert len(res.points) == 1
        p = res.points[0]
        assert p.pareto
        assert res.eo_pick.key == p.key
        assert res.po_pick.key == p.key

    def test_preset_triples_ordering(self, small_result):
        eo = small_result.point((10, 50, 10))
        po = small_result.point((50, 200, 10))
        assert po.fps > eo.fps
        assert eo.fps_per_watt > po.fps_per_watt

    def test_pareto_against_oracle(self, small_result):
        flags = [p.pareto for p in small_result.points]
        assert flags == oracle_pareto(list(small_result.points))

    def test_picks_are_extremal(self, small_result):
        for p in small_result.points:
            assert small_result.po_pick.fps >= p.fps
            assert small_result.eo_pick.fps_per_watt >= p.fps_per_watt

    def test_infeasible_point_recorded_and_skipped(self, toolkit_config,
                                                   env):
        spec = SweepSpec(n_a_values=(10, 21), n_vdp_values=(2,),
                         n_wg_values=(1,))
        res = run_sweep(spec, config.arch_config(toolkit_config), env,
                        [ModelStructure("m", (1000,))])
        assert len(res.points) == 1
        assert len(res.errors) == 1
        assert res.errors[0][0] == (21, 2, 1)

    def test_deterministic(self, toolkit_config, env, small_result):
        spec = SweepSpec(n_a_values=(10, 50), n_vdp_values=(50, 200),
                         n_wg_values=(10,))
        workload = config.workload_structures(toolkit_config)
        again = run_sweep(spec, config.arch_config(toolkit_config), env,
                          workload, seed=0)
        assert scatter_export(again) == scatter_export(small_result)

    def test_matches_per_model_reports(self, toolkit_config, env,
                                       small_result):
        # one evaluation of the grid gives exactly what a separate report
        # per model, each drawing its own chip map, gives
        workload = config.workload_structures(toolkit_config)
        base = config.arch_config(toolkit_config)
        for p in small_result.points:
            cfg = replace(base, n_a=p.n_a, n_vdp=p.n_vdp, n_wg=p.n_wg, n_b=1)
            reports = [power_and_epb(m, cfg, env, tuning_fraction=0.8,
                                     seed=0) for m in workload]
            assert p.fps == float(np.mean([r.fps for r in reports]))
            assert p.epb_pj_per_bit == float(
                np.mean([r.epb_pj_per_bit for r in reports]))
            assert all(r.total_power_mw == p.power_mw for r in reports)
            assert all(r.area_mm2 == p.area_mm2 for r in reports)

    @pytest.mark.parametrize("eta", [None, 0.3])
    def test_equals_chip_budget_loop(self, toolkit_config, eta):
        # one draw per bank, sliced per configuration, gives what reports
        # per configuration, each on a map of its own, give. Bank
        # sizes are not monotone in n_a (15, 3 and 5 rings for n_a = 15, 25
        # and 50 on 10 arms); a crosstalk_eta of 0.3 makes the 10- and
        # 15-ring banks too dense to tune.
        cfg = toolkit_config if eta is None else replace(
            toolkit_config, tuning=replace(toolkit_config.tuning,
                                           crosstalk_eta=eta))
        env = config.build_environment(cfg)
        spec = SweepSpec(n_a_values=(10, 15, 25, 50), n_vdp_values=(2, 3),
                         n_wg_values=(5, 10), seed=7)
        base = config.arch_config(cfg)
        workload = config.workload_structures(cfg)
        res = run_sweep(spec, base, env, workload)
        points, errors = [], []
        for key in spec.grid():
            n_a, n_vdp, n_wg = key
            c = replace(base, n_a=n_a, n_vdp=n_vdp, n_wg=n_wg, n_b=spec.n_b)
            chip_map = chip_fpv_map(c, env, 7)
            try:
                reports = [power_and_epb(m, c, env, spec.tuning_fraction,
                                         chip_map=chip_map)
                           for m in workload]
            except PhysicalConstraintError as exc:
                errors.append((key, str(exc)))
                continue
            points.append((key, float(np.mean([r.fps for r in reports])),
                           float(np.mean([r.epb_pj_per_bit
                                          for r in reports])),
                           reports[0].total_power_mw, reports[0].area_mm2))
        assert [(p.key, p.fps, p.epb_pj_per_bit, p.power_mw, p.area_mm2)
                for p in res.points] == points
        assert list(res.errors) == errors
        assert bool(errors) == (eta is not None)

    @pytest.mark.parametrize("spec", [
        SweepSpec(),
        # one-arm configurations take a one-column solve of their own
        SweepSpec(n_a_values=(5, 10, 15), n_vdp_values=(1, 2, 25),
                  n_wg_values=(1, 5), seed=4),
    ], ids=["default", "one-arm"])
    def test_power_equals_chip_budget(self, toolkit_config, env, spec):
        # the sweep solves each bank size once for the whole grid; every
        # configuration's power is, bit for bit, a report on a map of its
        # own
        base = config.arch_config(toolkit_config)
        workload = [ModelStructure("m", (60642,))]
        cfgs = [replace(base, n_a=a, n_vdp=v, n_wg=w, n_b=spec.n_b)
                for a, v, w in spec.grid()]
        maps = [chip_fpv_map(c, env, spec.seed) for c in cfgs]
        for fraction in (0.3, 0.8):
            res = run_sweep(replace(spec, tuning_fraction=fraction), base,
                            env, workload)
            assert not res.errors
            assert [p.power_mw for p in res.points] == [
                sum(power_and_epb(workload[0], c, env, fraction, chip_map=m)
                    .power_breakdown_mw.values())
                for c, m in zip(cfgs, maps)]

    def test_seed_defaults_to_spec(self, toolkit_config, env):
        spec = SweepSpec(n_a_values=(10,), n_vdp_values=(50,),
                         n_wg_values=(10,), seed=3)
        args = (config.arch_config(toolkit_config), env,
                [ModelStructure("m", (60642,))])
        assert run_sweep(spec, *args) == run_sweep(spec, *args, seed=3)
        assert run_sweep(spec, *args) != run_sweep(spec, *args, seed=0)

    def test_empty_workload_rejected(self, toolkit_config, env):
        with pytest.raises(DomainError):
            run_sweep(SweepSpec(), config.arch_config(toolkit_config), env,
                      [])


class TestExport:
    def test_header_only_for_empty(self):
        p = mk_point((1, 1, 1), 1, 1, 1)
        empty = ParetoResult((), p, p, ())
        text = scatter_export(empty)
        assert text == ("n_a,n_vdp,n_wg,fps,epb_pj_per_bit,power_mw,"
                        "area_mm2,pareto\n")

    def test_row_count(self, small_result):
        text = scatter_export(small_result)
        assert len(text.strip().split("\n")) == len(small_result.points) + 1

    def test_round_trip_bytes(self, small_result):
        # the export is lossless: its fields rebuild the points exactly
        text = scatter_export(small_result)
        parsed = [SweepPoint(int(f[0]), int(f[1]), int(f[2]),
                             fps=float(f[3]), epb_pj_per_bit=float(f[4]),
                             power_mw=float(f[5]), area_mm2=float(f[6]),
                             pareto=bool(int(f[7])))
                  for f in (line.split(",")
                            for line in text.splitlines()[1:])]
        again = scatter_export(ParetoResult(tuple(parsed),
                                            small_result.eo_pick,
                                            small_result.po_pick, ()))
        assert again == text

    def test_summary_structure(self, small_result):
        d = summary_dict(small_result)
        assert d["evaluated_points"] == len(small_result.points)
        assert d["performance_optimized"]["n_a"] == small_result.po_pick.n_a


class TestSweepSpec:
    def test_grid_sorted(self):
        spec = SweepSpec(n_a_values=(10, 5), n_vdp_values=(2, 1),
                         n_wg_values=(1,))
        assert spec.grid() == [(5, 1, 1), (5, 2, 1), (10, 1, 1), (10, 2, 1)]

    def test_validation(self):
        with pytest.raises(DomainError):
            SweepSpec(n_a_values=())
        with pytest.raises(DomainError):
            SweepSpec(n_vdp_values=(0,))
