from dataclasses import replace

import numpy as np
import pytest

from mrbnn import config
from mrbnn.dse import (ParetoResult, SweepPoint, SweepSpec, dominates,
                       pareto_front, run_sweep, scatter_export, summary_dict)
from mrbnn.simulator import chip_budget, chip_fpv_map, power_and_epb
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


class TestDominance:
    def test_strict_domination(self):
        a = mk_point((1, 1, 1), fps=10, power=5, area=2)
        b = mk_point((2, 1, 1), fps=5, power=6, area=3)
        assert dominates(a, b)
        assert not dominates(b, a)

    def test_equal_points_do_not_dominate(self):
        a = mk_point((1, 1, 1), fps=10, power=5, area=2)
        b = mk_point((2, 1, 1), fps=10, power=5, area=2)
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_pareto_single_survivor(self):
        pts = [mk_point((1, 1, 1), 10, 5, 2), mk_point((2, 1, 1), 8, 6, 3)]
        assert pareto_front(pts) == [True, False]

    def test_pareto_matches_oracle_random(self):
        rng = np.random.Generator(np.random.PCG64(19))
        pts = [mk_point((i, 1, 1), rng.uniform(1, 100), rng.uniform(1, 100),
                        rng.uniform(1, 100)) for i in range(200)]
        assert pareto_front(pts) == oracle_pareto(pts)


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
        # one budget per configuration gives exactly what a separate
        # report per model, each drawing its own chip map, gives
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
        # one draw per bank, sliced per configuration, gives what a chip
        # budget per configuration, each drawing its own map, gives. Bank
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
            try:
                budget = chip_budget(c, env, spec.tuning_fraction, 7)
            except PhysicalConstraintError as exc:
                errors.append((key, str(exc)))
                continue
            reports = [power_and_epb(m, c, env, budget=budget)
                       for m in workload]
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
        # configuration's power is, bit for bit, a chip budget of its own
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
                sum(chip_budget(c, env, fraction, chip_map=m)
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
