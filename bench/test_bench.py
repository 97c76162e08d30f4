"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from mrbnn import dse, simulator  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = {"count", "maps/config", "bytes"}


def run_bench(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, str(Path(cwd) / BENCH.name / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return done.returncode, done.stdout, done.stderr


def tiny_result(workload, seed, trace):
    code, out, err = run_bench("--workload", workload, "--seed", str(seed),
                               "--seconds", "0.5", "--trace", str(trace),
                               "--tiny")
    assert code == 0, err
    return json.loads(out.strip().split("\n")[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_with_its_unit(workload, trace):
    result = tiny_result(workload, 3, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if trace:
        again = tiny_result(workload, 3, trace)
        counts = {name for name, unit in expected.items()
                  if unit in COUNT_UNITS}
        assert {n: result["metrics"][n]["value"] for n in counts} == \
            {n: again["metrics"][n]["value"] for n in counts}


def test_flipped_pareto_flag_fails_the_check():
    w = workloads.DseGrid(5, tiny=True)
    out = w.run_pass(0)
    assert w.check(out) == []
    first = out.points[0]
    flipped = dataclasses.replace(first, pareto=not first.pareto)
    bad = dataclasses.replace(out, points=(flipped, *out.points[1:]))
    assert w.check(bad)


def test_wrong_full_tuning_row_fails_the_check():
    w = workloads.FpvMc(5, tiny=True)
    out = w.run_pass(0)
    assert w.check(out) == []
    bad = [(f, m - 0.01 if f == 1.0 else m, s) for f, m, s in out]
    assert w.check(bad)


def test_perturbed_logits_fail_the_checks(monkeypatch):
    w = workloads.ConvSim(5, tiny=True)
    out = w.run_pass(0)
    assert w.check(out) == [] and w.untimed_checks() == []
    noisy = out[0]
    nan_logits = noisy.logits.copy()
    nan_logits[0, 0] = np.nan
    assert w.check((dataclasses.replace(noisy, logits=nan_logits), *out[1:]))

    exact = simulator.noisy_inference

    def perturbed(*args, **kwargs):
        res = exact(*args, **kwargs)
        return dataclasses.replace(res, logits=res.logits + 1e-6)

    monkeypatch.setattr(simulator, "noisy_inference", perturbed)
    assert w.untimed_checks()


def test_dse_scatter_matches_the_cli(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "mrbnn.cli", "dse", "--out",
                    str(tmp_path)], env=env, check=True, capture_output=True,
                   timeout=170)
    w = workloads.DseGrid(None, tiny=False)
    text = dse.scatter_export(w.run(w.cfg.sweep.seed))
    assert text.encode("utf-8") == (tmp_path / "scatter.csv").read_bytes()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out, _ = run_bench("--workload", "conv-sim", "--seed", "1",
                             "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert '"correct"' not in out
