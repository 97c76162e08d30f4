"""Spans and work counts recorded around mrbnn's layer boundaries.

The tracer replaces a public function at the binding its caller looks up at
call time (a module attribute, or the name a caller imported) with a
wrapper that records a span: name, start, end, parent span and pass id.
Spans stay in memory; ``write`` saves them when the run ends. A span's self
time is its duration minus the time its child spans cover.

Count metrics are computed from the wrapped calls' arguments and results.
Their work runs after the span closes, so it lands in the caller's self
time; comparing traced with untraced passes shows that overhead.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
from collections import defaultdict

import numpy as np

from mrbnn import _kernels, bnn, config, dse, modelio, photonics, simulator
from mrbnn import tuning


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, pass]
        self.counts = defaultdict(float)  # (pass id, name) -> value
        self.pass_id = None
        self.last_mapping_mrs = 0
        self._open: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def add(self, name: str, value: float) -> None:
        self.counts[(self.pass_id, name)] += value

    def maximum(self, name: str, value: float) -> None:
        key = (self.pass_id, name)
        self.counts[key] = max(self.counts[key], value)

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._open)

    def _call(self, name, fn, signature, count, args, kwargs):
        span = [name, 0.0, 0.0, self._open[-1] if self._open else None,
                self.pass_id]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()
        if count is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            count(self, bound.arguments, result)
        return result

    def wrap(self, name: str, bindings, count=None) -> None:
        """Replace the function at every ``(module, attribute)`` binding.

        All bindings must hold the same function; one wrapper serves them.
        """
        original = getattr(*bindings[0])
        for module, attr in bindings:
            if getattr(module, attr) is not original:
                raise RuntimeError(f"{module.__name__}.{attr} is not "
                                   f"the function traced as {name}")
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self._call(name, original, signature, count, args, kwargs)

        for module, attr in bindings:
            self._patches.append((module, attr, original))
            setattr(module, attr, wrapper)

    def unwrap(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def per_pass(self, pass_ids) -> dict[str, list[float]]:
        """Per-pass ``.calls``, ``.self_s`` and count values, by metric."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = defaultdict(float)
        for i, (name, start, end, _, pid) in enumerate(self.spans):
            totals[(pid, f"{name}.calls")] += 1
            totals[(pid, f"{name}.self_s")] += end - start - child[i]
            totals[(pid, f"{name}.incl_s")] += end - start
        totals.update(self.counts)
        names = {name for _, name in totals}
        return {name: [totals.get((pid, name), 0.0) for pid in pass_ids]
                for name in sorted(names)}

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent",
                                  "pass"],
                       "names": names,
                       "spans": [[index[n], s, e, p, pid]
                                 for n, s, e, p, pid in self.spans]}, fh)


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


# ---------------------------------------------------------------------------
# what is traced
# ---------------------------------------------------------------------------

def _mrs_sampled(t, a, fmap):
    t.add("photonics.mrs_sampled", len(a["designs"]) * a["count"])


def _chip_map(t, a, chip_map):
    if t.inside("dse.run_sweep"):
        t.add("dse.chip_maps", 1)


def _transmission(t, a, out):
    points = int(np.size(out))
    t.add("photonics.transmission_points", points)
    if t.inside("simulator.noisy_inference"):
        # one ratio = one shifted over one nominal transmission
        t.add("simulator.ratios_computed", points / 2)


def _noisy_fc(t, a, out):
    n, n_in = np.shape(a["acts"])
    n_out = np.shape(a["w_pos"])[0]
    t.add("kernels.macs", n * n_out * n_in)
    t.maximum("kernels.temp_bytes_max", n * n_out * n_in * 8)


def _photonic_mapping(t, a, mapping):
    ids = [idx[idx >= 0] for idx in mapping.mr_index.values()]
    t.last_mapping_mrs = (int(np.unique(np.concatenate(ids)).size)
                          if ids else 0)


def _noisy_inference(t, a, out):
    # Each mapped MR id addresses an activation ring and both weight rails.
    t.add("simulator.mrs_used", t.last_mapping_mrs)
    t.add("simulator.ratios_read", 3 * t.last_mapping_mrs)


def _work_plan(t, a, plan):
    t.add("mapping.slices", len(plan.slices))
    t.add("mapping.plan_steps", plan.total_steps)


def _run_sweep(t, a, result):
    t.add("dse.configs_evaluated", len(result.points))
    t.add("dse.configs_excluded", len(result.errors))


def wrap_layers(t: Tracer) -> None:
    """Wrap the layer-boundary functions that timed passes reach."""
    t.wrap("dse.run_sweep", [(dse, "run_sweep")], _run_sweep)
    t.wrap("dse.pareto_front", [(dse, "pareto_front")])
    t.wrap("simulator.power_and_epb",
           [(simulator, "power_and_epb"), (dse, "power_and_epb")])
    t.wrap("simulator.tuning_power_budget",
           [(simulator, "tuning_power_budget")])
    t.wrap("tuning.thermal_crosstalk_matrix",
           [(tuning, "thermal_crosstalk_matrix")])
    t.wrap("simulator.chip_fpv_map", [(simulator, "chip_fpv_map")],
           _chip_map)
    t.wrap("photonics.sample_fpv_map", [(photonics, "sample_fpv_map")],
           _mrs_sampled)
    t.wrap("simulator.fpv_accuracy_sweep",
           [(simulator, "fpv_accuracy_sweep")])
    t.wrap("simulator.noisy_inference", [(simulator, "noisy_inference")],
           _noisy_inference)
    t.wrap("simulator.build_photonic_mapping",
           [(simulator, "build_photonic_mapping")], _photonic_mapping)
    t.wrap("mapping.build_work_plan", [(simulator, "build_work_plan")],
           _work_plan)
    t.wrap("photonics.transmission", [(photonics, "transmission")],
           _transmission)
    # metric names start with a letter, so mrbnn._kernels reads "kernels"
    t.wrap("kernels.noisy_fc_forward", [(_kernels, "noisy_fc_forward")],
           _noisy_fc)
    t.wrap("bnn.im2col", [(bnn, "im2col")])
    t.wrap("bnn.quantize_activation", [(simulator, "quantize_activation")])


def wrap_setup(t: Tracer) -> None:
    """Wrap the set-up functions whose time makes up ``setup_s``."""
    t.wrap("config.build_environment", [(config, "build_environment")])
    t.wrap("bnn.ste_train", [(bnn, "ste_train")])
    t.wrap("modelio.load_model", [(modelio, "load_model")])


CALLS_AND_SELF = (
    "photonics.sample_fpv_map", "simulator.chip_fpv_map",
    "simulator.power_and_epb", "simulator.tuning_power_budget",
    "tuning.thermal_crosstalk_matrix", "photonics.transmission",
    "kernels.noisy_fc_forward", "simulator.build_photonic_mapping",
    "mapping.build_work_plan", "bnn.im2col", "bnn.quantize_activation",
    "simulator.noisy_inference", "simulator.fpv_accuracy_sweep",
    "dse.run_sweep", "dse.pareto_front")
COUNTS = (
    "photonics.mrs_sampled", "dse.chip_maps_per_config",
    "photonics.transmission_points", "simulator.ratios_computed",
    "simulator.mrs_used", "simulator.ratio_use_frac", "kernels.macs",
    "kernels.temp_bytes_max", "mapping.slices", "mapping.plan_steps",
    "dse.configs_evaluated", "dse.configs_excluded")
SETUP = ("setup.import_s", "config.build_environment.s", "bnn.ste_train.s",
         "modelio.load_model.s")


def layer_metrics(t: Tracer, pass_ids, setup_pass, import_s: float) -> dict:
    """Every per-layer metric: per-pass medians over the traced passes,
    and the set-up times of this process."""
    per = t.per_pass(pass_ids)

    def med(name):
        return median(per.get(name, []))

    evaluated = med("dse.configs_evaluated")
    computed = med("simulator.ratios_computed")
    values = {
        "dse.chip_maps_per_config": (med("dse.chip_maps") / evaluated
                                     if evaluated else 0.0),
        "simulator.ratio_use_frac": (med("simulator.ratios_read") / computed
                                     if computed else 0.0),
    }
    for name in COUNTS:
        values.setdefault(name, med(name))
    for name in CALLS_AND_SELF:
        values[f"{name}.calls"] = med(f"{name}.calls")
        values[f"{name}.self_s"] = med(f"{name}.self_s")
    setup = t.per_pass([setup_pass])
    values["setup.import_s"] = import_s
    for name in SETUP[1:]:
        values[name] = sum(setup.get(name[:-2] + ".incl_s", [0.0]))
    return values


def shares(t: Tracer, pass_ids, pass_times) -> dict[str, dict[str, float]]:
    """Median self and inclusive time of each traced function over the
    median traced pass time, largest first."""
    per = t.per_pass(pass_ids)
    total = median(pass_times)
    out = {}
    for kind in ("self", "incl"):
        suffix = f".{kind}_s"
        vals = {name[:-len(suffix)]: median(v) / total
                for name, v in per.items() if name.endswith(suffix)}
        out[kind] = dict(sorted(vals.items(), key=lambda kv: -kv[1]))
    return out
