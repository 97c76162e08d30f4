"""The benchmark's three workloads, one per paper computation.

Each workload class builds its inputs from a workload seed (``None`` selects
the CLI's default seeds), runs one pass through the public functions the
matching CLI command calls, checks a pass's output, and digests the
simulated outputs of a fixed-seed pass.

* ``dse-grid``  -- ``mrbnn dse``: the default (N_A, N_VDP, N_WG) grid.
* ``fpv-mc``    -- ``mrbnn fpv-sweep``: accuracy vs tuning fraction over
  seeded FPV chip maps, on the toy MLP.
* ``conv-sim``  -- ``mrbnn simulate`` on a synthetic conv BNN.

Every pass draws its FPV map seeds from the workload seed and the pass
index, so no pass repeats an earlier pass's inputs within one process.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

from mrbnn import bnn, config, dse, modelio, simulator
from mrbnn.dse import SweepSpec
from mrbnn.mapping import ModelStructure
from mrbnn.textio import render_csv

OUT_DIR = Path(__file__).resolve().parent.parent / ".bench_out"

# Simulated statistics are recorded, never gated.
MODEL_VALIDATION = ("unvalidated: the repository holds no hardware "
                    "reference, so simulated statistics (FPS, EPB, noisy "
                    "accuracy) are recorded as digests and not gated")


def sub_seed(*key: int) -> int:
    """A 32-bit seed derived from non-negative integers."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


class Workload:
    """One set of inputs plus the pass, check and digest that use them."""

    name = ""
    item = ""           # what one unit of ``items`` is, e.g. "configs"

    def __init__(self, seed: int | None):
        self.seed = seed
        self.cfg = config.ToolkitConfig()
        self.env = config.build_environment(self.cfg)
        self.arch = config.arch_config(self.cfg)

    def pass_seed(self, index: int) -> int:
        return sub_seed(self.seed or 0, index, 1)

    def run_pass(self, index: int):
        return self.run(self.pass_seed(index))

    def run(self, map_seed: int):
        raise NotImplementedError

    def items(self, out) -> int:
        raise NotImplementedError

    def check(self, out) -> list[str]:
        """Problems found in one pass's output; empty when it is correct."""
        raise NotImplementedError

    def digest(self) -> tuple[dict, list[str]]:
        """sha256 of the simulated outputs of a fixed-seed pass, plus the
        problems its check found."""
        raise NotImplementedError

    def untimed_checks(self) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# dse-grid
# ---------------------------------------------------------------------------

def dominance_flags(fps, power, area) -> np.ndarray:
    """True where no other point is at least as good on all of (FPS max,
    power min, area min) and strictly better on one."""
    f, p, a = (np.asarray(v, dtype=np.float64) for v in (fps, power, area))
    ge = ((f[:, None] >= f[None, :]) & (p[:, None] <= p[None, :])
          & (a[:, None] <= a[None, :]))
    gt = ((f[:, None] > f[None, :]) | (p[:, None] < p[None, :])
          | (a[:, None] < a[None, :]))
    dominated = (ge & gt).any(axis=0)      # row i dominates column j
    return ~dominated


def documented_pick(points, objective):
    """Max objective; ties go to lower power, lower area, then the
    lexicographically smallest (n_a, n_vdp, n_wg)."""
    best = max(objective(p) for p in points)
    cands = [p for p in points if objective(p) == best]
    for attr in ("power_mw", "area_mm2"):
        low = min(getattr(p, attr) for p in cands)
        cands = [p for p in cands if getattr(p, attr) == low]
    return min(cands, key=lambda p: p.key)


class DseGrid(Workload):
    name = "dse-grid"
    item = "configs"

    def __init__(self, seed, tiny):
        super().__init__(seed)
        self.spec = config.sweep_spec(self.cfg)
        if tiny:
            self.spec = SweepSpec(n_a_values=(5, 10), n_vdp_values=(25,),
                                  n_wg_values=(5,), n_b=self.spec.n_b,
                                  tuning_fraction=self.spec.tuning_fraction)
        self.models = config.workload_structures(self.cfg)

    def run(self, map_seed):
        return dse.run_sweep(self.spec, self.arch, self.env, self.models,
                             seed=map_seed)

    def items(self, out):
        return len(out.points)

    def check(self, out):
        problems = []
        pts = out.points
        if len(pts) + len(out.errors) != len(self.spec.grid()):
            problems.append("evaluated + excluded != grid size")
        for p in pts:
            vals = (p.fps, p.epb_pj_per_bit, p.power_mw, p.area_mm2)
            if not all(math.isfinite(v) for v in vals):
                problems.append(f"non-finite point {p.key}")
        flags = dominance_flags([p.fps for p in pts],
                                [p.power_mw for p in pts],
                                [p.area_mm2 for p in pts])
        if [p.pareto for p in pts] != flags.tolist():
            problems.append("Pareto flags differ from the dominance check")
        if pts:
            if out.eo_pick != documented_pick(pts, lambda p: p.fps_per_watt):
                problems.append("EO pick breaks the documented tie-break")
            if out.po_pick != documented_pick(pts, lambda p: p.fps):
                problems.append("PO pick breaks the documented tie-break")
        return problems

    def digest(self):
        out = self.run(self.cfg.sweep.seed)
        return ({"scatter_csv": sha256(dse.scatter_export(out))},
                self.check(out))


# ---------------------------------------------------------------------------
# fpv-mc
# ---------------------------------------------------------------------------

class FpvMc(Workload):
    name = "fpv-mc"
    item = "map_evals"
    HEADER = ["tuning_fraction", "mean_accuracy", "std_accuracy"]

    def __init__(self, seed, tiny):
        super().__init__(seed)
        t = self.cfg.training
        data_seed, model_seed = ((t.dataset_seed, t.model_seed)
                                 if seed is None else
                                 (sub_seed(seed, 2), sub_seed(seed, 3)))
        data = bnn.make_blobs(t.n_train, t.n_test, t.n_features, t.n_classes,
                              t.cluster_std, data_seed)
        model = bnn.make_mlp([t.n_features, *t.hidden_sizes, t.n_classes],
                             seed=model_seed,
                             activation_bits=t.activation_bits)
        trained, _ = bnn.ste_train(model, data.x_train, data.y_train,
                                   epochs=t.epochs, lr=t.learning_rate,
                                   seed=model_seed)
        self.model = _modelio_round_trip(trained)
        self.x, self.y = data.x_test, data.y_test
        self.fractions = ((0.0, 0.5, 1.0) if tiny
                          else self.cfg.experiment.tuning_fractions)
        self.n_maps = 2 if tiny else 20
        self.reference_accuracy = bnn.accuracy(self.model, self.x, self.y)

    def pass_seed(self, index):
        # map seeds base .. base + n_maps - 1 stay distinct across passes
        return sub_seed(self.seed or 0, index, 1) * self.n_maps

    def run(self, map_seed):
        return simulator.fpv_accuracy_sweep(
            self.model, self.x, self.y, self.arch, self.env, self.fractions,
            self.n_maps, map_seed)

    def items(self, out):
        return len(out) * self.n_maps

    def check(self, out):
        problems = []
        if [r[0] for r in out] != [float(f) for f in self.fractions]:
            problems.append("rows do not follow the requested fractions")
        for f, mean, std in out:
            if not (0.0 <= mean <= 1.0 and 0.0 <= std <= 1.0):
                problems.append(f"accuracy out of range at fraction {f}")
        full = [r for r in out if r[0] == 1.0]
        if not full or full[0][2] != 0.0 \
                or full[0][1] != self.reference_accuracy:
            problems.append("full tuning does not reproduce the reference "
                            f"accuracy {self.reference_accuracy}: {full}")
        return problems

    def digest(self):
        out = self.run(self.cfg.experiment.map_seed)
        return ({"fpv_rows": sha256(render_csv(self.HEADER, out))},
                self.check(out))


def _modelio_round_trip(model):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"toy-{os.getpid()}.mrbnn"
    try:
        modelio.save_model(model, str(path))
        loaded, _ = modelio.load_model(str(path))
    finally:
        path.unlink(missing_ok=True)
    return loaded


# ---------------------------------------------------------------------------
# conv-sim
# ---------------------------------------------------------------------------

def conv_model(rng: np.random.Generator) -> bnn.QuantModel:
    """conv 3->16 3x3, BN, act, pool 2 / conv 16->32 3x3, BN, act /
    binarized FC 1568->128, BN, act / full-precision FC 128->10.

    ``act_range`` stays (0, 1): ``noisy_inference`` clips imprinted values
    to [0, 1], so a wider range would break full-tuning equivalence.
    """
    def bn(c):
        return bnn.batch_norm_layer(rng.uniform(0.5, 1.5, c),
                                    rng.normal(0.0, 0.1, c),
                                    rng.normal(0.0, 0.1, c),
                                    rng.uniform(0.5, 1.5, c))
    layers = (
        bnn.conv_layer(rng.normal(size=(16, 3, 3, 3))), bn(16),
        bnn.activation_layer(), bnn.pool_layer(2),
        bnn.conv_layer(rng.normal(size=(32, 16, 3, 3))), bn(32),
        bnn.activation_layer(),
        bnn.fc_layer(rng.normal(size=(128, 32 * 7 * 7))), bn(128),
        bnn.activation_layer(),
        bnn.fc_layer(rng.normal(size=(10, 128)), binarized=False),
    )
    return bnn.QuantModel(layers)


class ConvSim(Workload):
    name = "conv-sim"
    item = "images"

    def __init__(self, seed, tiny):
        super().__init__(seed)
        rng = np.random.Generator(np.random.PCG64(sub_seed(seed or 0, 4)))
        self.model = conv_model(rng)
        self.x = rng.uniform(0.0, 1.0, size=(4 if tiny else 64, 3, 20, 20))
        # Labels are the exact model's classes, so noisy accuracy is the
        # share of argmaxes FPV leaves unchanged.
        _, self.y = bnn.reference_inference(self.model, self.x)
        self.fraction = self.cfg.experiment.tuning_fraction

    def run(self, map_seed):
        """The ``mrbnn simulate`` flow, in the CLI's order."""
        chip_map = simulator.chip_fpv_map(self.arch, self.env, map_seed)
        noisy = simulator.noisy_inference(
            self.model, self.x, self.y, self.arch, self.env, self.fraction,
            map_seed, chip_map=chip_map)
        report = simulator.power_and_epb(
            self.model, self.arch, self.env, tuning_fraction=self.fraction,
            seed=map_seed, noisy_accuracy=noisy.accuracy, chip_map=chip_map)
        timing = simulator.pipeline_time(
            ModelStructure.from_model(self.model), self.arch, self.env)
        return noisy, report, timing

    def items(self, out):
        return out[0].logits.shape[0]

    def check(self, out):
        noisy, report, timing = out
        problems = []
        if noisy.logits.shape != (self.x.shape[0], 10) \
                or not np.all(np.isfinite(noisy.logits)):
            problems.append("logits have the wrong shape or are not finite")
        elif not np.array_equal(noisy.predictions,
                                np.argmax(noisy.logits, axis=1)):
            problems.append("predictions are not the logits' argmax")
        elif noisy.accuracy != float(np.mean(noisy.predictions == self.y)):
            problems.append("accuracy does not match the predictions")
        if report.noisy_accuracy != noisy.accuracy:
            problems.append("report carries another accuracy")
        values = [report.fps, report.total_power_mw, report.area_mm2,
                  report.epb_pj_per_bit]
        if not all(v is not None and math.isfinite(v) and v > 0
                   for v in values):
            problems.append("report has a non-positive or non-finite value")
        if timing.steps < 1:
            problems.append("pipeline has no steps")
        return problems

    def untimed_checks(self):
        full = simulator.noisy_inference(self.model, self.x, self.y,
                                         self.arch, self.env, 1.0,
                                         self.cfg.experiment.map_seed)
        ref, _ = bnn.reference_inference(self.model, self.x, folded=True)
        err = float(np.max(np.abs(full.logits - ref)))
        if not err <= 1e-9:
            return [f"full tuning differs from the folded reference by {err}"]
        return []

    def digest(self):
        out = self.run(self.cfg.experiment.map_seed)
        noisy, report, timing = out
        summary = report.to_dict()
        summary["pipeline_steps"] = timing.steps
        summary["pipeline_buffered_steps"] = timing.buffered_steps
        logits = np.ascontiguousarray(noisy.logits, dtype="<f8")
        return ({"logits": sha256(logits.tobytes()),
                 "report": sha256(json.dumps(summary, sort_keys=True))},
                self.check(out))


WORKLOADS = {w.name: w for w in (DseGrid, FpvMc, ConvSim)}
