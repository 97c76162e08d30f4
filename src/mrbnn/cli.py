"""Command-line surface of the toolkit.

Subcommands: device-report, ted-sweep, fpv-sweep, simulate, dse, train-toy.
All randomness flows from config/flag seeds, so re-running any command with
identical inputs produces byte-identical outputs.

Exit codes: 0 success, 2 usage/config error, 3 data/file error, 4 physical
constraint violation. Errors print one machine-parsable line to stderr:
``error[<category>]: <message>``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bnn, config as cfgmod, dse as dsemod, modelio, photonics
from . import simulator, tuning
from .errors import (ConfigError, DataFormatError, DomainError, MrbnnError,
                     PhysicalConstraintError)
from .mapping import build_comb, build_work_plan
from .photonics import RingClass
from .textio import render_csv

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_PHYSICAL = 4

_CLASS_NAMES = {"MultiBit": RingClass.MULTI_BIT,
                "SingleBit": RingClass.SINGLE_BIT,
                "Broadband": RingClass.BROADBAND}


def _write_text(path: str, text: str) -> None:
    p = Path(path)
    if p.parent != Path(""):
        p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _parse_list(text: str, what: str, valid, rule: str) -> list[float]:
    """Comma-separated numbers, at least one, each satisfying ``valid``,
    none repeated."""
    try:
        vals = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad {what} list {text!r}") from exc
    if not vals:
        raise ConfigError(f"{what} list is empty")
    if not all(valid(v) for v in vals):
        raise ConfigError(f"{what} must be {rule}")
    if len(set(vals)) != len(vals):
        raise ConfigError(f"{what} must not repeat a value")
    return vals


def _override(node, field: str, value, flag: str):
    """``node`` with ``field`` set to the value of ``flag`` when it was
    given; the node's own checks reject a bad value as a config error."""
    if value is None:
        return node
    try:
        return replace(node, **{field: value})
    except DomainError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


def _dataset(t: cfgmod.TrainingConfig):
    return bnn.make_blobs(t.n_train, t.n_test, t.n_features, t.n_classes,
                          t.cluster_std, t.dataset_seed)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_device_report(args, cfg: cfgmod.ToolkitConfig) -> int:
    ring_class = _CLASS_NAMES[args.ring_class]
    designs = cfgmod.build_designs(cfg)
    design = designs[ring_class]
    fwhm, q = photonics.fwhm_and_q(design)
    arch = cfgmod.arch_config(cfg)
    comb = build_comb(arch.mrs_per_bank_max, arch.channel_spacing_nm,
                      arch.center_wavelength_nm, arch.passband_nm)
    resolution = photonics.channel_resolution(comb, q)
    span = 4.0 * max(fwhm, arch.channel_spacing_nm)
    lams = np.linspace(design.resonant_wavelength_nm - span,
                       design.resonant_wavelength_nm + span, 2001)
    trans = photonics.transmission(design, lams,
                                   design.resonant_wavelength_nm)
    rows = [(float(l), float(t)) for l, t in zip(lams, trans)]
    _write_text(args.out, render_csv(["wavelength_nm", "transmission"], rows))
    summary = {
        "ring_class": args.ring_class,
        "radius_um": design.radius_um,
        "q_factor": q,
        "fwhm_nm": fwhm,
        "fsr_nm": design.fsr_nm,
        "comb_channels": len(comb),
        "channel_spacing_nm": arch.channel_spacing_nm,
        "resolution_levels": (None if resolution.levels == float("inf")
                              else resolution.levels),
        "resolution_bits": resolution.bits,
    }
    sys.stdout.write(_json_dump(summary))
    return EXIT_OK


def cmd_ted_sweep(args, cfg: cfgmod.ToolkitConfig) -> int:
    params = cfgmod.build_tuning_params(cfg)
    spacings = _parse_list(args.spacings, "spacings",
                           lambda v: 0.0 < v < math.inf, "finite and > 0")
    if args.mrs < 1:
        raise ConfigError("--mrs must be >= 1")
    if not 0.0 <= args.target < math.inf:
        raise ConfigError("--target must be finite and >= 0")
    rows = tuning.ted_spacing_sweep(spacings, args.mrs, args.target, params)
    _write_text(args.out, render_csv(
        ["spacing_um", "p_naive_mw", "p_ted_mw", "reduction"], rows))
    return EXIT_OK


def cmd_fpv_sweep(args, cfg: cfgmod.ToolkitConfig) -> int:
    exp = _override(cfg.experiment, "n_fpv_maps", args.seeds, "--seeds")
    model, _meta = modelio.load_model(args.model)
    env = cfgmod.build_environment(cfg)
    arch = cfgmod.arch_config(cfg, args.arch)
    data = _dataset(cfg.training)
    fractions = (_parse_list(args.fractions, "fractions",
                             lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
                 if args.fractions is not None
                 else list(exp.tuning_fractions))
    rows = simulator.fpv_accuracy_sweep(
        model, data.x_test, data.y_test, arch, env, fractions,
        exp.n_fpv_maps, exp.map_seed)
    _write_text(args.out, render_csv(
        ["tuning_fraction", "mean_accuracy", "std_accuracy"], rows))
    return EXIT_OK


def cmd_simulate(args, cfg: cfgmod.ToolkitConfig) -> int:
    fraction = _override(cfg.experiment, "tuning_fraction",
                         args.tuning_fraction,
                         "--tuning-fraction").tuning_fraction
    model, _meta = modelio.load_model(args.model)
    env = cfgmod.build_environment(cfg)
    arch = cfgmod.arch_config(cfg, args.arch)
    arch.validate()
    data = _dataset(cfg.training)
    chip_map = simulator.chip_fpv_map(arch, env, cfg.experiment.map_seed)
    noisy = simulator.noisy_inference(model, data.x_test, data.y_test, arch,
                                      env, fraction, cfg.experiment.map_seed,
                                      chip_map=chip_map)
    report = simulator.power_and_epb(model, arch, env,
                                     tuning_fraction=fraction,
                                     seed=cfg.experiment.map_seed,
                                     noisy_accuracy=noisy.accuracy,
                                     chip_map=chip_map)
    out = report.to_dict()
    out["tuning_fraction"] = fraction
    _write_text(args.out, _json_dump(out))
    breakdown_sum = sum(report.power_breakdown_mw.values())
    ok = abs(breakdown_sum - report.total_power_mw) <= 1e-6 * breakdown_sum
    sys.stdout.write(f"power_breakdown_sum_ok {str(ok).lower()}\n")
    sys.stdout.write(f"pipeline_steps {report.pipeline_steps}\n")
    if args.dump_plan:
        plan = build_work_plan(model, arch)
        _write_text(args.dump_plan, plan.dump())
    return EXIT_OK


def cmd_dse(args, cfg: cfgmod.ToolkitConfig) -> int:
    env = cfgmod.build_environment(cfg)
    base = cfgmod.arch_config(cfg)
    spec = cfgmod.sweep_spec(cfg)
    workload = cfgmod.workload_structures(cfg)
    result = dsemod.run_sweep(spec, base, env, workload)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_text(str(out_dir / "scatter.csv"), dsemod.scatter_export(result))
    _write_text(str(out_dir / "picks.json"),
                _json_dump(dsemod.summary_dict(result)))
    sys.stdout.write(_json_dump(dsemod.summary_dict(result)))
    return EXIT_OK


def cmd_train_toy(args, cfg: cfgmod.ToolkitConfig) -> int:
    t = _override(cfg.training, "learning_rate", args.learning_rate,
                  "--learning-rate")
    t = _override(t, "dataset_seed", args.dataset_seed, "--dataset-seed")
    data = _dataset(t)
    sizes = [t.n_features, *t.hidden_sizes, t.n_classes]
    model = bnn.make_mlp(sizes, seed=t.model_seed,
                         activation_bits=t.activation_bits)
    trained, losses = bnn.ste_train(model, data.x_train, data.y_train,
                                    epochs=t.epochs, lr=t.learning_rate)
    train_acc = bnn.accuracy(trained, data.x_train, data.y_train)
    test_acc = bnn.accuracy(trained, data.x_test, data.y_test)
    metadata = {
        "train_accuracy": round(train_acc, 6),
        "test_accuracy": round(test_acc, 6),
        "epochs": t.epochs,
        "learning_rate": t.learning_rate,
        "final_loss": round(losses[-1], 9) if losses else None,
        "dataset_seed": t.dataset_seed,
        "layer_sizes": sizes,
    }
    modelio.save_model(trained, args.out_model, metadata)
    sys.stdout.write(_json_dump(metadata))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrbnn",
        description="Microring-resonator BNN accelerator simulator")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None,
                        help="YAML config path (or MRBNN_CONFIG env var)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("device-report", parents=[common],
                       help="transmission spectrum and Q/FWHM/resolution")
    p.add_argument("--class", dest="ring_class", required=True,
                   choices=sorted(_CLASS_NAMES))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_device_report)

    p = sub.add_parser("ted-sweep", parents=[common],
                       help="collective-tuning power vs MR spacing")
    p.add_argument("--spacings", default="3,4,5,6,7,8,9,10")
    p.add_argument("--mrs", type=int, default=10)
    p.add_argument("--target", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ted_sweep)

    p = sub.add_parser("fpv-sweep", parents=[common],
                       help="noisy-inference accuracy vs tuning fraction")
    p.add_argument("--model", required=True)
    p.add_argument("--fractions", default=None,
                   help="comma list, e.g. 0.0,0.5,1.0")
    p.add_argument("--seeds", type=int, default=None,
                   help="number of FPV maps")
    p.add_argument("--arch", default="default")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fpv_sweep)

    p = sub.add_parser("simulate", parents=[common],
                       help="full power/performance report for one model")
    p.add_argument("--model", required=True)
    p.add_argument("--arch", default="default")
    p.add_argument("--tuning-fraction", type=float, default=None)
    p.add_argument("--dump-plan", default=None,
                   help="also dump the work plan to this path")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("dse", parents=[common],
                       help="design-space sweep with Pareto front")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_dse)

    p = sub.add_parser("train-toy", parents=[common],
                       help="train the synthetic-blob MLP")
    p.add_argument("--dataset-seed", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--out-model", required=True)
    p.set_defaults(func=cmd_train_toy)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = cfgmod.load_config(args.config
                                 or os.environ.get("MRBNN_CONFIG"))
        return args.func(args, cfg)
    except ConfigError as exc:
        sys.stderr.write(f"error[config]: {exc}\n")
        return EXIT_USAGE
    except DataFormatError as exc:
        sys.stderr.write(f"error[data]: {exc}\n")
        return EXIT_DATA
    except PhysicalConstraintError as exc:
        sys.stderr.write(f"error[physical]: {exc}\n")
        return EXIT_PHYSICAL
    except DomainError as exc:
        sys.stderr.write(f"error[domain]: {exc}\n")
        return EXIT_USAGE
    except MrbnnError as exc:
        sys.stderr.write(f"error[internal]: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"error[io]: {exc}\n")
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
