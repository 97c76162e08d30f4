#!/usr/bin/env python3
"""Host-time benchmark of the mrbnn simulator.

Run from the repository root:

    python3 bench/run.py --workload dse-grid --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

One process runs one workload (``all`` runs each in its own process, one
after another). It builds the inputs from ``--seed``, runs timed passes for
``--seconds`` seconds, checks every pass's output, and prints the metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics:

* ``items_per_ref_s``: throughput scaled to a reference host speed. An item
  is a grid point (dse-grid), an FPV map evaluation (fpv-mc) or an image
  (conv-sim). Each pass's items per second is multiplied by the host's
  slowdown, timed by ``hostspeed`` just before and after the pass; the
  metric is the median over passes. Other tenants of a shared host change
  its speed by tens of percent within minutes, and this scaling removes
  most of that drift. The unscaled median is in the run record.
* ``setup_s``: median over several fresh processes of the time from
  process start to the first timed pass (import, environment, inputs),
  each scaled to the reference host speed in the same way.
* ``peak_rss_mb``: this process's maximum resident set size.

``--trace 1`` wraps the layer boundaries and reports the per-layer metrics
instead, as per-pass medians. It alternates traced and untraced passes to
report the tracing overhead, digests the simulated outputs of a fixed-seed
pass, and writes its spans to ``.bench_out/``.

A line ``record {...}`` before the result holds the run record: machine,
versions, commit, seeds, pass times and, when traced, the digests and each
layer's share of a pass. All timings are host time. Simulated statistics
are digested, not gated: the model is unvalidated against hardware.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread: each workload runs single-threaded, and on a shared
# 2-vCPU host a second BLAS thread mostly adds noise.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("dse-grid", "fpv-mc", "conv-sim")
SETUP_REPEATS = 7
# Share of a run spent timing the host-speed calibration, next to each pass.
CALIBRATION_SHARE = 0.1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the benchmark's own smoke test")
    # set up, print the monotonic clock and exit: see setup_samples
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def child_argv(args, workload, *extra):
    argv = [sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return argv + (["--tiny"] if args.tiny else []) + list(extra)


def run_all(args) -> int:
    code = 0
    for name in WORKLOAD_NAMES:
        code = max(code, subprocess.run(child_argv(args, name)).returncode)
    return code


def setup_samples(args, speed) -> tuple[list[float], list[float]]:
    """Start-to-first-pass times of fresh processes doing this set-up, and
    the host slowdown before each followed by one after the last."""
    samples = []
    slowdowns = [speed.slowdown(0.0)]
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        done = subprocess.run(child_argv(args, args.workload, "--setup-only"),
                              capture_output=True, text=True, check=True)
        samples.append(float(done.stdout.split()[-1]) - start)
        slowdowns.append(speed.slowdown(CALIBRATION_SHARE * samples[-1]))
    return samples, slowdowns


def at_reference_speed(seconds: list[float], slowdowns: list[float]):
    """Each duration divided by the mean host slowdown timed just before
    and just after it."""
    return [sec / ((slowdowns[i] + slowdowns[i + 1]) / 2)
            for i, sec in enumerate(seconds)]


def run_record(args) -> dict:
    import numpy as np
    import workloads
    from mrbnn import _kernels

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                               "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "kernel_backend": _kernels.BACKEND,
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "model_validation": workloads.MODEL_VALIDATION,
    }


class Tally:
    """Checked operations attempted and failed; problems go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        self.failed += bool(problems)
        for p in problems:
            print(f"check failed ({what}): {p}", file=sys.stderr)
        return not problems


def run_passes(args, w, tracer, speed, tally):
    """Timed passes for ``args.seconds``. Returns the correct passes as
    (index, traced, seconds, items), and the host slowdown before each pass
    followed by one after the last pass."""
    import spans

    passes, slowdowns = [], []
    begin = time.perf_counter()
    index = 0
    last = 0.0
    while index == 0 or time.perf_counter() - begin < args.seconds:
        gc.collect()
        if speed:
            slowdowns.append(speed.slowdown(CALIBRATION_SHARE * last))
        traced = tracer is not None and index % 2 == 0
        if traced:
            tracer.pass_id = index
            spans.wrap_layers(tracer)
        start = time.perf_counter()
        try:
            out = w.run_pass(index)
            last = time.perf_counter() - start
        except Exception:
            problems = [traceback.format_exc()]
        else:
            problems = w.check(out)
        finally:
            if traced:
                tracer.unwrap()
        if tally.check(f"pass {index}", problems):
            passes.append((index, traced, last, w.items(out)))
        index += 1
    if speed:
        gc.collect()
        slowdowns.append(speed.slowdown(CALIBRATION_SHARE * last))
    return passes, slowdowns


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (ROOT / "src" / "mrbnn" / "__init__.py").is_file():
        print(f"error: no mrbnn sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    t0 = time.perf_counter()
    import hostspeed
    import spans
    import workloads
    import_s = time.perf_counter() - t0

    tracer = spans.Tracer() if args.trace else None
    cls = workloads.WORKLOADS[args.workload]
    if tracer:
        tracer.pass_id = "setup"
        spans.wrap_setup(tracer)
    w = cls(args.seed, args.tiny)
    if tracer:
        tracer.unwrap()
    if args.setup_only:
        print(time.monotonic())
        return 0
    speed = None if tracer else hostspeed.HostSpeed()
    setup, setup_slowdowns = setup_samples(args, speed) if speed else ([], [])

    tally = Tally()
    passes, slowdowns = run_passes(args, w, tracer, speed, tally)
    tally.check("full-tuning check", w.untimed_checks())
    if tracer:
        digests, problems = cls(None, args.tiny).digest()
        tally.check("fixed-seed digest pass", problems)
    if not passes:
        print("error: no pass succeeded", file=sys.stderr)
        return 1

    record = run_record(args)
    record.update(correct_passes=len(passes), item=w.item,
                  failed_frac=tally.failed / tally.attempted,
                  pass_s=[round(p[2], 6) for p in passes])
    if tracer:
        traced_ids = [p[0] for p in passes if p[1]]
        traced_s = [p[2] for p in passes if p[1]]
        plain_s = [p[2] for p in passes if not p[1]]
        values = spans.layer_metrics(tracer, traced_ids, "setup", import_s)
        values["trace.overhead_frac"] = (
            statistics.median(traced_s) / statistics.median(plain_s) - 1.0
            if traced_s and plain_s else 0.0)
        workloads.OUT_DIR.mkdir(exist_ok=True)
        spans_path = workloads.OUT_DIR / f"spans-{args.workload}.json"
        tracer.write(spans_path)
        record.update(share_of_pass=spans.shares(tracer, traced_ids, traced_s),
                      digests=digests, spans_file=str(spans_path))
    else:
        times = [sec / items for _, _, sec, items in passes]
        values = {
            "items_per_ref_s":
                1.0 / statistics.median(at_reference_speed(times, slowdowns)),
            "setup_s":
                statistics.median(at_reference_speed(setup, setup_slowdowns)),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record.update({f"{w.item}_per_s": 1.0 / statistics.median(times),
                       f"{w.item}_per_ref_s": values["items_per_ref_s"],
                       "host_slowdown": [round(x, 4) for x in slowdowns],
                       "setup_samples_s": setup,
                       "setup_slowdown": [round(x, 4) for x in setup_slowdowns],
                       "setup_unscaled_s": statistics.median(setup)})

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if tracer else "end_to_end"]}
    for name, m in metrics.items():
        print(f"{args.workload:9} {name:42} {m['value']:.6g} {m['unit']}")
    print("record " + json.dumps(record))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
