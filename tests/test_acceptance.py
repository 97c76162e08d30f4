"""Acceptance suite: one test per criterion, each timed against its stated
budget and printed as a PASS line (run with -v or -s to see them)."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from mrbnn import _kernels, bnn, config, dse, modelio, photonics, simulator
from mrbnn.bnn import (QuantModel, activation_layer, batch_norm_layer,
                       conv_layer, fc_layer, reference_inference,
                       ste_gradient)
from mrbnn.cli import main
from mrbnn.mapping import decompose_conv, decompose_fc
from mrbnn.photonics import FpvStatistics, RingClass
from mrbnn.tuning import (TuningParams, ted_tuning_power,
                          uniform_positions_um)


def report(n, elapsed, budget, detail):
    print(f"CRITERION {n}: PASS ({elapsed:.2f}s < {budget:.0f}s) {detail}")


def test_criterion_01_device_resolution(multibit):
    t0 = time.perf_counter()
    fwhm, q = photonics.fwhm_and_q(multibit)
    assert abs(q - 5000.0) / 5000.0 <= 0.10
    comb = [1550.0 + (i - 7) * 1.0 for i in range(15)]
    res = photonics.channel_resolution(comb, q)
    assert res.levels >= 16.0
    assert res.bits >= 4
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, elapsed, 1,
           f"Q={q:.0f}, levels={res.levels:.2f}, bits={res.bits}")


def test_criterion_02_transmission_physics():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(2))
    n = 10_000
    r = rng.uniform(0.01, 0.999, n)
    a = rng.uniform(0.01, 1.0, n)
    phi = rng.uniform(0.0, 2 * math.pi, n)
    t = np.array([_kernels.all_pass_transmission(math.cos(p), ri, ai)
                  for p, ri, ai in zip(phi, r, a)])
    assert np.all(t >= -1e-9) and np.all(t <= 1 + 1e-9)
    unity = _kernels.all_pass_transmission(np.cos(phi[:100]), 0.7, 1.0)
    assert np.allclose(unity, 1.0, atol=1e-9)
    for ra in (0.3, 0.9, 0.99):
        assert abs(_kernels.all_pass_transmission(1.0, ra, ra)) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(2, elapsed, 1, f"grid of {n} (r, a, phi) points in [0, 1]")


def test_criterion_03_ted_reduction():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(3))
    p1 = TuningParams(crosstalk_eta=1.0, crosstalk_decay_um=1.0)
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        m = rng.uniform(1e-6, 1.0, (n, n))
        m = (m + m.T) / 2
        np.fill_diagonal(m, 0.0)
        m *= rng.uniform(0.05, 0.95) / m.sum(axis=1).max()
        d = np.zeros((n, n))
        off = ~np.eye(n, dtype=bool)
        d[off] = -np.log(m[off])
        res = ted_tuning_power(rng.uniform(0, 5, n), d, p1)
        assert res.p_ted_mw <= res.p_naive_mw + 1e-9
    params = TuningParams()
    r5 = ted_tuning_power(np.ones(10), uniform_positions_um(10, 5.0), params)
    r7 = ted_tuning_power(np.ones(10), uniform_positions_um(10, 7.0), params)
    assert abs(r5.reduction_fraction - 0.51) <= 0.10
    assert abs(r7.reduction_fraction - 0.41) <= 0.10
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(3, elapsed, 5,
           f"1000 matrices; reductions {r5.reduction_fraction:.3f}@5um "
           f"{r7.reduction_fraction:.3f}@7um")


def test_criterion_04_fpv_statistics(toolkit_config):
    t0 = time.perf_counter()
    design = config.population_design(toolkit_config)
    stats = FpvStatistics(sigma_nm=(4.9, 1.5, 0.75),
                          seed=toolkit_config.fpv.seed)
    fmap = photonics.sample_fpv_map([design], stats, 10_000)
    assert abs(fmap.delta_std_nm - 24.417) / 24.417 <= 0.05
    assert abs(fmap.delta_mean_nm - (-0.1461)) <= 0.5
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    report(4, elapsed, 2,
           f"sigma={fmap.delta_std_nm:.3f} nm, mu={fmap.delta_mean_nm:.4f} nm")


def test_criterion_05_tuning_fraction_saturation(toolkit_config, env,
                                                 toy_model, toy_data):
    t0 = time.perf_counter()
    arch = config.arch_config(toolkit_config, "eo")
    rows = simulator.fpv_accuracy_sweep(
        toy_model, toy_data.x_test, toy_data.y_test, arch, env,
        [1.0, 0.8, 0.0], n_maps=50,
        base_seed=toolkit_config.experiment.map_seed)
    acc = {f: m for f, m, _ in rows}
    assert abs(acc[1.0] - acc[0.8]) <= 0.02
    assert acc[0.0] < acc[1.0]
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(5, elapsed, 60,
           f"acc(1.0)={acc[1.0]:.4f} acc(0.8)={acc[0.8]:.4f} "
           f"acc(0.0)={acc[0.0]:.4f} over 50 maps")


def test_criterion_06_decomposition_exactness():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(6))
    for i in range(50):   # 50 conv + 50 FC layers
        ic = int(rng.integers(1, 3))
        oc = int(rng.integers(1, 4))
        kh, kw = rng.integers(1, 4, 2)
        h = int(rng.integers(kh, kh + 6))
        w = int(rng.integers(kw, kw + 6))
        g = int(rng.integers(1, 10))
        kernel = rng.choice([-1.0, 1.0], size=(oc, ic, kh, kw))
        acts = rng.integers(0, 16, size=(ic, h, w)).astype(float)
        decs = decompose_conv(kernel, acts, g)
        for d in decs:
            c, oy, ox = d.output_index
            patch = acts[:, oy:oy + kh, ox:ox + kw].reshape(-1)
            direct = float(kernel[c].reshape(-1) @ patch)
            assert d.reconstruct() == direct   # integer domain: bit exact
    for i in range(50):
        rows = int(rng.integers(1, 10))
        cols = int(rng.integers(1, 12))
        g = int(rng.integers(1, 14))
        wmat = rng.choice([-1.0, 1.0], size=(rows, cols))
        acts = rng.integers(0, 16, size=cols).astype(float)
        direct = wmat @ acts
        rebuilt = [d.reconstruct() for d in decompose_fc(wmat, acts, g)]
        assert np.array_equal(rebuilt, direct)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(6, elapsed, 10, "100 random quantized layers, bit-exact")


def test_criterion_07_bn_folding():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(7))
    for i in range(100):
        n_in = int(rng.integers(2, 8))
        h = int(rng.integers(2, 8))
        n_out = int(rng.integers(2, 5))
        use_conv = i % 4 == 0
        if use_conv:
            layers = (
                conv_layer(rng.normal(size=(h, 1, 2, 2))),
                batch_norm_layer(rng.uniform(0.3, 3.0, h), np.zeros(h),
                                 np.zeros(h), rng.uniform(0.0, 2.0, h)),
                activation_layer())
            x = rng.uniform(0, 1, size=(3, 1, 5, 5))
        else:
            layers = (
                fc_layer(rng.normal(size=(h, n_in))),
                batch_norm_layer(rng.uniform(0.3, 3.0, h), np.zeros(h),
                                 np.zeros(h), rng.uniform(0.0, 2.0, h)),
                activation_layer(),
                fc_layer(rng.normal(size=(n_out, h)), binarized=False))
            x = rng.uniform(0, 1, size=(5, n_in))
        model = QuantModel(layers)
        le, _ = reference_inference(model, x, folded=False)
        lf, _ = reference_inference(model, x, folded=True)
        assert np.allclose(le, lf, atol=1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(7, elapsed, 5, "100 random models, folded == explicit @ 1e-9")


def test_criterion_08_ste_gradient_check():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(8))
    w1 = rng.normal(size=(2, 2)) + 0.3
    w2 = rng.normal(size=(1, 2))
    act = activation_layer(quantize=False)
    model = QuantModel((fc_layer(w1, binarized=True), act,
                        fc_layer(w2, binarized=False)))
    x = rng.uniform(0.1, 1.0, size=(8, 2))
    y = rng.uniform(-1, 1, size=(8, 1))
    grads = ste_gradient(model, x, y, loss="mse")
    w1_bin = bnn.binarize(w1)

    def loss_at(w1_eff, w2_eff):
        m = QuantModel((fc_layer(w1_eff, binarized=False), act,
                        fc_layer(w2_eff, binarized=False)))
        out, _ = reference_inference(m, x)
        return 0.5 * np.mean(np.sum((out - y) ** 2, axis=1))

    eps = 1e-6
    worst = 0.0
    for li, base in enumerate((w1_bin, w2)):
        num = np.zeros_like(base)
        for i in range(base.shape[0]):
            for j in range(base.shape[1]):
                hi, lo = base.copy(), base.copy()
                hi[i, j] += eps
                lo[i, j] -= eps
                if li == 0:
                    num[i, j] = (loss_at(hi, w2) - loss_at(lo, w2)) / (2 * eps)
                else:
                    num[i, j] = (loss_at(w1_bin, hi)
                                 - loss_at(w1_bin, lo)) / (2 * eps)
        rel = np.abs(grads[li] - num) / np.maximum(np.abs(num), 1e-8)
        worst = max(worst, float(np.max(rel)))
    assert worst < 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(8, elapsed, 1, f"max relative gradient error {worst:.2e}")


def test_criterion_09_pipeline_and_bandwidth(toolkit_config, env):
    t0 = time.perf_counter()
    po = config.arch_config(toolkit_config, "po")
    per_step = po.weights_per_vdp_step * po.n_vdp
    xs, totals = [], []
    for mult in (2, 3, 7):
        timing = simulator.pipeline_time(
            __structure(per_step * mult), po, env)
        xs.append(timing.steps)
        totals.append(timing.total_ns)
    slope = (totals[1] - totals[0]) / (xs[1] - xs[0])
    assert slope == pytest.approx(timing.delta_t_ns, rel=1e-12)
    assert totals[2] == pytest.approx(totals[0] + slope * (xs[2] - xs[0]),
                                      rel=1e-12)
    bw = simulator.required_bandwidth_gb_s(po, env)
    assert 93.75 / 2 <= bw <= 93.75 * 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(9, elapsed, 1,
           f"affine slope = delta_t; PO bandwidth {bw:.2f} GB/s")


def __structure(params):
    from mrbnn.mapping import ModelStructure
    return ModelStructure.from_counts((int(params),))


def test_criterion_10_dse_orderings(toolkit_config, env):
    t0 = time.perf_counter()
    spec = config.sweep_spec(toolkit_config)
    workload = config.workload_structures(toolkit_config)
    result = dse.run_sweep(spec, config.arch_config(toolkit_config), env,
                           workload, seed=toolkit_config.sweep.seed)
    eo = result.point((10, 50, 10))
    po = result.point((50, 200, 10))
    assert po.fps > eo.fps
    assert eo.fps_per_watt > po.fps_per_watt
    # brute-force dominance oracle over every evaluated point
    pts = list(result.points)
    objs = [(p.fps, -p.power_mw, -p.area_mm2) for p in pts]
    for i, p in enumerate(pts):
        dominated = any(
            all(o >= m for o, m in zip(objs[j], objs[i]))
            and any(o > m for o, m in zip(objs[j], objs[i]))
            for j in range(len(pts)) if j != i)
        assert p.pareto == (not dominated)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(10, elapsed, 120,
           f"{len(pts)} points; FPS {po.fps:.3g} > {eo.fps:.3g}; "
           f"FPS/W {eo.fps_per_watt:.3g} > {po.fps_per_watt:.3g}")


def test_criterion_11_out_of_scope_documented():
    # cross-accelerator EPB/FPS ratios, absolute inference times and the
    # original dataset accuracies are excluded at desk scale; the property
    # suites above substitute for them. This criterion just pins the list.
    substitutes = {5, 6, 7, 8, 9, 10}
    present = {int(name.split("_")[2]) for name in globals()
               if name.startswith("test_criterion_")
               and name.split("_")[2].isdigit()}
    assert substitutes <= present
    print("CRITERION 11: PASS (excluded: cross-accelerator ratios, "
          "absolute inference times, original dataset accuracies)")


def test_criterion_12_cli_determinism(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MRBNN_CONFIG", raising=False)
    import yaml
    small = tmp_path / "small.yaml"
    small.write_text(yaml.safe_dump({
        "sweep": {"n_a_values": [10, 50], "n_vdp_values": [50],
                  "n_wg_values": [10]},
        "workload": [{"name": "net60k",
                      "layer_parameter_counts": [59508, 1064, 70]}]}))
    model = tmp_path / "toy.mrbnn"
    assert main(["train-toy", "--out-model", str(model)]) == 0

    def run_twice(name, argv_fn, outputs):
        blobs = []
        for tag in ("a", "b"):
            base = tmp_path / f"{name}-{tag}"
            assert main(argv_fn(base)) == 0
            blob = b""
            for rel in outputs:
                blob += (base.with_name(base.name + rel)
                         if rel.startswith(".")
                         else base / rel).read_bytes()
            blobs.append(blob)
        assert blobs[0] == blobs[1], f"{name} outputs differ between runs"

    run_twice("report", lambda b: [
        "device-report", "--class", "MultiBit", "--out", f"{b}.csv"],
        [".csv"])
    run_twice("ted", lambda b: [
        "ted-sweep", "--spacings", "5,7", "--out", f"{b}.csv"], [".csv"])
    run_twice("train", lambda b: [
        "train-toy", "--out-model", f"{b}.mrbnn"], [".mrbnn"])
    run_twice("sweep", lambda b: [
        "fpv-sweep", "--model", str(model), "--fractions", "0.0,0.8,1.0",
        "--seeds", "5", "--out", f"{b}.csv"], [".csv"])
    run_twice("simulate", lambda b: [
        "simulate", "--model", str(model), "--out", f"{b}.json"], [".json"])
    run_twice("dse", lambda b: [
        "dse", "--config", str(small), "--out", str(b)],
        ["scatter.csv", "picks.json"])
    capsys.readouterr()
    print("CRITERION 12: PASS (all commands byte-identical on re-run)")
