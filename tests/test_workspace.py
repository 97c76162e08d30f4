"""The kernels' scratch workspace (``_kernels.WORKSPACE``): frames take back
what they lent, no lent array reaches a caller, every reader writes its
scratch before reading it, and the memory it keeps is bounded and does not
grow when walks repeat."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from mrbnn import _kernels, bnn, config
from mrbnn._kernels import WORKSPACE
from mrbnn.simulator import noisy_inference
from test_bit_pins import CASES, CONV_SIM_LOGITS, KERNEL, PINS, \
    logits_digest, same_gemm

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def eo_cfg(toolkit_config):
    return config.arch_config(toolkit_config, "eo")


def lent(a):
    """Whether ``a`` lies in the workspace's memory."""
    memory = WORKSPACE._memory
    return memory is not None and np.shares_memory(
        a, np.frombuffer(memory, np.uint8))


class TestFrames:
    BIG = (_kernels.SMALL_BYTES // 8,)

    def test_a_frame_takes_back_what_it_lent(self):
        with WORKSPACE:
            a = WORKSPACE.take(self.BIG)
            with WORKSPACE:
                b = WORKSPACE.take(self.BIG)
            c = WORKSPACE.take(self.BIG)
        assert lent(a) and lent(b) and lent(c)
        assert not np.shares_memory(a, b)
        assert np.shares_memory(b, c)       # b's frame had ended
        assert a.ctypes.data % 64 == 0 and a.flags.c_contiguous

    def test_allocates_outside_a_frame_past_the_cap_and_below_small(self):
        assert not lent(WORKSPACE.take(self.BIG))
        with WORKSPACE:
            assert not lent(WORKSPACE.take((8,)))
            assert not lent(WORKSPACE.take((_kernels.WORKSPACE_BYTES + 1,),
                                           np.dtype(np.uint8)))
            assert lent(WORKSPACE.take(self.BIG))

    def test_im2col_outside_a_frame_allocates(self):
        x = np.random.Generator(np.random.PCG64(3)).uniform(
            size=(8, 3, 12, 12))
        cols, oh, ow = bnn.im2col(x, 3, 3, 1)
        assert (cols.shape, oh, ow) == ((8, 100, 27), 10, 10)
        assert not lent(cols) and not np.shares_memory(cols, x)
        with WORKSPACE:
            assert lent(bnn.im2col(x, 3, 3, 1)[0])


@pytest.mark.parametrize("shape, k, stride", [
    ((3, 2, 7, 9), 3, 1), ((2, 1, 6, 6), 2, 2), ((4, 3, 5, 5), 1, 1),
    ((1, 2, 4, 4), 4, 1)])
def test_windows_copy_any_rows(shape, k, stride):
    rng = np.random.Generator(np.random.PCG64(17))
    x = rng.uniform(size=shape)
    windows = bnn._windows(x, k, k, stride)
    patches = bnn.im2col(x, k, k, stride)[0]
    rows = patches.reshape(-1, patches.shape[-1])
    assert windows.shape == rows.shape
    for start in range(len(rows)):
        for stop in range(start + 1, len(rows) + 1):
            out = np.full((rows.shape[1], stop - start), np.nan).T
            windows.copy_rows(start, out)
            assert np.array_equal(out, rows[start:stop])


class TestNothingLentEscapes:
    def test_two_calls_give_equal_unaliased_logits(self, env, eo_cfg,
                                                   conv_sim):
        model, x = conv_sim
        first = noisy_inference(model, x, None, eo_cfg, env, 0.8, seed=7)
        second = noisy_inference(model, x, None, eo_cfg, env, 0.8, seed=7)
        assert first.logits.tobytes() == second.logits.tobytes()
        assert not np.shares_memory(first.logits, second.logits)
        assert not lent(first.logits) and not lent(second.logits)
        kept = second.logits.copy()
        first.logits[...] = np.nan
        noisy_inference(model, x, None, eo_cfg, env, 0.8, seed=7)
        assert second.logits.tobytes() == kept.tobytes()

    def test_reference_logits_are_not_lent(self, conv_sim):
        model, x = conv_sim
        logits, _ = bnn.reference_inference(model, x)
        assert not lent(logits)


@pytest.fixture
def poisoned(monkeypatch):
    """Every array the workspace hands out filled with NaN (all bits set)
    first, so that a read before a write shows in the results."""
    take = _kernels.Workspace.take

    def poisoned_take(self, shape, dtype=_kernels._FLOAT):
        out = take(self, shape, dtype)
        out.view(np.uint8).fill(0xFF)
        return out

    monkeypatch.setattr(_kernels.Workspace, "take", poisoned_take)


@same_gemm
def test_poisoned_scratch_keeps_the_pinned_bits(env, eo_cfg, workloads,
                                                poisoned):
    for case in CASES:
        assert logits_digest(env, eo_cfg, *case) == PINS[case][KERNEL]
    digests, problems = workloads.ConvSim(None, False).digest()
    assert problems == []
    assert digests["logits"] == CONV_SIM_LOGITS[KERNEL]


def test_kept_bytes_stay_under_the_cap_and_do_not_grow(env, eo_cfg,
                                                       conv_sim):
    model, x = conv_sim
    rng = np.random.Generator(np.random.PCG64(11))
    big = rng.uniform(0.0, 1.0, (1024,) + x.shape[1:])

    def walks():
        for batch in (x, big, x):
            noisy_inference(model, batch, None, eo_cfg, env, 0.8, seed=7)
        return WORKSPACE.kept

    first = walks()
    assert 0 < first <= _kernels.WORKSPACE_BYTES
    assert walks() == first


# Minor faults of one 64-image conv-sim noisy_inference after three
# warm-up passes: 0-5 measured on Linux (glibc 2.36, numpy 2.4, 2 vCPUs),
# against about 3,400 when each pass allocated its own scratch.
FAULTS_AFTER_WARM_UP = 64

FAULT_PROBE = textwrap.dedent("""
    import json, resource, sys
    sys.path[:0] = sys.argv[1:3]
    import workloads
    from mrbnn import simulator
    w = workloads.ConvSim(None, False)
    faults = []
    for seed in range(4):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        simulator.noisy_inference(w.model, w.x, None, w.arch, w.env, 0.8,
                                  seed=seed)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                      - before)
    print(json.dumps(faults))
""")


def test_a_warm_pass_barely_faults():
    pytest.importorskip("resource")
    done = subprocess.run(
        [sys.executable, "-c", FAULT_PROBE, str(ROOT / "src"),
         str(ROOT / "bench")],
        capture_output=True, text=True, check=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    faults = json.loads(done.stdout)
    assert faults[-1] < FAULTS_AFTER_WARM_UP, faults
