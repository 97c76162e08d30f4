import sys
from pathlib import Path

import numpy as np
import pytest

from mrbnn import _kernels, bnn, config
from mrbnn.photonics import RingClass

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="session")
def toolkit_config():
    return config.ToolkitConfig()


@pytest.fixture(scope="session")
def env(toolkit_config):
    return config.build_environment(toolkit_config)


@pytest.fixture(scope="session")
def designs(toolkit_config):
    return config.build_designs(toolkit_config)


@pytest.fixture(scope="session")
def multibit(designs):
    return designs[RingClass.MULTI_BIT]


@pytest.fixture(scope="session")
def toy_data(toolkit_config):
    t = toolkit_config.training
    return bnn.make_blobs(t.n_train, t.n_test, t.n_features, t.n_classes,
                          t.cluster_std, t.dataset_seed)


@pytest.fixture(scope="session")
def toy_model(toolkit_config, toy_data):
    t = toolkit_config.training
    model = bnn.make_mlp([t.n_features, *t.hidden_sizes, t.n_classes],
                         seed=t.model_seed, activation_bits=t.activation_bits)
    trained, _losses = bnn.ste_train(model, toy_data.x_train,
                                     toy_data.y_train, epochs=t.epochs,
                                     lr=t.learning_rate, seed=t.model_seed)
    return trained


@pytest.fixture
def level_calls(monkeypatch):
    """The input shape of each noisy-kernel call that takes the
    level-table path."""
    calls = []
    original = _kernels._level_gemm

    def spy(*args):
        calls.append(args[0].shape)
        return original(*args)

    monkeypatch.setattr(_kernels, "_level_gemm", spy)
    return calls


@pytest.fixture
def input_major_calls(monkeypatch):
    """The input shape of each noisy-kernel call that takes the
    input-major form."""
    calls = []
    original = _kernels._input_major

    def spy(acts, *args):
        calls.append(acts.shape)
        return original(acts, *args)

    monkeypatch.setattr(_kernels, "_input_major", spy)
    return calls


@pytest.fixture(scope="session")
def workloads():
    """The benchmark's workload module, ``bench/workloads.py``."""
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


@pytest.fixture(scope="session")
def conv_sim(workloads):
    """The model and the 64 images of the conv-sim workload at its default
    seed."""
    workload = workloads.ConvSim(None, False)
    return workload.model, workload.x
