from pathlib import Path

import numpy as np
import pytest

from mrbnn import bnn, modelio
from mrbnn.bnn import (QuantModel, activation_layer, batch_norm_layer,
                       conv_layer, fc_layer, pool_layer)
from mrbnn.errors import DataFormatError


@pytest.fixture
def sample_model():
    rng = np.random.Generator(np.random.PCG64(61))
    return QuantModel((
        conv_layer(rng.normal(size=(2, 1, 3, 3)), stride=2),
        batch_norm_layer(rng.uniform(0.5, 2, 2), np.zeros(2), np.zeros(2),
                         rng.uniform(0.1, 1, 2)),
        activation_layer(),
        pool_layer(2, "max"),
        fc_layer(rng.normal(size=(3, 2)), binarized=False)))


class TestRoundTrip:
    def test_save_load(self, sample_model, tmp_path):
        path = str(tmp_path / "m.mrbnn")
        modelio.save_model(sample_model, path, {"note": "test"})
        loaded, meta = modelio.load_model(path)
        assert meta == {"note": "test"}
        assert len(loaded.layers) == len(sample_model.layers)
        for a, b in zip(sample_model.layers, loaded.layers):
            assert a.kind == b.kind
            if a.weights is not None:
                assert np.allclose(a.weights, b.weights, atol=1e-6)

    def test_resave_is_byte_identical(self, sample_model, tmp_path):
        p1 = str(tmp_path / "a.mrbnn")
        p2 = str(tmp_path / "b.mrbnn")
        modelio.save_model(sample_model, p1, {"k": 1})
        loaded, meta = modelio.load_model(p1)
        modelio.save_model(loaded, p2, meta)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_float32_exact_after_first_cast(self, sample_model, tmp_path):
        path = str(tmp_path / "m.mrbnn")
        modelio.save_model(sample_model, path)
        first, _ = modelio.load_model(path)
        modelio.save_model(first, path)
        second, _ = modelio.load_model(path)
        for a, b in zip(first.layers, second.layers):
            if a.weights is not None:
                assert np.array_equal(a.weights, b.weights)

    def test_quantization_policy_preserved(self, tmp_path):
        model = QuantModel((fc_layer(np.ones((2, 2))),),
                           activation_bits=6,
                           last_layer_full_precision=False)
        path = str(tmp_path / "m.mrbnn")
        modelio.save_model(model, path)
        loaded, _ = modelio.load_model(path)
        assert loaded.activation_bits == 6
        assert loaded.last_layer_full_precision is False


class TestCorruption:
    def write(self, model, path):
        modelio.save_model(model, str(path))
        return path.read_bytes()

    def test_payload_bit_flip_detected(self, sample_model, tmp_path):
        path = tmp_path / "m.mrbnn"
        raw = bytearray(self.write(sample_model, path))
        raw[-3] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="checksum"):
            modelio.load_model(str(path))

    def test_truncated_payload(self, sample_model, tmp_path):
        path = tmp_path / "m.mrbnn"
        raw = self.write(sample_model, path)
        path.write_bytes(raw[:-10])
        with pytest.raises(DataFormatError):
            modelio.load_model(str(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.mrbnn"
        path.write_bytes(b"NOTAMODEL")
        with pytest.raises(DataFormatError, match="magic"):
            modelio.load_model(str(path))

    def test_garbled_header_length(self, sample_model, tmp_path):
        path = tmp_path / "m.mrbnn"
        raw = bytearray(self.write(sample_model, path))
        raw[len(modelio.MAGIC)] = ord("x")
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError):
            modelio.load_model(str(path))
