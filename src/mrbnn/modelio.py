"""Model file format: YAML header plus little-endian float32 payload.

Layout:

    MRBNN1\\n
    <header byte length, decimal>\\n
    <UTF-8 YAML header>
    <binary payload>

The header lists layers, tensor shapes/offsets and a CRC32 of the payload,
verified on load. Tensors are float32, little-endian, row-major, in layer
order (weights first, then the four batch-norm vectors where present).
"""

from __future__ import annotations

import io
import zlib

import numpy as np

from .bnn import Layer, LayerKind, QuantModel
from .errors import DataFormatError

MAGIC = b"MRBNN1\n"
FORMAT_VERSION = 1
_DTYPE = np.dtype("<f4")


def _layer_header(layer: Layer) -> dict:
    if layer.kind == LayerKind.FULLY_CONNECTED:
        return {"kind": "fully_connected",
                "shape": list(layer.weights.shape),
                "binarized": bool(layer.binarized)}
    if layer.kind == LayerKind.CONV2D:
        return {"kind": "conv2d", "shape": list(layer.weights.shape),
                "stride": int(layer.stride),
                "binarized": bool(layer.binarized)}
    if layer.kind == LayerKind.BATCH_NORM:
        return {"kind": "batch_norm", "channels": int(layer.bn_gamma.size),
                "epsilon": float(layer.bn_epsilon)}
    if layer.kind == LayerKind.ACTIVATION:
        return {"kind": "activation", "activation": layer.activation,
                "quantize": bool(layer.quantize),
                "act_range": [float(layer.act_range[0]),
                              float(layer.act_range[1])]}
    if layer.kind == LayerKind.POOL:
        return {"kind": "pool", "window": int(layer.pool_window),
                "mode": layer.pool_mode}
    raise DataFormatError(f"unsupported layer kind {layer.kind}")


def _layer_tensors(index: int, layer: Layer) -> list[tuple[str, np.ndarray]]:
    if layer.weighted:
        return [(f"layer{index}.weights", layer.weights)]
    if layer.kind == LayerKind.BATCH_NORM:
        return [(f"layer{index}.bn_gamma", layer.bn_gamma),
                (f"layer{index}.bn_beta", layer.bn_beta),
                (f"layer{index}.bn_mean", layer.bn_mean),
                (f"layer{index}.bn_var", layer.bn_var)]
    return []


def save_model(model: QuantModel, path: str,
               metadata: dict | None = None) -> None:
    """Write the model; payload tensors are cast to little-endian float32."""
    payload = io.BytesIO()
    tensor_headers = []
    for i, layer in enumerate(model.layers):
        for name, arr in _layer_tensors(i, layer):
            data = np.ascontiguousarray(arr, dtype=_DTYPE).tobytes()
            tensor_headers.append({
                "name": name, "dtype": "<f4",
                "shape": list(np.asarray(arr).shape),
                "byte_offset": payload.tell(), "byte_len": len(data)})
            payload.write(data)
    blob = payload.getvalue()
    header = {
        "format_version": FORMAT_VERSION,
        "activation_bits": int(model.activation_bits),
        "last_layer_full_precision": bool(model.last_layer_full_precision),
        "metadata": dict(metadata or {}),
        "layers": [_layer_header(l) for l in model.layers],
        "tensors": tensor_headers,
        "payload_crc32": zlib.crc32(blob) & 0xFFFFFFFF,
    }
    import yaml     # here, so that a run that reads no YAML never loads it
    header_bytes = yaml.safe_dump(header, sort_keys=False).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(f"{len(header_bytes)}\n".encode("ascii"))
        fh.write(header_bytes)
        fh.write(blob)


def _read_tensor(blob: bytes, th: dict) -> np.ndarray:
    start = th["byte_offset"]
    end = start + th["byte_len"]
    if end > len(blob):
        raise DataFormatError(f"tensor {th['name']} overruns the payload")
    arr = np.frombuffer(blob[start:end], dtype=np.dtype(th["dtype"]))
    expect = int(np.prod(th["shape"])) if th["shape"] else 1
    if arr.size != expect:
        raise DataFormatError(f"tensor {th['name']} size mismatch")
    return arr.reshape(th["shape"]).astype(np.float64)


def load_model(path: str) -> tuple[QuantModel, dict]:
    """Read a model file; raises DataFormatError on any inconsistency."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(MAGIC):
        raise DataFormatError("bad magic: not a model file")
    rest = raw[len(MAGIC):]
    nl = rest.find(b"\n")
    if nl < 0:
        raise DataFormatError("truncated header length line")
    try:
        header_len = int(rest[:nl].decode("ascii"))
    except ValueError as exc:
        raise DataFormatError("malformed header length") from exc
    header_bytes = rest[nl + 1:nl + 1 + header_len]
    if len(header_bytes) != header_len:
        raise DataFormatError("truncated header")
    import yaml
    try:
        header = yaml.safe_load(header_bytes.decode("utf-8"))
    except yaml.YAMLError as exc:
        raise DataFormatError(f"malformed header YAML: {exc}") from exc
    if not isinstance(header, dict):
        raise DataFormatError("header is not a mapping")
    if header.get("format_version") != FORMAT_VERSION:
        raise DataFormatError(
            f"unsupported format version {header.get('format_version')!r}")
    try:
        return _parse(header, rest[nl + 1 + header_len:])
    except KeyError as exc:
        raise DataFormatError(f"missing header entry {exc}") from exc
    except (TypeError, ValueError) as exc:   # DomainError is a ValueError
        raise DataFormatError(f"invalid model: {exc}") from exc


def _parse(header: dict, blob: bytes) -> tuple[QuantModel, dict]:
    declared = sum(t["byte_len"] for t in header["tensors"])
    if len(blob) != declared:
        raise DataFormatError(
            f"payload length {len(blob)} != declared {declared}")
    crc = zlib.crc32(blob) & 0xFFFFFFFF
    if crc != header["payload_crc32"]:
        raise DataFormatError(
            f"payload checksum mismatch: {crc:#x} != "
            f"{header['payload_crc32']:#x}")

    tensors = {t["name"]: _read_tensor(blob, t) for t in header["tensors"]}
    layers: list[Layer] = []
    for i, lh in enumerate(header["layers"]):
        kind = lh["kind"]
        if kind == "fully_connected":
            layers.append(Layer(LayerKind.FULLY_CONNECTED,
                                weights=tensors[f"layer{i}.weights"],
                                binarized=lh["binarized"]))
        elif kind == "conv2d":
            layers.append(Layer(LayerKind.CONV2D,
                                weights=tensors[f"layer{i}.weights"],
                                binarized=lh["binarized"],
                                stride=lh["stride"]))
        elif kind == "batch_norm":
            layers.append(Layer(LayerKind.BATCH_NORM,
                                bn_gamma=tensors[f"layer{i}.bn_gamma"],
                                bn_beta=tensors[f"layer{i}.bn_beta"],
                                bn_mean=tensors[f"layer{i}.bn_mean"],
                                bn_var=tensors[f"layer{i}.bn_var"],
                                bn_epsilon=lh["epsilon"]))
        elif kind == "activation":
            layers.append(Layer(LayerKind.ACTIVATION,
                                activation=lh["activation"],
                                quantize=lh["quantize"],
                                act_range=tuple(lh["act_range"])))
        elif kind == "pool":
            layers.append(Layer(LayerKind.POOL, pool_window=lh["window"],
                                pool_mode=lh["mode"]))
        else:
            raise DataFormatError(f"unknown layer kind {kind!r}")
    model = QuantModel(tuple(layers),
                       activation_bits=header["activation_bits"],
                       last_layer_full_precision=header[
                           "last_layer_full_precision"])
    return model, header.get("metadata", {})
