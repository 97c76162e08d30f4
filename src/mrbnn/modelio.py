"""Model file format: YAML header plus little-endian float32 payload.

Layout:

    MRBNN1\\n
    <header byte length, decimal>\\n
    <UTF-8 YAML header>
    <binary payload>

The header lists layers, tensor shapes/offsets and a CRC32 of the payload,
verified on load. Tensors are float32 (``<f4``), little-endian, row-major,
in layer order (weights first, then the four batch-norm vectors where
present), each starting where the one before it ends.

``_SCHEMA`` gives each layer kind's header entries in file order, as (key,
``Layer`` attribute or None when derived from a tensor, format), and its
tensors in payload order. ``save_model`` and ``_parse`` both walk it.
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

# format -> (what the reader accepts, the writer, the reader's check)
_FORMATS = {
    "bool": ("a boolean", bool, lambda v: type(v) is bool),
    "int": ("an integer", int, lambda v: type(v) is int),
    "float": ("a number", float, lambda v: type(v) in (int, float)),
    "str": ("a string", str, lambda v: type(v) is str),
    "range": ("a list of two numbers", lambda r: [float(x) for x in r],
              lambda v: type(v) is list and len(v) == 2
              and all(type(x) in (int, float) for x in v)),
    "shape": ("a list of integers", lambda l: list(np.shape(l.weights)),
              lambda v: type(v) is list and all(type(x) is int for x in v)),
    "channels": ("an integer", lambda l: int(np.size(l.bn_gamma)),
                 lambda v: type(v) is int),
}
_MODEL = (("activation_bits", "activation_bits", "int"),
          ("last_layer_full_precision", "last_layer_full_precision", "bool"))
_SCHEMA = {
    LayerKind.FULLY_CONNECTED: ((("shape", None, "shape"),
                                 ("binarized", "binarized", "bool")),
                                ("weights",)),
    LayerKind.CONV2D: ((("shape", None, "shape"), ("stride", "stride", "int"),
                        ("binarized", "binarized", "bool")), ("weights",)),
    LayerKind.BATCH_NORM: ((("channels", None, "channels"),
                            ("epsilon", "bn_epsilon", "float")),
                           ("bn_gamma", "bn_beta", "bn_mean", "bn_var")),
    LayerKind.ACTIVATION: ((("activation", "activation", "str"),
                            ("quantize", "quantize", "bool"),
                            ("act_range", "act_range", "range")), ()),
    LayerKind.POOL: ((("window", "pool_window", "int"),
                      ("mode", "pool_mode", "str")), ()),
}


def _write(obj, entries) -> dict:
    return {key: _FORMATS[fmt][1](getattr(obj, attr) if attr else obj)
            for key, attr, fmt in entries}


def _read(where: str, h: dict, entries) -> dict:
    """The attributes of header mapping ``h``, its entries type-checked."""
    for key, _, fmt in entries:
        if not _FORMATS[fmt][2](h[key]):
            raise DataFormatError(f"{where}header entry {key!r} is not "
                                  f"{_FORMATS[fmt][0]}: {h[key]!r}")
    return {attr: tuple(h[key]) if fmt == "range" else h[key]
            for key, attr, fmt in entries if attr}


def save_model(model: QuantModel, path: str,
               metadata: dict | None = None) -> None:
    """Write the model; payload tensors are cast to little-endian float32."""
    payload = io.BytesIO()
    tensor_headers = []
    for i, layer in enumerate(model.layers):
        for name in _SCHEMA[layer.kind][1]:
            arr = getattr(layer, name)
            data = np.ascontiguousarray(arr, dtype=_DTYPE).tobytes()
            tensor_headers.append({
                "name": f"layer{i}.{name}", "dtype": "<f4",
                "shape": list(np.asarray(arr).shape),
                "byte_offset": payload.tell(), "byte_len": len(data)})
            payload.write(data)
    blob = payload.getvalue()
    header = {
        "format_version": FORMAT_VERSION,
        **_write(model, _MODEL),
        "metadata": dict(metadata or {}),
        "layers": [{"kind": l.kind.value, **_write(l, _SCHEMA[l.kind][0])}
                   for l in model.layers],
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


def _read_tensor(blob: bytes, th: dict, start: int) -> np.ndarray:
    """The tensor of header entry ``th``, which must be float32 and start
    at byte ``start``, where the tensors before it end."""
    if th["dtype"] != _DTYPE.str:
        raise DataFormatError(f"tensor {th['name']} has dtype "
                              f"{th['dtype']!r}, not {_DTYPE.str!r}")
    if th["byte_offset"] != start:
        raise DataFormatError(f"tensor {th['name']} starts at byte "
                              f"{th['byte_offset']!r}, not at byte {start}, "
                              f"where the tensors before it end")
    end = start + th["byte_len"]
    if end > len(blob):
        raise DataFormatError(f"tensor {th['name']} overruns the payload")
    arr = np.frombuffer(blob[start:end], dtype=_DTYPE)
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
    tensors, start = {}, 0
    for t in header["tensors"]:     # they tile the payload in header order
        tensors[t["name"]] = _read_tensor(blob, t, start)
        start += t["byte_len"]
    layers: list[Layer] = []
    for i, lh in enumerate(header["layers"]):
        kind = next((k for k in _SCHEMA if k.value == lh["kind"]), None)
        if kind is None:
            raise DataFormatError(f"unknown layer kind {lh['kind']!r}")
        entries, names = _SCHEMA[kind]
        layers.append(Layer(kind, **_read(f"layer {i}: ", lh, entries),
                            **{n: tensors[f"layer{i}.{n}"] for n in names}))
    model = QuantModel(tuple(layers), **_read("", header, _MODEL))
    # last, so that a payload that makes the model invalid reports that
    for i, (lh, layer) in enumerate(zip(header["layers"], model.layers)):
        for key, v in _write(layer, _SCHEMA[layer.kind][0]).items():
            if lh[key] != v:    # only a derived entry can differ
                raise DataFormatError(f"layer {i}: header entry {key!r} is "
                                      f"{lh[key]!r}; the payload has {v!r}")
    return model, header.get("metadata", {})
