"""Single-file model serialization.

Layout: the magic bytes ``FENET1``, a big-endian uint32 header length, a
canonical JSON header (layer kinds and hyperparameters, input shape, class
count), then every parameter tensor in declared order as little-endian
float64, row-major. Round-trips are bit-exact.
"""

import json
import math

import numpy as np

from .nn import Network, layer_from_header
from .util import is_int, rewrite

MAGIC = b"FENET1"


class ModelFormatError(ValueError):
    """File is not a well-formed serialized model."""


def _header_dict(net: Network) -> dict:
    return {
        "input_shape": list(net.input_shape),
        "num_classes": net.num_classes,
        "layers": [layer.header() for layer in net.layers],
    }


def save_network(net: Network, path) -> None:
    header = json.dumps(_header_dict(net), sort_keys=True, separators=(",", ":")).encode()
    params = [np.ascontiguousarray(p, dtype="<f8").tobytes() for layer in net.layers for p in layer.params]
    rewrite(path, b"".join([MAGIC, len(header).to_bytes(4, "big"), header, *params]))


def load_network(path) -> Network:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise ModelFormatError(f"{path}: bad magic, not a model file")
    off = len(MAGIC)
    if len(blob) < off + 4:
        raise ModelFormatError(f"{path}: truncated header length")
    hlen = int.from_bytes(blob[off : off + 4], "big")
    off += 4
    if len(blob) < off + hlen:
        raise ModelFormatError(f"{path}: truncated header")
    try:
        header = json.loads(blob[off : off + hlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise ModelFormatError(f"{path}: unreadable header ({e})") from e
    off += hlen

    # Bind shapes first so parameter sizes are known, then slice the blob.
    try:
        layers, input_shape, num_classes = _bind_header(header)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ModelFormatError(f"{path}: bad header ({e})") from e
    for layer in layers:
        arrays = []
        for s in layer.param_shapes():
            n = math.prod(s)
            nbytes = n * 8
            if len(blob) < off + nbytes:
                raise ModelFormatError(
                    f"{path}: truncated parameters at byte {off} (need {nbytes} more)"
                )
            arrays.append(
                np.frombuffer(blob, dtype="<f8", count=n, offset=off)
                .astype(np.float64)
                .reshape(s)
            )
            if not np.isfinite(arrays[-1]).all():
                raise ModelFormatError(f"{path}: the parameter tensor at byte {off} holds a non-finite value")
            off += nbytes
        if arrays:
            layer.params = arrays
    if off != len(blob):
        raise ModelFormatError(f"{path}: {len(blob) - off} trailing bytes after parameters")
    try:
        return Network(layers, input_shape, num_classes)
    except ValueError as e:
        raise ModelFormatError(f"{path}: bad header ({e})") from e


def _bind_header(header):
    """(layers bound to the input shape, input shape, class count) from a parsed header."""
    if not isinstance(header, dict) or not isinstance(header.get("layers"), list):
        raise ValueError("expected an object with a layers list")
    input_shape, num_classes = header["input_shape"], header["num_classes"]
    if not (isinstance(input_shape, list) and input_shape and all(is_int(d) and d >= 1 for d in input_shape)):
        raise ValueError(f"input_shape must be a list of positive integers, got {input_shape!r}")
    if not (is_int(num_classes) and num_classes >= 1):
        raise ValueError(f"num_classes must be a positive integer, got {num_classes!r}")
    layers = [layer_from_header(h) for h in header["layers"]]
    shape = tuple(input_shape)
    for layer in layers:
        shape = layer.bind(shape)
    return layers, tuple(input_shape), num_classes
