"""Checkpoint container: JSON header + raw little-endian float64 tensors.

Layout: 4-byte little-endian header length, the UTF-8 JSON header, then the
parameter tensors concatenated in layer order (within a layer, sorted by
parameter name). The header carries format_version, the architecture config,
a tensor manifest, and any run metadata the caller supplies.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .layers import layer_from_config
from .network import Network

FORMAT_VERSION = 1


def save_checkpoint(net: Network, path, metadata: dict | None = None) -> None:
    items = net.param_items()
    header = {
        "format_version": FORMAT_VERSION,
        "architecture": net.config(),
        "tensors": [{"name": n, "shape": list(p.shape)} for n, p in items],
        "metadata": metadata or {},
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for _, p in items:
            f.write(np.ascontiguousarray(p, dtype="<f8").tobytes())


class CheckpointError(ValueError):
    """A checkpoint file is truncated, malformed, or has trailing bytes."""


def _parse_header(f, name: str) -> dict:
    raw = f.read(4)
    if len(raw) < 4:
        raise CheckpointError(f"{name}: truncated checkpoint header")
    (hlen,) = struct.unpack("<I", raw)
    blob = f.read(hlen)
    if len(blob) != hlen:
        raise CheckpointError(f"{name}: truncated checkpoint header")
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{name}: checkpoint header is not valid JSON: {e}") from None
    if not isinstance(header, dict):
        raise CheckpointError(f"{name}: checkpoint header must be a JSON object")
    return header


def load_checkpoint(path) -> tuple[Network, dict]:
    """Rebuild the network and its parameters; returns (net, header).

    Raises CheckpointError unless the file is exactly one header followed by
    the tensors it lists, and the header lists each of the architecture's
    tensors exactly once.
    """
    path = Path(path)
    with open(path, "rb") as f:
        header = _parse_header(f, path.name)
        version = header.get("format_version")
        if type(version) is not int or version != FORMAT_VERSION:
            raise CheckpointError(f"{path.name}: unsupported format_version {version!r}")
        try:
            arch = header["architecture"]
            net = Network([layer_from_config(c) for c in arch["layers"]],
                          tuple(arch["input_shape"]))
            entries = [(e["name"], tuple(e["shape"])) for e in header["tensors"]]
            for name, _ in entries:
                if not isinstance(name, str):
                    raise ValueError(f"tensor name must be a string, got {name!r}")
        except (KeyError, TypeError, ValueError) as e:
            raise CheckpointError(f"{path.name}: malformed checkpoint header: {e}") from None
        params = dict(net.param_items())
        for name, shape in entries:
            target = params.pop(name, None)  # so a second listing finds nothing
            if target is None or target.shape != shape:
                raise CheckpointError(
                    f"{path.name}: tensor {name} shape {shape} does not match architecture "
                    f"{'(unknown or listed twice)' if target is None else target.shape}"
                )
            buf = f.read(target.size * 8)
            if len(buf) != target.size * 8:
                raise CheckpointError(f"{path.name}: truncated tensor {name}")
            target[...] = np.frombuffer(buf, dtype="<f8").reshape(target.shape)
        if params:
            raise CheckpointError(f"{path.name}: header omits tensors {sorted(params)}")
        if f.read(1):
            raise CheckpointError(f"{path.name}: trailing bytes after the last tensor")
    return net, header
