"""Checkpoint format: JSON manifest line + raw little-endian float64 blob.

The first line of the file is a UTF-8 JSON manifest holding the format
version ("infostat-ckpt-2"), the model configuration, and for every tensor
its name, shape, byte offset and byte length within the blob that follows
the newline. Tensors are serialized as little-endian 64-bit reals in
manifest order, so a load(save(params)) round trip is bit-exact.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..fileio import atomic_write
from .config import ModelConfig
from .params import Params, param_shapes

FORMAT_VERSION = "infostat-ckpt-2"


class CheckpointError(ValueError):
    """Corrupt or inconsistent checkpoint content."""


def save_checkpoint(params: Params, config: ModelConfig, path: str | Path,
                    extra: dict | None = None) -> None:
    tensors = []
    blobs = []
    offset = 0
    for name, tensor in params.items():
        data = np.ascontiguousarray(tensor, dtype="<f8").tobytes()
        tensors.append({"name": name, "shape": list(tensor.shape),
                        "offset": offset, "nbytes": len(data)})
        blobs.append(data)
        offset += len(data)
    manifest = {"version": FORMAT_VERSION, "endianness": "little",
                "dtype": "float64", "config": asdict(config),
                "tensors": tensors, "extra": extra or {}}
    with atomic_write(path) as fh:
        fh.write(json.dumps(manifest, ensure_ascii=False,
                            sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path: str | Path) -> tuple[Params, ModelConfig, dict]:
    """Read a checkpoint; returns (params, config, extra manifest fields)."""
    raw = Path(path).read_bytes()
    newline = raw.find(b"\n")
    if newline < 0:
        raise CheckpointError(f"corrupt checkpoint {path}: no manifest line")
    try:
        manifest = json.loads(raw[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise CheckpointError(f"corrupt checkpoint {path}: bad manifest "
                              f"({err})") from None
    if not isinstance(manifest, dict) or manifest.get("version") != FORMAT_VERSION:
        raise CheckpointError(f"corrupt checkpoint {path}: expected version "
                              f"{FORMAT_VERSION!r}")
    if manifest.get("endianness") != "little":
        raise CheckpointError(f"corrupt checkpoint {path}: unsupported "
                              "endianness tag")
    try:
        config = ModelConfig(**manifest["config"])
    except (KeyError, TypeError, ValueError) as err:
        raise CheckpointError(f"corrupt checkpoint {path}: bad config "
                              f"({err})") from None

    extra = manifest.get("extra", {})
    if not isinstance(extra, dict):
        raise CheckpointError(f"corrupt checkpoint {path}: 'extra' must be "
                              "an object")
    blob = raw[newline + 1:]
    expected = param_shapes(config)
    entries = manifest.get("tensors", [])
    if not (isinstance(entries, list)
            and all(isinstance(entry, dict) for entry in entries)):
        raise CheckpointError(f"corrupt checkpoint {path}: 'tensors' must be "
                              "a list of objects")
    names = [entry.get("name") for entry in entries]
    if names != list(expected.keys()):
        raise CheckpointError(f"corrupt checkpoint {path}: tensor list does "
                              "not match the model configuration")
    params: Params = {}
    for entry in entries:
        name, shape = entry["name"], entry.get("shape")
        nbytes, offset = entry.get("nbytes"), entry.get("offset")
        if not (isinstance(shape, list)
                and all(type(n) is int for n in [*shape, nbytes, offset])):
            raise CheckpointError(f"corrupt checkpoint {path}: tensor "
                                  f"{name!r} needs a 'shape' list and "
                                  "'nbytes' and 'offset', all integers")
        shape = tuple(shape)
        if shape != expected[name]:
            raise CheckpointError(f"corrupt checkpoint {path}: shape mismatch "
                                  f"for tensor {name!r}: manifest says "
                                  f"{shape}, config implies {expected[name]}")
        if nbytes != int(np.prod(shape)) * 8:
            raise CheckpointError(f"corrupt checkpoint {path}: shape mismatch "
                                  f"for tensor {name!r}: {nbytes} bytes "
                                  f"cannot hold shape {shape}")
        if offset < 0 or offset + nbytes > len(blob):
            raise CheckpointError(f"corrupt checkpoint {path}: tensor "
                                  f"{name!r} extends past end of file")
        tensor = np.frombuffer(blob[offset:offset + nbytes],
                               dtype="<f8").reshape(shape)
        tensor = tensor.astype(np.dtype(config.dtype))
        if not np.all(np.isfinite(tensor)):
            raise CheckpointError(f"corrupt checkpoint {path}: non-finite "
                                  f"values in tensor {name!r}")
        params[name] = tensor
    return params, config, extra
