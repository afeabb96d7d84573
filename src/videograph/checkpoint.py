"""Checkpoint persistence: manifest.json plus weights.bin in one directory.

The manifest carries the format version, a verbatim config snapshot, ordered
parameter records {name, shape, offset}, matching records for optimizer
velocities, the optimizer epoch, and a crc32 of the payload. The payload is
the concatenation of every recorded array as little-endian float32 in
manifest order (parameters first, then velocities, then named buffers such
as batch-norm running statistics).
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .model import MODEL_FIELDS, MODEL_TYPES, VideoGraphConfig, model_type_name
from .optim import SgdMomentum

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
WEIGHTS_NAME = "weights.bin"


class CheckpointError(ValueError):
    """Malformed or corrupted checkpoint."""


def _records(arrays: dict[str, np.ndarray], offset: int) -> tuple[list[dict], bytes, int]:
    recs, chunks = [], []
    for name, arr in arrays.items():
        blob = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        recs.append({"name": name, "shape": list(arr.shape), "offset": offset})
        chunks.append(blob)
        offset += len(blob)
    return recs, b"".join(chunks), offset


def _buffer_arrays(model) -> dict[str, np.ndarray]:
    buffers = {}
    for name, bn in model.bn_states().items():
        buffers[f"{name}.running_mean"] = bn.running_mean
        buffers[f"{name}.running_var"] = bn.running_var
    return buffers


def save_checkpoint(model, optimizer: SgdMomentum, epoch: int, path,
                    config_snapshot: dict | None = None) -> Path:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    params = {name: p.data for name, p in model.named_parameters().items()}
    for name, arr in params.items():
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"refusing to checkpoint non-finite parameter {name!r}")

    param_recs, param_blob, offset = _records(params, 0)
    vel_recs, vel_blob, offset = _records(optimizer.velocity, offset)
    buf_recs, buf_blob, offset = _records(_buffer_arrays(model), offset)
    payload = param_blob + vel_blob + buf_blob

    manifest = {
        "format_version": FORMAT_VERSION,
        "model_type": model_type_name(model),
        "config": config_snapshot if config_snapshot is not None else model.config.to_dict(),
        "epoch": int(epoch),
        "bn_initialized": all(bn.initialized for bn in model.bn_states().values()),
        "params": param_recs,
        "velocities": vel_recs,
        "buffers": buf_recs,
        "optimizer": {"learning_rate": optimizer.learning_rate,
                      "momentum": optimizer.momentum,
                      "weight_decay": optimizer.weight_decay},
        "crc32": zlib.crc32(payload) & 0xFFFFFFFF,
    }
    (path / WEIGHTS_NAME).write_bytes(payload)
    (path / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _read_group(payload: bytes, manifest: dict, group: str, targets: dict[str, np.ndarray],
                cursor: int) -> int:
    """Copy one record group ("params", "velocities" or "buffers") into its target arrays.

    The records must lie back to back from `cursor` and name exactly the
    targets, each with its shape. Returns the cursor after the group.
    """
    records = manifest.get(group, [])
    for rec in records:
        name, shape, offset = rec["name"], tuple(rec["shape"]), rec["offset"]
        if name not in targets:
            raise CheckpointError(f"{group} record {name!r} does not exist in the model")
        if shape != targets[name].shape:
            raise CheckpointError(f"{group} record {name!r}: manifest shape {shape} does not "
                                  f"match model shape {targets[name].shape}")
        if offset != cursor:
            raise CheckpointError(f"{group} record {name!r}: offset {offset} breaks payload "
                                  f"contiguity (expected {cursor})")
        count = int(np.prod(shape, dtype=np.int64))
        cursor = offset + 4 * count
        if cursor > len(payload):
            raise CheckpointError(f"{group} record {name!r}: record of {4 * count} bytes overruns "
                                  f"payload of {len(payload)} bytes")
        targets[name][...] = np.frombuffer(payload, dtype="<f4", count=count,
                                           offset=offset).reshape(shape)
    missing = set(targets) - {rec["name"] for rec in records}
    if missing:
        raise CheckpointError(f"{group}: missing record(s) {sorted(missing)}")
    return cursor


@dataclass
class LoadedCheckpoint:
    model: object
    optimizer: SgdMomentum
    epoch: int
    config: dict
    model_type: str


def load_checkpoint(path) -> LoadedCheckpoint:
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.exists():
        raise CheckpointError(f"no {MANIFEST_NAME} in {path}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(f"unknown checkpoint format version {manifest.get('format_version')!r}")
    payload = (path / WEIGHTS_NAME).read_bytes()
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    if crc != manifest["crc32"]:
        raise CheckpointError(f"payload crc mismatch: stored {manifest['crc32']:#010x}, "
                              f"computed {crc:#010x}")

    model_type = manifest["model_type"]
    if model_type not in MODEL_TYPES:
        raise CheckpointError(f"unknown model type {model_type!r}")
    snapshot = manifest["config"]
    missing = [name for name in MODEL_FIELDS if name not in snapshot]
    if missing:
        raise CheckpointError(f"config snapshot lacks model key(s) {missing}")
    config = VideoGraphConfig(**{name: snapshot[name] for name in MODEL_FIELDS})
    config.validate()
    # parameters are overwritten below, so build with a data-free init strategy
    model = MODEL_TYPES[model_type](replace(config, init_strategy="random"))
    model.config = config

    params = model.named_parameters()
    cursor = _read_group(payload, manifest, "params",
                         {name: p.data for name, p in params.items()}, 0)
    optimizer = SgdMomentum(params, **manifest.get("optimizer", {}))
    cursor = _read_group(payload, manifest, "velocities", optimizer.velocity, cursor)
    cursor = _read_group(payload, manifest, "buffers", _buffer_arrays(model), cursor)
    if cursor != len(payload):
        raise CheckpointError(f"payload has {len(payload) - cursor} trailing bytes")

    if manifest.get("bn_initialized", False):
        for bn in model.bn_states().values():
            bn.initialized = True
    return LoadedCheckpoint(model=model, optimizer=optimizer, epoch=manifest["epoch"],
                            config=snapshot, model_type=model_type)
