"""Checkpoint persistence: manifest.json plus weights.bin in one directory.

The manifest carries the format version, a verbatim config snapshot, the
optimizer settings and epoch, and {name, shape} records in three groups:
parameters, optimizer velocities, and named buffers such as batch-norm
running statistics. weights.bin holds each recorded array's own little-endian
float64 bytes, back to back in manifest order, then a uint32 crc32 of the
manifest file's bytes followed by that payload (the VGFT trailer layout).
A record's position follows from the order and shapes before it.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .model import MODEL_FIELDS, MODEL_TYPES, VideoGraphConfig, model_type_name
from .optim import SETTINGS, SgdMomentum

FORMAT_VERSION = 2
MANIFEST_NAME = "manifest.json"
WEIGHTS_NAME = "weights.bin"
_CRC = struct.Struct("<I")


class CheckpointError(ValueError):
    """Malformed or corrupted checkpoint."""


def _groups(model, optimizer: SgdMomentum) -> dict[str, dict[str, np.ndarray]]:
    """The stored arrays by record group, in payload order."""
    buffers = {}
    for name, bn in model.bn_states().items():
        buffers[f"{name}.running_mean"] = bn.running_mean
        buffers[f"{name}.running_var"] = bn.running_var
    return {"params": {name: p.data for name, p in model.named_parameters().items()},
            "velocities": optimizer.velocity,
            "buffers": buffers}


def _seal(manifest_bytes: bytes, payload: bytes) -> int:
    return zlib.crc32(payload, zlib.crc32(manifest_bytes)) & 0xFFFFFFFF


def _write_sealed(path: Path, manifest: dict, payload: bytes) -> None:
    """Write weights.bin (payload plus the seal over manifest and payload), then manifest.json."""
    manifest_bytes = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
    (path / WEIGHTS_NAME).write_bytes(payload + _CRC.pack(_seal(manifest_bytes, payload)))
    (path / MANIFEST_NAME).write_bytes(manifest_bytes)


def save_checkpoint(model, optimizer: SgdMomentum, epoch: int, path,
                    config_snapshot: dict) -> Path:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    groups = _groups(model, optimizer)
    for name, arr in groups["params"].items():
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"refusing to checkpoint non-finite parameter {name!r}")
    manifest = {
        "format_version": FORMAT_VERSION,
        "model_type": model_type_name(model),
        "config": config_snapshot,
        "epoch": int(epoch),
        "bn_initialized": all(bn.initialized for bn in model.bn_states().values()),
        "optimizer": {name: getattr(optimizer, name) for name in SETTINGS},
        **{group: [{"name": name, "shape": list(arr.shape)} for name, arr in arrays.items()]
           for group, arrays in groups.items()},
    }
    payload = b"".join(np.ascontiguousarray(arr, dtype="<f8").tobytes()
                       for arrays in groups.values() for arr in arrays.values())
    _write_sealed(path, manifest, payload)
    return path


def _read_group(payload: bytes, group: str, records: list[dict],
                targets: dict[str, np.ndarray], cursor: int) -> int:
    """Copy one group's records, which must name exactly `targets` with their
    shapes, from the payload at `cursor` on; returns the cursor after them."""
    for rec in records:
        name, shape = rec["name"], tuple(rec["shape"])
        if name not in targets:
            raise CheckpointError(f"{group} record {name!r} does not exist in the model")
        if shape != targets[name].shape:
            raise CheckpointError(f"{group} record {name!r}: manifest shape {shape} does not "
                                  f"match model shape {targets[name].shape}")
        count = int(np.prod(shape, dtype=np.int64))
        if cursor + 8 * count > len(payload):
            raise CheckpointError(f"{group} record {name!r}: record of {8 * count} bytes overruns "
                                  f"payload of {len(payload)} bytes")
        targets[name][...] = np.frombuffer(payload, dtype="<f8", count=count,
                                           offset=cursor).reshape(shape)
        cursor += 8 * count
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


def load_checkpoint(path) -> LoadedCheckpoint:
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.exists():
        raise CheckpointError(f"no {MANIFEST_NAME} in {path}")
    manifest_bytes = manifest_path.read_bytes()
    try:
        manifest = json.loads(manifest_bytes)
    except ValueError as exc:
        raise CheckpointError(f"{manifest_path} is not JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{manifest_path} must hold a JSON object, "
                              f"not a {type(manifest).__name__}")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(f"checkpoint format version {manifest.get('format_version')!r} "
                              f"cannot be read; this build reads version {FORMAT_VERSION}")
    blob = (path / WEIGHTS_NAME).read_bytes()
    if len(blob) < _CRC.size:
        raise CheckpointError(f"{WEIGHTS_NAME} of {len(blob)} bytes is too short to hold its crc")
    payload = blob[:-_CRC.size]
    (stored,) = _CRC.unpack_from(blob, len(payload))
    crc = _seal(manifest_bytes, payload)
    if crc != stored:
        raise CheckpointError(f"manifest and payload crc mismatch: stored {stored:#010x}, "
                              f"computed {crc:#010x}")

    missing = [key for key in ("model_type", "config", "epoch") if key not in manifest]
    if missing:
        raise CheckpointError(f"{manifest_path} lacks key(s) {missing}")
    model_type, epoch = manifest["model_type"], manifest["epoch"]
    if model_type not in MODEL_TYPES:
        raise CheckpointError(f"unknown model type {model_type!r}")
    if type(epoch) is not int or epoch < 0:  # excludes bool
        raise CheckpointError(f"manifest key 'epoch' must be a non-negative integer; "
                              f"got {epoch!r}")
    bn_init = manifest.get("bn_initialized")
    if type(bn_init) is not bool:
        raise CheckpointError(f"manifest key 'bn_initialized' must be true or false; got {bn_init!r}")
    settings = manifest.get("optimizer", {})
    if not isinstance(settings, dict):
        raise CheckpointError(f"manifest key 'optimizer' must be a JSON object; got {settings!r}")
    missing, extra = sorted(set(SETTINGS) - set(settings)), sorted(set(settings) - set(SETTINGS))
    if missing or extra:
        raise CheckpointError(f"manifest key 'optimizer' lacks {missing} and has unknown {extra}")
    snapshot = manifest["config"]
    missing = [name for name in MODEL_FIELDS if name not in snapshot]
    if missing:
        raise CheckpointError(f"config snapshot lacks model key(s) {missing}")
    config = VideoGraphConfig(**{name: snapshot[name] for name in MODEL_FIELDS})
    # parameters are overwritten below, so build with a data-free init strategy
    model = MODEL_TYPES[model_type](replace(config, init_strategy="random"))
    model.config = config
    optimizer = SgdMomentum(model.named_parameters(), **settings)

    cursor = 0
    for group, targets in _groups(model, optimizer).items():
        cursor = _read_group(payload, group, manifest.get(group, []), targets, cursor)
    if cursor != len(payload):
        raise CheckpointError(f"payload has {len(payload) - cursor} trailing bytes")

    for bn in model.bn_states().values():
        bn.initialized = bn_init
    return LoadedCheckpoint(model=model, optimizer=optimizer, epoch=epoch, config=snapshot)
