"""Bit-exact binary container for per-video segment feature tensors (VGFT).

Layout, all little-endian:
    offset 0   magic b"VGFT"
    offset 4   version  uint16 (currently 1)
    offset 6   T, H, W, C  four uint32
    offset 22  payload  T*H*W*C float32, row-major [T, H, W, C]
    tail       crc32 of the payload bytes, uint32
"""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np

MAGIC = b"VGFT"
VERSION = 1
_HEADER = struct.Struct("<4sH4I")
_CRC = struct.Struct("<I")


class FeatureFileError(ValueError):
    """Malformed, truncated, or corrupted feature file."""


def write_feature_file(path, features: np.ndarray) -> None:
    """Write a (T, H, W, C) tensor; payload is stored as float32.

    Header, payload and crc go through one file handle: the payload is the
    float32 array's own buffer, never a bytes copy of it.
    """
    arr = np.asarray(features)
    if arr.ndim != 4:
        raise ValueError(f"features must be 4-D (T, H, W, C); got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("refusing to write non-finite features")
    payload = np.ascontiguousarray(arr, dtype="<f4")
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, VERSION, *arr.shape))
        f.write(payload)
        f.write(_CRC.pack(zlib.crc32(payload)))


def read_feature_file(path) -> np.ndarray:
    """Read a feature file back as a float32 (T, H, W, C) array.

    The payload is read straight into the returned array, so a read holds one
    copy of it. Features stay float32 until they become a `Tensor`, which
    widens them to float64 exactly; a write-read-write cycle is byte
    identical.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size < _HEADER.size + _CRC.size:
            raise FeatureFileError(f"file too short to hold a header: {size} bytes")
        magic, version, t, h, w, c = _HEADER.unpack(f.read(_HEADER.size))
        if magic != MAGIC:
            raise FeatureFileError(f"bad magic {magic!r} at offset 0 (expected {MAGIC!r})")
        if version != VERSION:
            raise FeatureFileError(f"unsupported version {version} (expected {VERSION})")
        expected = t * h * w * c
        actual = (size - _HEADER.size - _CRC.size) // 4
        if _HEADER.size + expected * 4 + _CRC.size != size:
            raise FeatureFileError(f"payload size mismatch: expected {expected} float32 values, found {actual}")
        arr = np.empty((t, h, w, c), dtype="<f4")
        f.readinto(arr)
        (crc_stored,) = _CRC.unpack(f.read(_CRC.size))
    crc = zlib.crc32(arr)
    if crc != crc_stored:
        raise FeatureFileError(f"payload checksum mismatch: stored {crc_stored:#010x}, computed {crc:#010x}")
    if not np.all(np.isfinite(arr)):
        raise FeatureFileError("payload contains non-finite values")
    return arr
