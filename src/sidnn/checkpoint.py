"""Binary checkpoint serialization.

Layout (little-endian): magic b"SIDNN", version byte 0x01, u32 header length,
UTF-8 JSON header (model spec + standardizer), u32 tensor count, then per
tensor: u32 name length, name bytes, u32 ndim, u64 dims, raw float64 data.
The file ends after the last tensor, and no name appears twice.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import numkit as nk
from .data import Standardizer, atomic_open
from .errors import CorruptionError, DataError, FormatError
from .models import SPEC_TYPES, ModelSpec, ParamStore, type_problems

MAGIC = b"SIDNN"
VERSION = 1


@dataclass
class Checkpoint:
    spec: ModelSpec
    standardizer: Standardizer
    params: ParamStore


def save_checkpoint(
    path: str | Path, spec: ModelSpec, standardizer: Standardizer, params: ParamStore
) -> None:
    header = {
        "spec": asdict(spec),
        "standardizer": {
            "u_mean": standardizer.u_mean.tolist(),
            "u_std": standardizer.u_std.tolist(),
            "y_mean": standardizer.y_mean.tolist(),
            "y_std": standardizer.y_std.tolist(),
        },
    }
    header_bytes = json.dumps(header).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(bytes([VERSION]))
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(struct.pack("<I", len(params)))
        for name, arr in params.items():
            name_b = name.encode("utf-8")
            fh.write(struct.pack("<I", len(name_b)))
            fh.write(name_b)
            fh.write(struct.pack("<I", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.offset = 0

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.blob):
            raise CorruptionError(
                f"checkpoint truncated: needed {n} bytes at byte {self.offset}, "
                f"file has {len(self.blob)}"
            )
        out = self.blob[self.offset : self.offset + n]
        self.offset += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]


def _header_section(path, header, name: str, keys: list[str]) -> dict:
    """header[name] as a dict with exactly the given keys, or CorruptionError."""
    section = header.get(name) if isinstance(header, dict) else None
    if not isinstance(section, dict):
        raise CorruptionError(f"{path}: checkpoint header has no '{name}' object")
    if set(section) != set(keys):
        missing = sorted(set(keys) - set(section))
        extra = sorted(set(section) - set(keys))
        raise CorruptionError(
            f"{path}: checkpoint {name} keys mismatch: missing={missing} extra={extra}"
        )
    return section


def load_checkpoint(path: str | Path) -> Checkpoint:
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc.strerror or exc}") from None
    r = _Reader(blob)
    if r.take(len(MAGIC)) != MAGIC:
        raise FormatError(f"{path}: not a checkpoint (bad magic bytes)")
    if (version := r.take(1)[0]) != VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    try:
        header = json.loads(r.take(r.u32()).decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise CorruptionError(f"{path}: unreadable checkpoint header: {exc}") from None
    spec_fields = _header_section(path, header, "spec", list(SPEC_TYPES))
    if problems := type_problems(spec_fields, SPEC_TYPES):
        raise CorruptionError(f"{path}: checkpoint spec: " + "; ".join(problems))
    spec = ModelSpec(**spec_fields)
    s = _header_section(path, header, "standardizer", ["u_mean", "u_std", "y_mean", "y_std"])
    try:
        standardizer = Standardizer(**{k: np.asarray(v, dtype=np.float64) for k, v in s.items()})
    except (TypeError, ValueError) as exc:  # non-numeric or ragged lists
        raise CorruptionError(f"{path}: malformed checkpoint standardizer: {exc}") from None
    widths = {"u": spec.input_dim, "y": spec.output_dim}
    for key, value in vars(standardizer).items():
        nk.check_finite(f"{path}: standardizer {key}", value)
        if value.shape != (widths[key[0]],):
            raise CorruptionError(f"{path}: standardizer {key} has shape {value.shape}, "
                                  f"the spec expects ({widths[key[0]]},)")
        if key.endswith("_std") and not np.all(value > 0.0):
            raise CorruptionError(f"{path}: standardizer {key} must be positive, got {value}")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(r.u32()):
        start = r.offset
        try:
            name = r.take(r.u32()).decode("utf-8")
            shape = tuple(r.u64() for _ in range(r.u32()))
            raw = r.take(math.prod(shape) * 8)
            arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
        except ValueError as exc:  # bad UTF-8, ndim > 64, dims too large
            raise CorruptionError(
                f"{path}: malformed tensor record at byte {start}: {exc}"
            ) from None
        if name in arrays:
            raise CorruptionError(
                f"{path}: tensor '{name}' recorded twice, again at byte {start}")
        arrays[name] = nk.check_finite(f"{path}: tensor '{name}'", arr)
    if r.offset != len(blob):
        raise CorruptionError(f"{path}: {len(blob) - r.offset} stray bytes after the last "
                              f"tensor, from byte {r.offset}")
    params = ParamStore(arrays)
    params.validate_for(spec)
    return Checkpoint(spec=spec, standardizer=standardizer, params=params)
