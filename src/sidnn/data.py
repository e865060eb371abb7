"""Dataset ingestion, standardization, splitting, and window sampling.

Benchmarks arrive as CSV columns (one file per measured sequence) described
by a small JSON descriptor; a synthetic Wiener-Hammerstein generator covers
desk-scale experiments without the official downloads.
"""

from __future__ import annotations

import csv
import json
import os
import threading
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from . import numkit as nk
from .errors import DataError, ParameterError, ParseError, PlanError, SchemaError
from .models import range_problems, type_problems

Array = np.ndarray


@dataclass
class SequenceData:
    """A multi-sequence dataset of (u, y) signal pairs.

    transient_n is the benchmark-given number of initial samples to skip
    when scoring a simulation. A NaN or Inf sample is a DataError naming
    its sequence.
    """

    sequences: list[tuple[Array, Array]]
    y_names: list[str] = field(default_factory=lambda: ["y"])
    transient_n: int = 0

    def __post_init__(self) -> None:
        if not self.sequences:
            raise DataError("dataset contains no sequences")
        if self.transient_n < 0:
            raise DataError("transient_n must be >= 0")
        for i, (u, y) in enumerate(self.sequences):
            if u.ndim != 2 or y.ndim != 2:
                raise DataError(f"sequence {i}: u and y must be 2-d (T, channels)")
            if u.shape[0] != y.shape[0]:
                raise DataError(
                    f"sequence {i}: u has {u.shape[0]} samples but y has {y.shape[0]}"
                )
            for name, a in (("u", u), ("y", y)):
                if not np.isfinite(a).all():
                    raise DataError(f"sequence {i}: non-finite values in {name}")

    @property
    def input_dim(self) -> int:
        return self.sequences[0][0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.sequences[0][1].shape[1]

    @property
    def min_length(self) -> int:
        return min(u.shape[0] for u, _ in self.sequences)


@dataclass
class Standardizer:
    """Per-channel shift/scale fitted on training data only."""

    u_mean: Array
    u_std: Array
    y_mean: Array
    y_std: Array

    @classmethod
    def identity(cls, input_dim: int, output_dim: int) -> "Standardizer":
        return cls(np.zeros(input_dim), np.ones(input_dim),
                   np.zeros(output_dim), np.ones(output_dim))

    def apply_u(self, u: Array) -> Array:
        return (u - self.u_mean) / self.u_std

    def apply_y(self, y: Array) -> Array:
        return (y - self.y_mean) / self.y_std

    def invert_y(self, y_std: Array) -> Array:
        return y_std * self.y_std + self.y_mean

    def apply_data(self, data: SequenceData) -> SequenceData:
        seqs = [(self.apply_u(u), self.apply_y(y)) for u, y in data.sequences]
        return replace(data, sequences=seqs)


def fit_standardizer(train: SequenceData) -> Standardizer:
    """Population (ddof=0) mean/std over all training sequences concatenated."""
    u_all = np.concatenate([u for u, _ in train.sequences], axis=0)
    y_all = np.concatenate([y for _, y in train.sequences], axis=0)
    if u_all.shape[0] < 2:
        raise DataError("standardizer needs at least 2 samples per channel")
    std = Standardizer(
        u_mean=u_all.mean(axis=0), u_std=u_all.std(axis=0),
        y_mean=y_all.mean(axis=0), y_std=y_all.std(axis=0),
    )
    for label, s in (("input", std.u_std), ("output", std.y_std)):
        if np.any(s <= 0.0):
            ch = int(np.argmin(s))
            raise DataError(f"{label} channel {ch} has zero variance; cannot standardize")
    return std


def split_estimation(
    data: SequenceData, valid_fraction: float
) -> tuple[SequenceData, SequenceData]:
    """Per-sequence contiguous tail split; validation keeps unbroken dynamics.

    The split point is a deterministic function of the fraction.
    """
    if not 0.0 < valid_fraction < 0.5:
        raise ParameterError(f"valid_fraction must be in (0, 0.5), got {valid_fraction}")
    train_seqs, valid_seqs = [], []
    for u, y in data.sequences:
        n_valid = int(round(u.shape[0] * valid_fraction))
        n_valid = max(1, min(n_valid, u.shape[0] - 1))
        train_seqs.append((u[:-n_valid], y[:-n_valid]))
        valid_seqs.append((u[-n_valid:], y[-n_valid:]))
    return replace(data, sequences=train_seqs), replace(data, sequences=valid_seqs)


# ---------------------------------------------------------------------------
# file I/O: CSV ingestion and all-or-nothing artifact writes
# ---------------------------------------------------------------------------


@contextmanager
def atomic_open(path: str | Path, mode: str = "w", **kwargs):
    """Write through a temporary file beside path, moved onto path by
    os.replace when the block completes and deleted when it raises, so path
    holds either its previous or its complete new contents."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_csv(path: str | Path, u_cols: list[str], y_cols: list[str]) -> SequenceData:
    """One sequence per file: UTF-8, comma-separated, one header row."""
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: empty file") from None
            header = [h.strip() for h in header]
            for col in list(u_cols) + list(y_cols):
                if col not in header:
                    raise SchemaError(f"{path}: column '{col}' not found in header {header}")
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"cannot read data file {path}: {exc.strerror or exc}") from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: {exc}") from None
    u, y = _parse_columns(path, rows, [header.index(c) for c in u_cols],
                          [header.index(c) for c in y_cols])
    try:
        return SequenceData(sequences=[(u, y)], y_names=list(y_cols))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _parse_columns(path: Path, rows: list[list[str]], u_idx: list[int],
                   y_idx: list[int]) -> tuple[Array, Array]:
    """The u and y columns of the non-empty rows as float64 (n, k) arrays.

    Each column is converted at once (numpy's str -> float64 is float()'s).
    A row too short for a column, or a value that does not parse, sends the
    rows through the per-row loop, whose ParseError names the first bad row
    (rows count from 2, the header being row 1, empty rows included)."""
    data = [row for row in rows if row]
    if not data:
        raise DataError(f"{path}: no data rows")
    # zip(*data) cuts every column to the shortest row, so it runs only when
    # every row reaches the last column read
    if min(map(len, data)) > max(u_idx + y_idx):
        cols = list(zip(*data))
        try:
            return tuple(np.array([cols[i] for i in idx], dtype=np.float64).T.copy()
                         for idx in (u_idx, y_idx))
        except ValueError:
            pass
    u_rows, y_rows = [], []
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        try:
            u_rows.append([float(row[i]) for i in u_idx])
            y_rows.append([float(row[i]) for i in y_idx])
        except (ValueError, IndexError) as exc:
            raise ParseError(f"{path}: row {lineno}: {exc}") from None
    return nk.as_f64(u_rows), nk.as_f64(y_rows)


DESCRIPTOR_TYPES = {
    "files": list, "u_cols": list, "y_cols": list, "transient_n": int, "unit_scale": float,
    "name": str, "sample_rate": (float, type(None)), "synthetic": dict,
}
SYNTHETIC_TYPES = {"n": int, "seed": int, "noise_std": float}
DESCRIPTOR_LOWS = {"transient_n": (">=", 0), "unit_scale": (">", 0)}
SYNTHETIC_LOWS = {"n": (">=", 1), "seed": (">=", 0), "noise_std": (">=", 0)}


def load_descriptor(path: str | Path) -> tuple[SequenceData, dict]:
    """Load a dataset descriptor JSON.

    Schema: {"files": [...], "u_cols": [...], "y_cols": [...],
    "transient_n": int, "unit_scale": float}, plus optional "name" and
    "sample_rate" (accepted and type-checked, otherwise unused).
    Alternatively {"synthetic": {"n", "seed", "noise_std"}} generates the
    built-in Wiener-Hammerstein system. Every mistyped or out-of-range field
    is reported in one SchemaError.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SchemaError(f"dataset descriptor not found: {path}") from None
    except OSError as exc:
        raise SchemaError(f"cannot read dataset descriptor {path}: {exc.strerror or exc}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: descriptor must be a JSON object")
    problems = type_problems(raw, DESCRIPTOR_TYPES) + range_problems(raw, DESCRIPTOR_LOWS)
    if isinstance(raw.get("synthetic"), dict):
        syn = raw["synthetic"]
        problems += [f"synthetic.{p}" for p in
                     type_problems(syn, SYNTHETIC_TYPES) + range_problems(syn, SYNTHETIC_LOWS)]
    for key in ("files", "u_cols", "y_cols"):
        if isinstance(raw.get(key), list) and not all(isinstance(v, str) for v in raw[key]):
            problems.append(f"{key} must be a list of strings")
    if problems:
        raise SchemaError(f"{path}: invalid descriptor: " + "; ".join(problems))
    meta = {
        "name": raw.get("name", path.stem),
        "unit_scale": float(raw.get("unit_scale", 1.0)),
    }
    if "synthetic" in raw:
        syn = raw["synthetic"]
        data = synth_wiener_hammerstein(
            n=syn.get("n", 20000),
            seed=syn.get("seed", 0),
            noise_std=float(syn.get("noise_std", 0.01)),
        )
        if "transient_n" in raw:
            data = replace(data, transient_n=raw["transient_n"])
        return data, meta
    missing = [k for k in ("files", "u_cols", "y_cols") if k not in raw]
    if missing:
        raise SchemaError(f"{path}: descriptor missing fields {missing}")
    parts = []
    for f in raw["files"]:
        fpath = Path(f)
        if not fpath.is_absolute():
            fpath = path.parent / fpath
        parts.append(load_csv(fpath, raw["u_cols"], raw["y_cols"]))
    data = SequenceData(
        sequences=[s for p in parts for s in p.sequences],
        y_names=list(raw["y_cols"]),
        transient_n=raw.get("transient_n", 0),
    )
    return data, meta


# ---------------------------------------------------------------------------
# window sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WindowPlan:
    """Mini-batch windowing: overlapping windows cut into TBPTT chunks."""

    window_len: int
    chunk_len: int
    batch_size: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.window_len < 1 or self.chunk_len < 1 or self.batch_size < 1:
            raise PlanError("window_len, chunk_len and batch_size must be >= 1")
        if self.window_len % self.chunk_len != 0:
            raise PlanError(
                f"window_len {self.window_len} is not a multiple of chunk_len {self.chunk_len}"
            )

    def offsets_for(self, data: SequenceData, epoch: int) -> list[tuple[int, int]]:
        """Per-epoch window start positions, reseeded from (seed, epoch)."""
        if self.window_len > data.min_length:
            raise PlanError(
                f"window_len {self.window_len} exceeds shortest sequence "
                f"({data.min_length} samples)"
            )
        counts = [u.shape[0] - self.window_len + 1 for u, _ in data.sequences]
        bounds = np.cumsum(counts)
        rng = np.random.default_rng([self.seed, epoch])
        draws = rng.integers(0, bounds[-1], size=self.batch_size)
        out = []
        for d in draws:
            seq = int(np.searchsorted(bounds, d, side="right"))
            prev = 0 if seq == 0 else int(bounds[seq - 1])
            out.append((seq, int(d - prev)))
        return out


@dataclass
class ChunkBatch:
    """One TBPTT slice of a window batch; windows advance in lockstep."""

    u: Array  # (B, chunk_len, I)
    y: Array  # (B, chunk_len, O)
    offset: int  # position of this chunk inside its window; 0 starts a window


def sample_windows(data: SequenceData, plan: WindowPlan, epoch: int) -> Iterator[ChunkBatch]:
    """Yield each window's chunks in order, all windows batched together."""
    offsets = plan.offsets_for(data, epoch)
    U = np.stack([data.sequences[s][0][p : p + plan.window_len] for s, p in offsets])
    Y = np.stack([data.sequences[s][1][p : p + plan.window_len] for s, p in offsets])
    for lo in range(0, plan.window_len, plan.chunk_len):
        hi = lo + plan.chunk_len
        yield ChunkBatch(u=U[:, lo:hi], y=Y[:, lo:hi], offset=lo)


# ---------------------------------------------------------------------------
# synthetic Wiener-Hammerstein system
# ---------------------------------------------------------------------------

# linear-nonlinear-linear cascade: G1 -> tanh(2x) -> G2, all zero-state.
_G1_B = (0.05, 0.10, 0.05)
_G1_A = (1.5, -0.7)  # poles at |z| = sqrt(0.7)
_G2_B = (0.04, 0.08, 0.04)
_G2_A = (1.2, -0.52)  # poles at |z| = sqrt(0.52)
_INPUT_SMOOTH = 0.7  # u[t] = 0.3 w[t] + 0.7 u[t-1], w ~ N(0, 1)


def _second_order_filter(x: Array, b, a) -> Array:
    """y[t] = b0 x[t] + (b1 x[t-1] + a0 y[t-1]) + (b2 x[t-2] + a1 y[t-2]) from
    zero state, summed in that order on Python floats: they round as numpy
    float64 scalars do, at a fraction of the cost per operation. The samples
    pass through C-double arrays and the last two of each in locals, so no
    float object outlives its step (a list of them leaves the interpreter's
    allocator holding about 2 MB per 31,000 samples)."""
    (b0, b1, b2), (a0, a1) = b, a
    ys = array("d")
    x1 = x2 = y1 = y2 = 0.0
    for t, xt in enumerate(array("d", x.tobytes())):  # x is 1-d float64
        acc = b0 * xt
        if t >= 1:
            acc += b1 * x1 + a0 * y1
        if t >= 2:
            acc += b2 * x2 + a1 * y2
        ys.append(acc)
        x2, x1, y2, y1 = x1, xt, y1, acc
    return np.array(ys)


def wiener_hammerstein_response(u: Array) -> Array:
    """Noiseless system response G2(tanh(2 * G1(u))) from zero initial state."""
    u = nk.as_f64(u).reshape(-1)
    x1 = _second_order_filter(u, _G1_B, _G1_A)
    v = np.tanh(2.0 * x1)
    return _second_order_filter(v, _G2_B, _G2_A)


def synth_wiener_hammerstein(n: int, seed: int = 0, noise_std: float = 0.0) -> SequenceData:
    """Filtered-noise input through the fixed cascade, plus measurement noise."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(n)
    us = array("d")
    prev = 0.0
    for wt in array("d", w.tobytes()):  # Python floats, as in _second_order_filter
        prev = (1.0 - _INPUT_SMOOTH) * wt + _INPUT_SMOOTH * prev
        us.append(prev)
    u = np.array(us)
    y = wiener_hammerstein_response(u)
    if noise_std > 0.0:
        y = y + noise_std * rng.standard_normal(n)
    transient = 200 if n >= 1000 else max(1, n // 10)
    return SequenceData(sequences=[(u[:, None], y[:, None])], transient_n=transient)
