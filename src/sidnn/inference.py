"""Free-running simulation, the pooled simulation RMSE with transient skip,
and wall-clock timing harnesses for training and inference cost versus
sequence length. Every model run here goes through `Model.forward` and
`Model.backward`, which check each chunk.
"""

from __future__ import annotations

import gc
import math
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from . import numkit as nk
from .data import SequenceData, Standardizer
from .errors import DimensionError, InputError, ParameterError, UsageError
from .models import Model, ModelSpec, range_problems, receptive_field

Array = np.ndarray


def simulate(model: Model, u: Array, standardizer: Standardizer) -> Array:
    """Free-running trajectory for one sequence, in physical units.

    u is (T, I) raw input; it is standardized internally, the model runs from
    zero initial state, and the output is de-standardized.
    """
    u = nk.as_f64(u)
    if u.ndim != 2:
        raise InputError(f"simulate expects a (T, channels) sequence, got shape {u.shape}")
    if u.shape[1] != model.spec.input_dim:
        raise InputError(
            f"sequence has {u.shape[1]} input channels, model expects {model.spec.input_dim}"
        )
    u_std = standardizer.apply_u(u)[None, :, :]
    y_std, _ = model.forward(u_std, None)
    return standardizer.invert_y(y_std[0])


def pooled_rmse(y_hats: list[Array], data: SequenceData, unit_scale: float = 1.0) -> float:
    """RMSE over the samples of all sequences pooled, each skipping its first
    min(transient_n, T-1) samples; y_hats[i] is the trajectory of sequence i."""
    if len(y_hats) != len(data.sequences):
        raise DimensionError(f"{len(y_hats)} trajectories for {len(data.sequences)} sequences")
    sq, n = 0.0, 0
    for y_hat, (_, y) in zip(y_hats, data.sequences):
        if y_hat.shape != y.shape:
            raise DimensionError(f"shapes differ: {y_hat.shape} vs {y.shape}")
        skip = min(data.transient_n, y.shape[0] - 1)
        d = y_hat[skip:] - y[skip:]
        sq += float(np.sum(d * d))
        n += d.size
    return math.sqrt(sq / max(n, 1)) * unit_scale


# ---------------------------------------------------------------------------
# timing harnesses
# ---------------------------------------------------------------------------

_bench_lock = threading.Lock()


@dataclass
class BenchTable:
    """Raw per-repeat timings plus medians per (variant, mode, length)."""

    rows: list[dict] = field(default_factory=list)

    def medians(self) -> list[dict]:
        groups: dict[tuple, list[float]] = {}
        for r in self.rows:
            groups.setdefault((r["variant"], r["mode"], r["seq_len"]), []).append(
                r["wall_seconds"]
            )
        return [
            {"variant": k[0], "mode": k[1], "seq_len": k[2],
             "median_seconds": statistics.median(v)}
            for k, v in sorted(groups.items())
        ]


def _limit_threads():
    try:
        from threadpoolctl import threadpool_limits

        return threadpool_limits(limits=1)
    except ImportError:  # measurements just get a bit noisier
        from contextlib import nullcontext

        return nullcontext()


def _bench_model(spec: ModelSpec, seed: int) -> Model:
    """Model with damped weights: free-running feedback must stay bounded over
    thousands of steps (timing does not depend on the values)."""
    model = Model.create(spec, seed)
    for name in model.params.names():
        model.params[name] *= 0.3
    return model


BENCH_LOWS = {"seq_len": (">=", 1), "repeats": (">=", 1), "warmup": (">=", 0)}


def _timed_cells(cells, make_runner, repeats, warmup):
    """Warm every cell, then interleave measured repeats round-robin so slow
    clock drift cannot masquerade as a length trend. One harness runs per
    process at a time."""
    problems = [p for L in sorted({L for _, L in cells})
                for p in range_problems({"seq_len": L}, BENCH_LOWS)]
    problems += range_problems({"repeats": repeats, "warmup": warmup}, BENCH_LOWS)
    if problems:
        raise ParameterError("invalid timing settings: " + "; ".join(problems))
    for spec, L in cells:
        need = receptive_field(spec.depth, spec.kernel)
        if spec.arch == "tcn" and L < need:
            raise ParameterError(
                f"TCN depth {spec.depth} needs sequences of at least {need} samples; "
                f"got length {L}"
            )
    if not _bench_lock.acquire(blocking=False):
        raise UsageError("timing harness already running in this process")
    gc_was_enabled = gc.isenabled()
    try:
        runs = [(spec, L, make_runner(spec, L)) for spec, L in cells]
        table = BenchTable()
        gc.disable()
        with _limit_threads():
            for _, _, run in runs:
                for _ in range(warmup):
                    run()
            for rep in range(repeats):
                for spec, L, run in runs:
                    t0 = time.perf_counter()
                    run()
                    dt = time.perf_counter() - t0
                    table.rows.append(
                        {"variant": spec.arch.upper(), "mode": spec.mode.upper(),
                         "seq_len": L, "repeat": rep, "wall_seconds": dt}
                    )
    finally:
        if gc_was_enabled:
            gc.enable()
        _bench_lock.release()
    return table


def bench_training_cells(
    cells: list[tuple[ModelSpec, int]],
    batch_size: int = 16,
    repeats: int = 5,
    warmup: int = 2,
    seed: int = 0,
) -> BenchTable:
    """Median wall time of one forward+backward+optimizer step per mini-batch,
    for every (spec, length) cell, all timed in one round-robin."""
    from .training import TrainConfig, TrainState, masked_mse_grad, radam_lookahead_step

    rng = np.random.default_rng(seed)

    def make_runner(spec: ModelSpec, L: int):
        model = _bench_model(spec, seed)
        u = rng.standard_normal((batch_size, L, spec.input_dim))
        y = rng.standard_normal((batch_size, L, spec.output_dim))
        config = TrainConfig(chunk_len=L, window_len=L, batch_size=batch_size, lr_max=1e-5)
        state = TrainState.init(model.params, 1e-5)

        def run():
            y_hat, _, cache = model.forward(
                u, model.initial_state(batch_size), training=True, return_cache=True
            )
            _, g = masked_mse_grad(y_hat, y)
            grads, _ = model.backward(cache, g)
            radam_lookahead_step(model.params, grads, state, config)

        return run

    return _timed_cells(cells, make_runner, repeats, warmup)


def bench_inference_cells(
    cells: list[tuple[ModelSpec, int]],
    repeats: int = 5,
    warmup: int = 2,
    seed: int = 0,
) -> BenchTable:
    """Median wall time of simulating one sequence, for every (spec, length)
    cell, all timed in one round-robin."""
    rng = np.random.default_rng(seed)

    def make_runner(spec: ModelSpec, L: int):
        model = _bench_model(spec, seed)
        std = Standardizer.identity(spec.input_dim, spec.output_dim)
        u = rng.standard_normal((L, spec.input_dim))

        def run():
            simulate(model, u, std)

        return run

    return _timed_cells(cells, make_runner, repeats, warmup)
