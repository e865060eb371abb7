"""Training workflow: MSE that skips each window's leading warm-up samples,
RAdam+Lookahead, plateau-triggered cosine annealing, a learning-rate finder,
and the TBPTT epoch loop with hidden-state and AR-output carry across chunks.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from . import numkit as nk
from .data import SequenceData, Standardizer, WindowPlan, ChunkBatch, atomic_open, fit_standardizer, sample_windows, split_estimation
from .errors import (
    DimensionError,
    FinderError,
    LossError,
    OptimizerError,
    ParameterError,
    TrainingError,
)
from .inference import pooled_rmse, simulate
from .models import HiddenState, Model, ModelSpec, ParamStore, range_problems, receptive_field

Array = np.ndarray

# lower bounds of the numeric TrainConfig fields; a run config's train section
# is checked against them too (cli.load_config)
TRAIN_LOWS = {
    "max_epochs": (">=", 1), "batch_size": (">=", 1), "lookahead_k": (">=", 1),
    "chunk_len": (">=", 1), "window_len": (">=", 1),
    "lr_max": (">", 0), "lr_min": (">=", 0), "eps": (">", 0), "weight_decay": (">=", 0),
    "grad_clip": (">", 0), "plateau_patience": (">=", 0), "seed": (">=", 0),
    "warmup_mask_n": (">=", 0),
}


@dataclass
class TrainConfig:
    """Optimizer, schedule, masking and windowing settings."""

    max_epochs: int = 50
    batch_size: int = 16
    chunk_len: int = 512
    window_len: int = 4096
    lr_max: float | None = None  # None: determined by the lr finder
    lr_min: float = 1e-5
    lookahead_k: int = 6
    lookahead_alpha: float = 0.5
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    weight_decay: float = 0.0
    plateau_patience: int = 3
    grad_clip: float | None = 1.0  # None: no clipping
    seed: int = 0
    teacher_forcing: bool = False
    warmup_mask_n: int | None = None  # None: min(2**depth - 1, chunk_len // 2)
    valid_fraction: float = 0.2

    def __post_init__(self) -> None:
        problems = range_problems({key: getattr(self, key) for key in TRAIN_LOWS}, TRAIN_LOWS)
        b1, b2 = self.betas
        if not (0.0 < b1 < 1.0 and 0.0 < b2 < 1.0):
            problems.append(f"betas must lie in (0, 1), got {self.betas}")
        if not 0.0 < self.valid_fraction < 0.5:
            problems.append(f"valid_fraction must lie in (0, 0.5), got {self.valid_fraction}")
        if not 0.0 < self.lookahead_alpha <= 1.0:
            problems.append("lookahead_alpha must be in (0, 1]")
        if problems:
            raise ParameterError("invalid training settings: " + "; ".join(problems))

    def plan(self) -> WindowPlan:
        return WindowPlan(self.window_len, self.chunk_len, self.batch_size, self.seed)


@dataclass
class TrainState:
    """Optimizer moments, lookahead slow weights, the current lr and the
    number of epochs trained."""

    step: int
    m: dict[str, Array]
    v: dict[str, Array]
    slow: dict[str, Array]
    lr: float
    epoch: int = 0

    @classmethod
    def init(cls, params: ParamStore, lr: float) -> "TrainState":
        return cls(
            step=0,
            m=params.zeros_like(),
            v=params.zeros_like(),
            slow={k: v.copy() for k, v in params.items()},
            lr=lr,
        )


# ---------------------------------------------------------------------------
# loss and masking
# ---------------------------------------------------------------------------


def masked_mse_grad(y_hat: Array, y: Array, skip: int = 0) -> tuple[float, Array]:
    """Mean squared error over (B, T, C) arrays plus its gradient w.r.t.
    y_hat; the first `skip` samples of every sequence are left out of the
    mean and get exact zeros in the gradient."""
    if y_hat.shape != y.shape:
        raise DimensionError(f"prediction shape {y_hat.shape} != target shape {y.shape}")
    if not 0 <= skip <= y.shape[1]:
        raise LossError(f"skip {skip} outside [0, {y.shape[1]}] samples")
    d = y_hat - y
    d[:, :skip] = 0.0
    n = d[:, skip:].size
    if n == 0:
        raise LossError("no sample left for the loss: the batch is empty or wholly in the "
                        "warm-up mask; check window/chunk sizes against the mask length")
    loss = float(np.sum(d * d) / n)
    return loss, (2.0 / n) * d


def resolved_warmup_mask(spec: ModelSpec, config: TrainConfig) -> int:
    """Leading samples excluded from the loss in each training window."""
    if spec.arch == "tcn":
        return receptive_field(spec.depth, spec.kernel)
    if config.warmup_mask_n is not None:
        return config.warmup_mask_n
    return min(2 ** spec.depth - 1, config.chunk_len // 2)


def window_problems(spec: ModelSpec, config: TrainConfig) -> list[str]:
    """A message for each window that cannot train: one the warm-up mask
    covers, so that no sample is ever trained on, and one that its chunks
    do not tile (`WindowPlan`'s rule, reported before any data loads)."""
    n_mask = resolved_warmup_mask(spec, config)
    problems = []
    if config.window_len <= n_mask:
        problems.append(f"window_len must exceed the {n_mask}-sample warm-up mask, "
                        f"got {config.window_len}")
    if config.window_len % config.chunk_len:
        problems.append(f"window_len {config.window_len} is not a multiple of "
                        f"chunk_len {config.chunk_len}")
    return problems


def _check_window(spec: ModelSpec, config: TrainConfig) -> None:
    problems = window_problems(spec, config)
    if problems:
        raise ParameterError("invalid training settings: " + "; ".join(problems))


def chunk_skip(spec: ModelSpec, config: TrainConfig, batch: ChunkBatch) -> int:
    """Leading samples of the chunk that lie in the window's warm-up mask;
    the chunk's length when it lies wholly in it."""
    return min(max(resolved_warmup_mask(spec, config) - batch.offset, 0), batch.u.shape[1])


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def radam_lookahead_step(
    params: ParamStore,
    grads: dict[str, Array],
    state: TrainState,
    config: TrainConfig,
) -> None:
    """One RAdam update with variance rectification, plus lookahead sync.

    rho_inf = 2/(1-b2) - 1 and rho_t = rho_inf - 2 t b2^t / (1 - b2^t); the
    rectified adaptive step applies when rho_t > 4, otherwise the update is
    the un-adapted bias-corrected momentum. Weight decay is decoupled. Every
    lookahead_k steps: slow += alpha * (fast - slow), fast = slow. Every
    gradient is checked before anything is written, so a non-finite one
    raises `OptimizerError` with params and state untouched.
    """
    for name in params.names():
        if not np.all(np.isfinite(grads[name])):
            raise OptimizerError(f"non-finite gradient for parameter '{name}'")
    state.step += 1
    t = state.step
    b1, b2 = config.betas
    lr = state.lr
    b1t = b1 ** t
    b2t = b2 ** t
    rho_inf = 2.0 / (1.0 - b2) - 1.0
    rho_t = rho_inf - 2.0 * t * b2t / (1.0 - b2t)
    adaptive = rho_t > 4.0
    if adaptive:
        rect = math.sqrt(
            ((rho_t - 4.0) * (rho_t - 2.0) * rho_inf)
            / ((rho_inf - 4.0) * (rho_inf - 2.0) * rho_t)
        )
    for name in params.names():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        m_hat = m / (1.0 - b1t)
        if adaptive:
            step_vec = lr * rect * m_hat / (np.sqrt(v / (1.0 - b2t)) + config.eps)
        else:
            step_vec = lr * m_hat
        p = params[name]
        if config.weight_decay:
            step_vec = step_vec + (lr * config.weight_decay) * p
        p -= step_vec
    if t % config.lookahead_k == 0:
        for name in params.names():
            slow = state.slow[name]
            slow += config.lookahead_alpha * (params[name] - slow)
            np.copyto(params[name], slow)


def clip_gradients(grads: dict[str, Array], max_norm: float | None) -> float:
    """Global-norm clipping (max_norm None: none); returns the pre-clip norm."""
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if max_norm is not None and total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


def cosine_schedule(lr_max: float, lr_min: float, t: int, total: int) -> float:
    """lr_min + 0.5 (lr_max - lr_min)(1 + cos(pi t / total))."""
    if total == 0:
        raise ParameterError("cosine schedule length must be > 0")
    if not 0 <= t <= total:
        raise ParameterError(f"schedule step {t} outside [0, {total}]")
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * t / total))


# ---------------------------------------------------------------------------
# chunked forward/backward plumbing
# ---------------------------------------------------------------------------


def _chunk_forward(model: Model, batch: ChunkBatch, state_h: HiddenState,
                   config: TrainConfig, rng, return_cache: bool):
    """The training forward of one chunk, teacher-forced when configured."""
    teacher = batch.y if config.teacher_forcing and model.spec.mode == "ar" else None
    return model.forward(batch.u, state_h, training=True, rng=rng, teacher=teacher,
                         return_cache=return_cache)


def _chunk_step(
    model: Model,
    batch: ChunkBatch,
    state_h: HiddenState,
    config: TrainConfig,
    rng,
):
    """Forward + loss + backward for one chunk; state crosses as values only.
    The chunk's `chunk_skip` leading samples are left out of the loss and of
    the returned per-channel squared errors and sample count."""
    y_hat, new_state, cache = _chunk_forward(model, batch, state_h, config, rng, True)
    skip = chunk_skip(model.spec, config, batch)
    loss, g = masked_mse_grad(y_hat, batch.y, skip)
    grads, _ = model.backward(cache, g)
    d = y_hat - batch.y
    d[:, :skip] = 0.0
    ch_sq = np.sum(d * d, axis=(0, 1))
    return loss, grads, new_state, ch_sq, d.shape[0] * (d.shape[1] - skip)


@dataclass
class EpochMetrics:
    channel_sq: Array  # per-channel sum of squared errors, standardized units
    n_samples: int  # unmasked samples summed over


def train_epoch(model: Model, data: SequenceData, config: TrainConfig, state: TrainState) -> EpochMetrics:
    """One pass of freshly drawn windows, chunk by chunk.

    `data` must already be standardized. Hidden state (and for AR models the
    last generated output) carries across chunk boundaries as plain values,
    so gradients stay inside each chunk. A chunk that lies wholly in the
    warm-up mask (its `chunk_skip` is its length) runs forward only, for the
    state it carries on: it has no loss, no backward and no optimizer step.
    """
    epoch = state.epoch
    rng = np.random.default_rng([config.seed, epoch, 1])
    ch_sq_total: Array | None = None
    n_total = 0
    state_h: HiddenState | None = None
    for batch in sample_windows(data, config.plan(), epoch):
        if batch.offset == 0:
            state_h = model.initial_state(batch.u.shape[0])
        if chunk_skip(model.spec, config, batch) == batch.u.shape[1]:
            _, state_h = _chunk_forward(model, batch, state_h, config, rng, False)
            continue
        loss, grads, state_h, ch_sq, n_samples = _chunk_step(model, batch, state_h, config, rng)
        if not math.isfinite(loss):
            raise TrainingError(f"non-finite loss at optimizer step {state.step}")
        clip_gradients(grads, config.grad_clip)
        radam_lookahead_step(model.params, grads, state, config)
        ch_sq_total = ch_sq if ch_sq_total is None else ch_sq_total + ch_sq
        n_total += n_samples
    state.epoch += 1
    return EpochMetrics(channel_sq=ch_sq_total, n_samples=n_total)


# ---------------------------------------------------------------------------
# learning-rate finder
# ---------------------------------------------------------------------------


@dataclass
class FinderResult:
    suggestion: float
    lrs: list[float]
    losses: list[float]
    smoothed: list[float]


# the sweep runs geometrically from SWEEP_LR_START to SWEEP_LR_END
SWEEP_LR_START = 1e-7
SWEEP_LR_END = 1.0
SWEEP_SMOOTHING = 0.98  # momentum of the smoothed loss
SWEEP_ABORT_FACTOR = 4.0


def lr_sweep(
    params: ParamStore,
    batches: Iterator,
    loss_grad_fn: Callable,
    config: TrainConfig,
    *,
    num_steps: int = 100,
) -> FinderResult:
    """Geometric lr sweep with exponentially smoothed loss tracking.

    The bias-corrected smoothed loss gates the abort (once it exceeds
    SWEEP_ABORT_FACTOR times the best smoothed value seen); the suggestion
    is the lr at the raw-loss minimum divided by 10.
    """
    state = TrainState.init(params, SWEEP_LR_START)
    ratio = (SWEEP_LR_END / SWEEP_LR_START) ** (1.0 / max(num_steps - 1, 1))
    smoothed = 0.0
    best = math.inf
    lrs: list[float] = []
    losses: list[float] = []
    track: list[float] = []
    for i in range(num_steps):
        lr_i = SWEEP_LR_START * ratio ** i
        batch = next(batches)
        with np.errstate(all="ignore"):
            loss, grads = loss_grad_fn(params, batch)
        finite = math.isfinite(loss) and all(np.all(np.isfinite(g)) for g in grads.values())
        if not finite:
            if i == 0:
                raise FinderError(
                    f"loss diverged on the first finder batch, at lr {SWEEP_LR_START:g}; "
                    "set lr_max to train without the finder"
                )
            break
        smoothed = SWEEP_SMOOTHING * smoothed + (1.0 - SWEEP_SMOOTHING) * loss
        corrected = smoothed / (1.0 - SWEEP_SMOOTHING ** (i + 1))
        lrs.append(lr_i)
        losses.append(loss)
        track.append(corrected)
        if corrected > SWEEP_ABORT_FACTOR * best:
            break
        best = min(best, corrected)
        state.lr = lr_i
        radam_lookahead_step(params, grads, state, config)
    if not losses:
        raise FinderError("lr sweep recorded no finite losses")
    idx = int(np.argmin(losses))
    return FinderResult(suggestion=lrs[idx] / 10.0, lrs=lrs, losses=losses, smoothed=track)


def _chunk_stream(model: Model, data: SequenceData, config: TrainConfig, epoch0: int):
    """Endless chunk batches for the finder sweep, each with a fresh initial
    state; chunks wholly in the warm-up mask are skipped."""
    rng = np.random.default_rng([config.seed, 2])
    epoch = epoch0
    while True:
        for batch in sample_windows(data, config.plan(), epoch):
            if chunk_skip(model.spec, config, batch) < batch.u.shape[1]:
                yield batch, model.initial_state(batch.u.shape[0]), rng
        epoch += 1


def lr_finder(model: Model, data: SequenceData, config: TrainConfig, *, num_steps: int = 100) -> float:
    """Suggest lr_max by sweeping on a clone; `data` must be standardized.

    The training model is untouched: the sweep runs on copied parameters.
    Every finder chunk starts from the initial state, a window's later
    chunks too, and the state it ends in is dropped: unlike train_epoch,
    the finder carries nothing across chunk boundaries.
    """
    _check_window(model.spec, config)
    clone = model.clone()
    stream = _chunk_stream(clone, data, config, epoch0=1_000_000)

    def loss_grad(params: ParamStore, item):
        batch, state_h, rng = item
        loss, grads, _, _, _ = _chunk_step(clone, batch, state_h, config, rng)
        return loss, grads

    result = lr_sweep(clone.params, stream, loss_grad, config, num_steps=num_steps)
    return result.suggestion


# ---------------------------------------------------------------------------
# full fit loop
# ---------------------------------------------------------------------------


@dataclass
class HistoryRow:
    epoch: int
    train_rmse: float
    valid_rmse: float
    lr: float
    wall_seconds: float


@dataclass
class FitResult:
    params: ParamStore  # best-validation checkpoint
    history: list[HistoryRow]
    standardizer: Standardizer
    lr_max: float
    best_epoch: int
    best_valid_rmse: float


def fit(model: Model, data: SequenceData, config: TrainConfig) -> FitResult:
    """Train with a constant-lr phase, then cosine annealing after a plateau.

    `data` is the raw estimation set; it is split (contiguous tails) into
    train/validation, standardized on the train part only, and windowed.
    Returns the best-validation checkpoint; the model is left holding it.
    Raises TrainingError when no epoch gives a finite validation RMSE.
    """
    _check_window(model.spec, config)
    train, valid = split_estimation(data, config.valid_fraction)
    std = fit_standardizer(train)
    train_std = std.apply_data(train)
    lr_max = config.lr_max
    if lr_max is None:
        lr_max = lr_finder(model, train_std, config)
    state = TrainState.init(model.params, lr_max)
    history: list[HistoryRow] = []
    best_params = None  # set by the first epoch with a finite validation RMSE
    best_rmse = math.inf
    best_epoch = -1
    since_best = 0  # epochs since the validation RMSE last improved
    cosine_start = None  # the first cosine epoch, once validation plateaus
    for epoch in range(config.max_epochs):
        if cosine_start is not None:
            state.lr = cosine_schedule(lr_max, config.lr_min, epoch - cosine_start,
                                       config.max_epochs - cosine_start)
        t0 = time.perf_counter()
        metrics = train_epoch(model, train_std, config, state)
        valid_rmse = pooled_rmse([simulate(model, u, std) for u, _ in valid.sequences], valid)
        wall = time.perf_counter() - t0
        train_rmse_phys = math.sqrt(
            float(np.sum(std.y_std ** 2 * metrics.channel_sq))
            / max(metrics.n_samples * metrics.channel_sq.size, 1)
        )
        history.append(HistoryRow(epoch, train_rmse_phys, valid_rmse, state.lr, wall))
        if valid_rmse < best_rmse:
            best_rmse = valid_rmse
            best_epoch = epoch
            best_params = model.params.copy()
            since_best = 0
        else:
            since_best += 1
        if (
            cosine_start is None
            and since_best >= config.plateau_patience
            and epoch + 1 < config.max_epochs
        ):
            cosine_start = epoch + 1
    if best_epoch < 0:
        raise TrainingError(f"no epoch of {config.max_epochs} gave a finite validation RMSE "
                            f"(last {history[-1].valid_rmse}); the model diverged")
    model.params = best_params
    return FitResult(
        params=best_params,
        history=history,
        standardizer=std,
        lr_max=lr_max,
        best_epoch=best_epoch,
        best_valid_rmse=best_rmse,
    )


def write_history_csv(path: str | Path, history: list[HistoryRow]) -> None:
    """epoch, train_rmse, valid_rmse, lr, wall_seconds; full-precision floats."""
    with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_rmse", "valid_rmse", "lr", "wall_seconds"])
        for row in history:
            writer.writerow(
                [row.epoch, repr(row.train_rmse), repr(row.valid_rmse),
                 repr(row.lr), repr(row.wall_seconds)]
            )
