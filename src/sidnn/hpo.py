"""Asynchronous successive halving (ASHA) over the training configuration.

Random search with early stopping: a trial finishing rung r is promoted to
rung r+1 iff its validation loss ranks within the top ceil(k/eta) of the k
results completed at rung r so far (ties favor the lower trial id), else it
stops. The thread that calls run_search makes every decision; worker threads
only train. Every decision is written to a JSON-lines event log that holds
one search, so a run can be replayed and audited.
"""

from __future__ import annotations

import json
import math
import os
import queue
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .data import SequenceData
from .errors import BookkeepingError, ParameterError, SidnnError, TrainingError
from .models import Model, ModelSpec, range_problems
from .training import TrainConfig, fit

# lower bounds of run_search's settings; a run config's hpo section is checked
# against them too (cli.load_config)
HPO_LOWS = {"budget": (">=", 1), "workers": (">=", 1), "eta": (">=", 2), "r_min": (">=", 1),
            "num_rungs": (">=", 1)}


@dataclass(frozen=True)
class SearchSpace:
    """Per-hyperparameter sampling rules.

    lr and weight_decay draw log-uniformly; hidden and chunk_len draw from
    power-of-two sets; depth draws integer-uniformly over an inclusive range.
    """

    lr: tuple[float, float] = (1e-4, 1e-2)
    weight_decay: tuple[float, float] = (1e-6, 1e-3)
    hidden: tuple[int, ...] = (16, 32, 64, 128)
    depth: tuple[int, int] = (2, 10)
    chunk_len: tuple[int, ...] = (128, 256, 512, 1024)
    residual: tuple[bool, ...] = (True, False)

    def __post_init__(self) -> None:
        for name in ("lr", "weight_decay"):
            lo, hi = getattr(self, name)
            if not (0 < lo <= hi):
                raise ParameterError(f"{name} bounds must be positive and ordered")
        if self.depth[0] < 1 or self.depth[0] > self.depth[1]:
            raise ParameterError("depth range must be ordered and >= 1")
        if not self.hidden or not self.chunk_len or not self.residual:
            raise ParameterError("categorical choices must be non-empty")

    def default_overlay(self) -> dict:
        """Geometric/median midpoint of the space; seeds the search."""
        return {
            "lr": math.sqrt(self.lr[0] * self.lr[1]),
            "weight_decay": math.sqrt(self.weight_decay[0] * self.weight_decay[1]),
            "hidden": self.hidden[len(self.hidden) // 2],
            "depth": (self.depth[0] + self.depth[1]) // 2,
            "chunk_len": self.chunk_len[len(self.chunk_len) // 2],
            "residual": self.residual[0],
        }


def sample_config(space: SearchSpace, seed: int, trial_index: int = 0) -> dict:
    """Independent draw per hyperparameter, deterministic per (seed, index)."""
    rng = np.random.default_rng([seed, trial_index])
    log_u = lambda lo, hi: float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
    return {
        "lr": log_u(*space.lr),
        "weight_decay": log_u(*space.weight_decay),
        "hidden": int(rng.choice(space.hidden)),
        "depth": int(rng.integers(space.depth[0], space.depth[1] + 1)),
        "chunk_len": int(rng.choice(space.chunk_len)),
        "residual": bool(rng.choice(np.asarray(space.residual))),
    }


@dataclass
class Rung:
    """One resource level: r_min * eta**index training epochs."""

    index: int
    resource: int
    results: list[tuple[int, float]] = field(default_factory=list)  # (trial_id, loss)


@dataclass
class TrialRecord:
    trial_id: int
    config: dict
    rungs: list[tuple[int, float]] = field(default_factory=list)  # (resource, loss)
    status: str = "running"

    @property
    def best_loss(self) -> float:
        return min((loss for _, loss in self.rungs), default=math.inf)


def asha_decide(rungs: list[Rung], trial_result: tuple[int, int, float], eta: int = 3) -> str:
    """"promote" iff the result ranks in the top ceil(k/eta) of its rung's k
    completed results, ties broken by lower trial id; else "stop"."""
    trial_id, rung_index, loss = trial_result
    rung = next((r for r in rungs if r.index == rung_index), None)
    if rung is None:
        raise BookkeepingError(f"result reported for unknown rung {rung_index}")
    if (trial_id, loss) not in rung.results:
        raise BookkeepingError(
            f"trial {trial_id} has no recorded result at rung {rung_index}"
        )
    ranked = sorted(rung.results, key=lambda r: (r[1], r[0]))
    k = len(ranked)
    cut = math.ceil(k / eta)
    position = ranked.index((trial_id, loss))
    return "promote" if position < cut else "stop"


@dataclass
class SearchEvent:
    trial_id: int
    rung: int
    epochs: int
    valid_rmse: float
    decision: str  # promote | stop | complete | fail
    timestamp: float
    error: str | None = None  # "<ExcClass>: <message>" of a failed trial

    def to_json(self) -> str:
        line = {"trial_id": self.trial_id, "rung": self.rung, "epochs": self.epochs,
                "valid_rmse": self.valid_rmse, "decision": self.decision,
                "timestamp": self.timestamp}
        if self.error is not None:
            line["error"] = self.error
        return json.dumps(line)


def replay_decisions(events: list[SearchEvent], eta: int = 3, num_rungs: int = 3,
                     r_min: int = 2) -> bool:
    """Re-run every promote/stop decision from the event log; True if all match."""
    rungs = [Rung(r, r_min * eta ** r) for r in range(num_rungs)]
    for ev in events:
        if ev.decision == "fail":
            continue
        rung = next((r for r in rungs if r.index == ev.rung), None)
        if rung is None:
            raise BookkeepingError(f"event log references unknown rung {ev.rung}")
        rung.results.append((ev.trial_id, ev.valid_rmse))
        if ev.decision == "complete":
            continue
        expected = asha_decide(rungs, (ev.trial_id, ev.rung, ev.valid_rmse), eta)
        if expected != ev.decision:
            return False
    return True


def _default_trial_runner(data: SequenceData, base_spec: ModelSpec, base_config: TrainConfig):
    """Train from scratch for the rung's epoch budget; returns best valid RMSE."""

    def run(config_overlay: dict, epochs: int, trial_seed: int) -> float:
        spec = replace(
            base_spec,
            hidden=config_overlay.get("hidden", base_spec.hidden),
            depth=config_overlay.get("depth", base_spec.depth),
            residual=config_overlay.get("residual", base_spec.residual),
        )
        config = replace(
            base_config,
            lr_max=config_overlay.get("lr", base_config.lr_max),
            weight_decay=config_overlay.get("weight_decay", base_config.weight_decay),
            chunk_len=config_overlay.get("chunk_len", base_config.chunk_len),
            max_epochs=epochs,
            seed=trial_seed,
        )
        if config.window_len % config.chunk_len != 0 or config.window_len < config.chunk_len:
            config = replace(config, window_len=config.chunk_len * max(
                1, base_config.window_len // config.chunk_len))
        model = Model.create(spec, trial_seed)
        result = fit(model, data, config)
        return result.best_valid_rmse

    return run


def run_search(
    space: SearchSpace,
    budget: int,
    workers: int,
    data: SequenceData | None,
    *,
    base_spec: ModelSpec | None = None,
    base_config: TrainConfig | None = None,
    eta: int = 3,
    r_min: int = 2,
    num_rungs: int = 3,
    seed: int = 0,
    out_path: str | Path | None = None,
    trial_runner: Callable[[dict, int, int], float] | None = None,
) -> tuple[list[TrialRecord], list[SearchEvent]]:
    """Run ASHA until `budget` trials have been sampled and all work drained.

    The calling thread is the only one that touches the search state. It
    hands each idle worker a job: a pending promotion first, else a new trial
    while the budget lasts (trial 0 runs the space's default overlay, every
    later one a sampled config). It takes each result from a queue, decides
    it, and writes the records, rungs, events and the log at out_path, which
    holds this search alone. The `workers` daemon threads only call
    trial_runner, so an interrupt of the caller ends the search at once: no
    further trial starts, and the trials in flight run out in the background.
    A SidnnError from a trial is logged and the search goes on. Any other
    exception is logged too, but stops the hand-out; once the running trials
    have returned it is raised as a TrainingError, as it is when no trial
    completes a rung. Returns the records sorted by best achieved validation
    RMSE plus the event log.
    """
    problems = range_problems(dict(budget=budget, workers=workers, eta=eta, r_min=r_min,
                                   num_rungs=num_rungs), HPO_LOWS)
    if problems:
        raise ParameterError("invalid search settings: " + "; ".join(problems))
    if trial_runner is None:
        if data is None or base_spec is None or base_config is None:
            raise ParameterError("run_search needs data, base_spec and base_config "
                                 "unless a trial_runner is injected")
        trial_runner = _default_trial_runner(data, base_spec, base_config)
    rungs = [Rung(r, r_min * eta ** r) for r in range(num_rungs)]
    records: dict[int, TrialRecord] = {}  # status "running" while its job is out
    events: list[SearchEvent] = []
    pending: list[tuple[int, int]] = []  # (trial_id, rung_index) promotions to run
    crash: tuple[int, BaseException] | None = None  # first non-SidnnError of a trial
    jobs, results = queue.SimpleQueue(), queue.SimpleQueue()

    def work() -> None:
        # job: (trial_id, rung_index, overlay, epochs, trial_seed); None ends it
        while (job := jobs.get()) is not None:
            try:
                outcome = float(trial_runner(*job[2:]))
            except BaseException as exc:  # handed back, so no job is ever lost
                outcome = exc
            results.put((job, outcome))

    def hand_out() -> bool:
        if pending:
            trial_id, rung_index = pending.pop(0)
        elif len(records) < budget:
            trial_id, rung_index = len(records), 0
            overlay = (space.default_overlay() if trial_id == 0
                       else sample_config(space, seed, trial_id))
            records[trial_id] = TrialRecord(trial_id=trial_id, config=overlay)
        else:
            return False
        records[trial_id].status = "running"
        jobs.put((trial_id, rung_index, dict(records[trial_id].config),
                  rungs[rung_index].resource, _trial_seed(seed, trial_id)))
        return True

    def running() -> int:
        return sum(r.status == "running" for r in records.values())

    def emit(trial_id: int, rung_index: int, loss: float, decision: str,
             error: str | None = None) -> None:
        ev = SearchEvent(trial_id, rung_index, rungs[rung_index].resource, loss,
                         decision, time.time(), error)
        events.append(ev)
        log_fh.write(ev.to_json() + "\n")
        log_fh.flush()

    log_fh = open(out_path if out_path is not None else os.devnull, "w", encoding="utf-8")
    for _ in range(workers):
        threading.Thread(target=work, daemon=True).start()
    try:
        while True:
            while crash is None and running() < workers and hand_out():
                pass
            if not running():
                break
            (trial_id, rung_index, *_), outcome = results.get()
            record = records[trial_id]
            if isinstance(outcome, BaseException):
                # after a SidnnError the search goes on; any other exception
                # stops the hand-out of work
                record.status = "failed"
                emit(trial_id, rung_index, math.nan, "fail",
                     f"{type(outcome).__name__}: {outcome}")
                if not isinstance(outcome, SidnnError) and crash is None:
                    crash = (trial_id, outcome)
                continue
            rungs[rung_index].results.append((trial_id, outcome))
            record.rungs.append((rungs[rung_index].resource, outcome))
            if rung_index == num_rungs - 1:
                record.status = "completed"
                emit(trial_id, rung_index, outcome, "complete")
                continue
            decision = asha_decide(rungs, (trial_id, rung_index, outcome), eta)
            if decision == "promote":
                record.status = "promoted"
                pending.append((trial_id, rung_index + 1))
            else:
                record.status = "stopped"
            emit(trial_id, rung_index, outcome, decision)
    finally:
        for _ in range(workers):
            jobs.put(None)  # idle workers end now, busy ones after their trial
        log_fh.close()
    if crash is not None:
        trial_id, exc = crash
        raise TrainingError(f"trial {trial_id} raised {type(exc).__name__}: {exc}") from exc
    if all(r.status == "failed" for r in records.values()):
        raise TrainingError(f"no trial completed a rung; trial 0 failed with "
                            f"{next(e.error for e in events if e.trial_id == 0)}")
    ranked = sorted(records.values(), key=lambda r: (r.best_loss, r.trial_id))
    return ranked, events


def _trial_seed(seed: int, trial_id: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(trial_id,)).generate_state(1)[0])
