"""The parts every workload runs, their set-up, their timing loop and their
correctness checks.

Each workload runs three parts, so that every end-to-end metric is measured
on every workload:

* train/evaluate: `cli.cmd_train` then `cli.cmd_evaluate` on a synthetic
  Wiener-Hammerstein set written as CSV plus a descriptor, the path a user
  of the command line takes.
* search: `hpo.run_search` with two workers over four short sequences, many
  short fits at once under the interpreter lock.
* sweep: the paper's cost-versus-length cells, one training step and one
  simulation for each of GRU/TCN x NAR/AR, at the workload's length. The
  workloads differ in this length only.

The benchmark calls only public entry points, always through their module
(`inference.simulate`, not a copied reference), so that the traced run can
rebind them.
"""

from __future__ import annotations

import bisect
import csv
import gc
import json
import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sidnn import checkpoint, cli, data, hpo, inference, models, training

perf_counter = time.perf_counter

# sweep length of each workload
LENGTHS = {"len1023": 1023, "len4096": 4096}

# train/evaluate: the README quickstart model with the default TrainConfig
# (batch 16, lr finder on) except for two epochs and an 8x shorter chunk and
# window: the same 8 chunks per window at an eighth of the cost, and a
# shorter test set, so that a run holds many fits
TRAIN_N = 20_000
TEST_N = 5_000
NOISE_STD = 0.01
GRU_QUICKSTART = {"arch": "gru", "mode": "nar", "hidden": 32, "depth": 1}
TRAIN = {"max_epochs": 2, "chunk_len": 64, "window_len": 512}
EVALS_PER_CYCLE = 2

# search: four 1500-sample sequences and a 256-sample window keep one search
# near 4 s, so a run holds two. The trial configurations are drawn from a
# fixed search seed, so every benchmark seed times the same nine trials;
# drawn from the benchmark seed, the depth and chunk draws alone moved
# trial-epochs/s by half between seeds
SEARCH_SEQUENCES = 4
SEARCH_N = 1_500
SEARCH_WINDOW = 256
SEARCH_SEED = 0
SEARCH = {"budget": 9, "workers": 2, "eta": 3, "r_min": 1, "num_rungs": 3}

# sweep: thin models, where per-step dispatch rather than BLAS throughput
# sets the cost; TCN depth 10 needs L >= 2**10 - 1
SWEEP_BATCH = 16
SWEEP_SPECS = {
    "gru_nar": dict(arch="gru", mode="nar", hidden=4, depth=1),
    "gru_ar": dict(arch="gru", mode="ar", hidden=4, depth=1),
    "tcn_nar": dict(arch="tcn", mode="nar", hidden=4, depth=10, kernel=2),
    "tcn_ar": dict(arch="tcn", mode="ar", hidden=4, depth=10, kernel=2),
}
# The 2-vCPU machine this was tuned on alternates between a fast regime and
# ones up to 2x slower, each lasting from under a second to minutes. A run
# therefore repeats train/evaluate and the sweep in CYCLES spread over the
# run. The search runs once, in the first cycle.
CYCLES = 6
MIN_ROUNDS = 5

# Over some minutes the machine ran 1.8x slower on average, so no statistic
# of one run's raw samples was steady between runs. A reference kernel is
# therefore timed just before and after every timed operation, and each
# sample is reported as if the machine had run the reference in REF_NOMINAL
# seconds: t * REF_NOMINAL / t_reference. An end-to-end time is the median.
# The regimes switch about once a second, so a long operation (cmd_train
# takes 1-3 s) spans several; its t_reference is the mean of the references
# timed from its own duration before its start to its own duration after its
# end, at least REF_MARGIN. Each reference is capped at REF_CAP, as the
# reference itself is sometimes descheduled for tens of milliseconds.
REF_STEPS = 250
REF_NOMINAL = 0.0007
REF_MARGIN = 0.01
REF_CAP = 4 * REF_NOMINAL


class Checks:
    """Operations attempted and failed; every failure is kept with its cause."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def raised(self, what: str) -> None:
        print(traceback.format_exc(), file=sys.stderr)
        self.op(False, f"{what} raised {sys.exc_info()[1]!r}")


class Reference:
    """A fixed kernel that does not use sidnn, timed just before and after
    every measured operation: small matmuls and tanh in a Python loop, the
    kind of work a recurrent step does. It shows how fast the machine was."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.h0 = rng.standard_normal((16, 8))
        self.w = 0.3 * rng.standard_normal((8, 8))
        self.starts: list[float] = []
        self.times: list[float] = []

    def __call__(self) -> None:
        t0 = perf_counter()
        h = self.h0
        for _ in range(REF_STEPS):
            h = np.tanh(h @ self.w + 0.5 * h)
        self.times.append(perf_counter() - t0)
        self.starts.append(t0)

    def around(self, start: float, seconds: float) -> float:
        """Mean capped reference time around an operation (see REF_MARGIN)."""
        margin = max(seconds, REF_MARGIN)
        lo = bisect.bisect_left(self.starts, start - margin)
        hi = bisect.bisect_right(self.starts, start + seconds + margin)
        return statistics.fmean(min(r, REF_CAP) for r in self.times[lo:hi])


# ---------------------------------------------------------------------------
# train/evaluate
# ---------------------------------------------------------------------------


@dataclass
class TrainEval:
    config: Path
    test: Path
    out: Path


def _write_dataset(work: Path, name: str, n: int, seed: int) -> Path:
    ds = data.synth_wiener_hammerstein(n, seed=seed, noise_std=NOISE_STD)
    u, y = ds.sequences[0]
    with open(work / f"{name}.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u", "y"])
        writer.writerows(np.hstack([u, y]).tolist())
    descriptor = work / f"{name}.json"
    descriptor.write_text(json.dumps(
        {"files": [f"{name}.csv"], "u_cols": ["u"], "y_cols": ["y"],
         "transient_n": ds.transient_n, "unit_scale": 1.0, "name": name}))
    return descriptor


def setup_train_eval(work: Path, seed: int) -> TrainEval:
    _write_dataset(work, "estimation", TRAIN_N, seed)
    test = _write_dataset(work, "test", TEST_N, seed + 1)
    config = work / "config.json"
    config.write_text(json.dumps(
        {"dataset": "estimation.json", "model": GRU_QUICKSTART,
         "train": TRAIN, "seed": seed}))
    return TrainEval(config=config, test=test, out=work / "run")


def measure_train_eval(te: TrainEval, checks: Checks, out: dict, ref: Reference) -> None:
    """One cmd_train, then EVALS_PER_CYCLE cmd_evaluate; appends (start,
    seconds) pairs to out, each between two references."""
    try:
        ref()
        t0 = perf_counter()
        cli.cmd_train(str(te.config), None, str(te.out))
        out["train_s"].append((t0, perf_counter() - t0))
        ref()
        checks.op(True, "cmd_train")
    except Exception:
        checks.raised("cmd_train")
        return
    ckpt = te.out / "checkpoint.bin"
    for _ in range(EVALS_PER_CYCLE):
        try:
            ref()
            t0 = perf_counter()
            summary = cli.cmd_evaluate(str(ckpt), str(te.test), str(te.out / "eval"))
            out["eval_s"].append((t0, perf_counter() - t0))
            ref()
        except Exception:
            checks.raised("cmd_evaluate")
            continue
        out["rmse"].append(summary["rmse"])
        checks.op(math.isfinite(summary["rmse"]), f"test_rmse {summary['rmse']} not finite")


def check_train_eval(te: TrainEval, checks: Checks, out: dict) -> None:
    """Training is deterministic, so every evaluation must score the same."""
    if out["rmse"]:
        checks.op(len(set(out["rmse"])) == 1,
                  f"test_rmse differs between fits or evaluations: {out['rmse']}")
    try:
        ck = checkpoint.load_checkpoint(te.out / "checkpoint.bin")
        spec = {k: getattr(ck.spec, k) for k in GRU_QUICKSTART}
        checks.op(spec == GRU_QUICKSTART, f"checkpoint spec {spec}")
        checks.op(all(np.isfinite(a).all() for _, a in ck.params.items()),
                  "checkpoint holds non-finite parameters")
    except Exception:
        checks.raised("load_checkpoint")


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


@dataclass
class Search:
    data: data.SequenceData
    space: hpo.SearchSpace
    spec: models.ModelSpec
    config: training.TrainConfig
    log: Path


def setup_search(work: Path, seed: int) -> Search:
    parts = [data.synth_wiener_hammerstein(SEARCH_N, seed=seed + i, noise_std=NOISE_STD)
             for i in range(SEARCH_SEQUENCES)]
    multi = data.SequenceData(sequences=[p.sequences[0] for p in parts],
                              transient_n=parts[0].transient_n)
    return Search(
        data=multi,
        space=hpo.SearchSpace(hidden=(8, 16), depth=(1, 2), chunk_len=(128, 256)),
        spec=models.ModelSpec(arch="gru", mode="nar", input_dim=1, hidden=8, depth=1),
        config=training.TrainConfig(window_len=SEARCH_WINDOW, chunk_len=256),
        log=work / "trials.jsonl",
    )


def measure_search(s: Search, checks: Checks, out: dict) -> None:
    """One run_search; appends its wall time and trial-epochs to out."""
    s.log.unlink(missing_ok=True)
    try:
        t0 = perf_counter()
        _, events = hpo.run_search(
            s.space, SEARCH["budget"], SEARCH["workers"], s.data,
            base_spec=s.spec, base_config=s.config, eta=SEARCH["eta"],
            r_min=SEARCH["r_min"], num_rungs=SEARCH["num_rungs"], seed=SEARCH_SEED,
            out_path=s.log)
        wall = perf_counter() - t0
    except Exception:
        checks.raised("run_search")
        return
    for e in events:
        checks.op(e.decision != "fail", f"trial {e.trial_id} failed at rung {e.rung}")
    checks.op(hpo.replay_decisions(events, eta=SEARCH["eta"], num_rungs=SEARCH["num_rungs"],
                                   r_min=SEARCH["r_min"]),
              "replay_decisions disagrees with the event log")
    lines = len(s.log.read_text(encoding="utf-8").splitlines())
    checks.op(lines == len(events), f"trials.jsonl has {lines} lines for {len(events)} events")
    out["wall_s"].append(wall)
    out["epochs"].append(sum(e.epochs for e in events if e.decision != "fail"))


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _damped_model(spec, seed: int):
    # free-running AR feedback must stay bounded over thousands of steps;
    # the cost of a step does not depend on the weights' values
    model = models.Model.create(spec, seed)
    for name in model.params.names():
        model.params[name] *= 0.3
    return model


class TrainCell:
    """One B=16 training step on a whole (B, L) batch."""

    kind = "train"

    def __init__(self, variant: str, spec, length: int, rng, seed: int):
        self.variant = variant
        self.samples = SWEEP_BATCH * length
        self.model = _damped_model(spec, seed)
        self.u = rng.standard_normal((SWEEP_BATCH, length, spec.input_dim))
        self.y = rng.standard_normal((SWEEP_BATCH, length, spec.output_dim))
        self.config = training.TrainConfig(chunk_len=length, window_len=length,
                                           batch_size=SWEEP_BATCH, lr_max=1e-5)
        self.state = training.TrainState.init(self.model.params, self.config.lr_max)
        self.times: list[tuple[float, float]] = []

    def __call__(self):
        model = self.model
        y_hat, _, cache = model.forward(self.u, model.initial_state(SWEEP_BATCH),
                                        training=True, return_cache=True)
        loss, g = training.masked_mse_grad(y_hat, self.y)
        grads, _ = model.backward(cache, g)
        training.clip_gradients(grads, self.config.grad_clip)
        training.radam_lookahead_step(model.params, grads, self.state, self.config)
        return loss, grads

    def check(self, out, checks: Checks) -> None:
        loss, grads = out
        checks.op(math.isfinite(loss) and all(np.isfinite(g).all() for g in grads.values()),
                  f"{self.variant} training step: non-finite loss or gradient")


class SimCell:
    """One free-running simulation of a (L, 1) sequence."""

    kind = "sim"

    def __init__(self, variant: str, spec, length: int, rng, seed: int):
        self.variant = variant
        self.samples = length
        self.model = _damped_model(spec, seed)
        self.u = rng.standard_normal((length, spec.input_dim))
        self.std = data.Standardizer.identity(spec.input_dim, spec.output_dim)
        self.first: bytes | None = None
        self.times: list[tuple[float, float]] = []

    def __call__(self):
        return inference.simulate(self.model, self.u, self.std)

    def check(self, y, checks: Checks) -> None:
        if self.first is None:
            checks.op(bool(np.isfinite(y).all()), f"{self.variant} simulation not finite")
            self.first = y.tobytes()
        else:
            checks.op(y.tobytes() == self.first,
                      f"{self.variant} simulation differs between repeats")


def make_cells(length: int, seed: int) -> list:
    rng = np.random.default_rng([seed, length])
    cells = []
    for variant, kw in SWEEP_SPECS.items():
        spec = models.ModelSpec(input_dim=1, output_dim=1, **kw)
        for cls in (TrainCell, SimCell):
            cells.append(cls(variant, spec, length, rng, seed))
    return cells


def run_cells(cells: list, checks: Checks, ref: Reference, *, rounds: int | None = None,
              deadline: float | None = None) -> int:
    """Round-robin over all cells in one loop, so that drift of the machine
    spreads over every cell alike. Runs exactly `rounds` rounds, or rounds
    until `deadline` (none if it has passed). Returns the rounds run.

    Each (start, seconds) sample lies between two references."""
    done = 0
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        ref()
        while (done < rounds) if rounds is not None else (perf_counter() < deadline):
            for cell in cells:
                try:
                    t0 = perf_counter()
                    out = cell()
                    cell.times.append((t0, perf_counter() - t0))
                except Exception:
                    checks.raised(f"{cell.kind} cell {cell.variant}")
                    continue
                finally:
                    ref()
                cell.check(out, checks)
            done += 1
        return done
    finally:
        if gc_was_enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# whole workload
# ---------------------------------------------------------------------------


@dataclass
class Context:
    length: int
    train_eval: TrainEval
    search: Search
    cells: list
    ref: Reference


def setup(workload: str, seed: int, work: Path, checks: Checks, ref: Reference) -> Context:
    """Inputs, files and models of one run, and one warm-up pass of each cell."""
    length = LENGTHS[workload]
    ctx = Context(length=length, train_eval=setup_train_eval(work, seed),
                  search=setup_search(work, seed), cells=make_cells(length, seed),
                  ref=ref)
    run_cells(ctx.cells, checks, ctx.ref, rounds=1)
    for cell in ctx.cells:
        cell.times.clear()
    return ctx


@dataclass
class Measurement:
    ref: Reference
    train_eval: dict = field(default_factory=lambda: {"train_s": [], "eval_s": [], "rmse": []})
    search: dict = field(default_factory=lambda: {"wall_s": [], "epochs": []})
    cells: dict = field(default_factory=dict)  # (kind, variant) -> times
    samples: dict = field(default_factory=dict)  # (kind, variant) -> samples per call
    rounds: int = 0


def measure(ctx: Context, checks: Checks, *, cycles: int = CYCLES,
            end: float | None = None, rounds_per_cycle: int | None = None) -> Measurement:
    """`cycles` cycles of: train/evaluate, the search in the first cycle,
    then sweep rounds until the cycle's share of the time left until `end`
    (a perf_counter time) has passed, or exactly `rounds_per_cycle` rounds.
    Train/evaluate and the search count against that time. A timed run ends
    with at least MIN_ROUNDS sweep rounds, even past `end`."""
    m = Measurement(ctx.ref)
    for cell in ctx.cells:
        cell.times.clear()
    t_start = perf_counter()
    for i in range(cycles):
        measure_train_eval(ctx.train_eval, checks, m.train_eval, ctx.ref)
        if i == 0:
            measure_search(ctx.search, checks, m.search)
        if end is None:
            m.rounds += run_cells(ctx.cells, checks, ctx.ref, rounds=rounds_per_cycle)
        else:
            deadline = t_start + (end - t_start) * (i + 1) / cycles
            m.rounds += run_cells(ctx.cells, checks, ctx.ref, deadline=deadline)
    if end is not None and m.rounds < MIN_ROUNDS:
        m.rounds += run_cells(ctx.cells, checks, ctx.ref, rounds=MIN_ROUNDS - m.rounds)
    check_train_eval(ctx.train_eval, checks, m.train_eval)
    for cell in ctx.cells:
        m.cells[(cell.kind, cell.variant)] = list(cell.times)
        m.samples[(cell.kind, cell.variant)] = cell.samples
    return m


UNITS = {
    "setup_s": "s", "train_s": "s", "eval_s": "s", "test_rmse": "y",
    **{f"train_sps.{v}": "samples/s" for v in SWEEP_SPECS},
    **{f"sim_sps.{v}": "samples/s" for v in SWEEP_SPECS},
    "peak_rss_mb": "MB",
}
# printed and reported, without a bound: see end_to_end
INFO_UNITS = {"hpo_epochs_per_s": "trial-epochs/s"}


def normalized(pairs: list[tuple[float, float]], ref: Reference) -> float | None:
    """Median of (start, seconds) samples, each scaled to the nominal
    reference speed by the references around it."""
    if not pairs:
        return None
    return statistics.median(t * REF_NOMINAL / ref.around(t0, t) for t0, t in pairs)


def cell_seconds(m: Measurement, kind: str, variant: str) -> float | None:
    return normalized(m.cells.get((kind, variant)), m.ref)


def end_to_end(m: Measurement) -> dict[str, float | None]:
    """The measured end-to-end values, except set-up time and memory.

    The search's trial-epochs/s comes from the run's one search. It has no
    bound: between slow and fast regimes it moved 1.35x, where the
    single-threaded reference moved 1.8x, so neither raw nor normalized
    values were steady (spread 0.33 and more over 10 seeds, even pooling 4
    searches per run).
    """
    te = m.train_eval
    out = {
        "train_s": normalized(te["train_s"], m.ref),
        "eval_s": normalized(te["eval_s"], m.ref),
        "test_rmse": te["rmse"][0] if te["rmse"] else None,
    }
    for kind in ("train", "sim"):
        for v in SWEEP_SPECS:
            t = cell_seconds(m, kind, v)
            out[f"{kind}_sps.{v}"] = m.samples[(kind, v)] / t if t else None
    se = m.search
    out["hpo_epochs_per_s"] = sum(se["epochs"]) / sum(se["wall_s"]) if se["wall_s"] else None
    return out


def ar_nar_ratios(m: Measurement) -> dict[str, float]:
    """AR time over NAR time, as the sweep metrics take them: the quantities
    criterion 6 of the acceptance suite orders."""
    out = {}
    for kind, arch in (("train", "gru"), ("train", "tcn"), ("sim", "gru"), ("sim", "tcn")):
        ar, nar = cell_seconds(m, kind, f"{arch}_ar"), cell_seconds(m, kind, f"{arch}_nar")
        if ar and nar:
            out[f"{kind}.{arch}.ar_over_nar"] = ar / nar
    return out
