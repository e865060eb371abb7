"""Command-line entry points: train, evaluate, simulate, bench, hpo, report.

Every command is driven by a JSON config file validated exhaustively before
any compute starts; all randomness is seeded from the config.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

from .checkpoint import load_checkpoint, save_checkpoint
from .data import atomic_open, load_descriptor
from .errors import (
    CompatibilityError,
    ParameterError,
    ReportError,
    SchemaError,
    SidnnError,
    UsageError,
)
from .hpo import HPO_LOWS, SearchSpace, run_search
from .inference import bench_inference_cells, bench_training_cells, pooled_rmse, simulate
from .models import SPEC_TYPES, Model, ModelSpec, range_problems, receptive_field, type_problems
from .training import TRAIN_LOWS, TrainConfig, fit, window_problems, write_history_csv

MODEL_DEFAULTS = {
    "arch": "gru",
    "mode": "nar",
    "hidden": 32,
    "depth": 1,
    "kernel": 2,
    "residual": True,
    "dropout": 0.0,
}

TRAIN_FIELDS = {
    "max_epochs": int, "batch_size": int, "chunk_len": int, "window_len": int,
    "lr_max": (float, type(None)), "lr_min": float, "lookahead_k": int,
    "lookahead_alpha": float, "betas": list, "eps": float, "weight_decay": float,
    "plateau_patience": int, "grad_clip": (float, type(None)), "seed": int,
    "teacher_forcing": bool, "warmup_mask_n": (int, type(None)),
    "valid_fraction": float,
}

HPO_DEFAULTS = {"budget": 16, "workers": 1, "eta": 3, "r_min": 2, "num_rungs": 3}

# Published test RMSEs (mV) of prior methods on the public benchmarks; shown
# in reports as labeled reference rows, never as results of this toolkit.
REFERENCE_RESULTS = {
    "silverbox": [("GRU-NAR", 0.96), ("PNLSS", 0.26)],
    "wiener_hammerstein": [("GRU-NAR", 0.39), ("PNLSS", 0.42)],
    "wh_process_noise": [("GRU-NAR", 20.3), ("WH-EIV", 25.0)],
}


def load_config(path: str | Path) -> dict:
    """Read and fully validate a run config; collects every problem at once."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SchemaError(f"config file not found: {path}") from None
    except OSError as exc:
        raise SchemaError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: config must be a JSON object")
    problems: list[str] = []
    known = {"dataset", "model", "train", "hpo", "out_dir", "seed"}
    for key in raw:
        if key not in known:
            problems.append(f"unknown field '{key}'")
    if "dataset" not in raw:
        problems.append("missing required field 'dataset'")
    elif not isinstance(raw["dataset"], str):
        problems.append("'dataset' must be a path string")
    sections = {}
    for name in ("model", "train", "hpo"):
        sections[name] = raw.get(name, {})
        if not isinstance(sections[name], dict):
            problems.append(f"'{name}' must be an object")
            sections[name] = {}
    model_cfg = dict(MODEL_DEFAULTS)
    for key, value in sections["model"].items():
        if key in ("input_dim", "output_dim"):
            problems.append(f"model.{key} is derived from the dataset, not configured")
        elif key not in model_cfg:
            problems.append(f"unknown field 'model.{key}'")
        else:
            model_cfg[key] = value
    model_types = type_problems(model_cfg, SPEC_TYPES)
    problems += [f"model.{p}" for p in model_types]
    train_cfg = sections["train"]
    for key in train_cfg:
        if key not in TRAIN_FIELDS:
            problems.append(f"unknown field 'train.{key}'")
    train_types = [f"train.{p}" for p in type_problems(train_cfg, TRAIN_FIELDS)]
    betas = train_cfg.get("betas")
    if isinstance(betas, list) and (
            len(betas) != 2 or any(type_problems({"b": b}, {"b": float}) for b in betas)):
        train_types.append(f"train.betas must be a list of two numbers, got {betas!r}")
    problems += train_types
    hpo_cfg = dict(HPO_DEFAULTS)
    for key, value in sections["hpo"].items():
        if key not in hpo_cfg:
            problems.append(f"unknown field 'hpo.{key}'")
        else:
            hpo_cfg[key] = value
    problems += [f"hpo.{p}" for p in type_problems(hpo_cfg, dict.fromkeys(HPO_DEFAULTS, int))]
    problems += [f"hpo.{p}" for p in range_problems(hpo_cfg, HPO_LOWS)]
    problems += type_problems(raw, {"seed": int, "out_dir": str})
    problems += range_problems(raw, {"seed": TRAIN_LOWS["seed"]})
    # the range checks are ModelSpec's and TrainConfig's own, run on
    # sections whose types are sound
    spec = config = None
    if not model_types:
        try:
            spec = ModelSpec(input_dim=1, output_dim=1, **model_cfg)
        except ParameterError as exc:
            problems.append(f"model: {exc}")
    if not train_types:
        try:
            config = TrainConfig(**{k: tuple(v) if k == "betas" else v
                                    for k, v in train_cfg.items() if k in TRAIN_FIELDS})
        except ParameterError as exc:
            problems.append(f"train: {exc}")
    if spec is not None and config is not None:
        problems += [f"train.{p}" for p in window_problems(spec, config)]
    if problems:
        raise SchemaError("invalid config: " + "; ".join(problems))
    cfg = {
        "dataset": raw["dataset"],
        "model": model_cfg,
        "train": dict(train_cfg),
        "hpo": hpo_cfg,
        "out_dir": raw.get("out_dir", "runs"),
        "seed": raw.get("seed", 0),
    }
    return cfg


def _build(cfg: dict, config_dir: Path):
    dataset_path = Path(cfg["dataset"])
    if not dataset_path.is_absolute():
        dataset_path = config_dir / dataset_path
    data, meta = load_descriptor(dataset_path)
    spec = ModelSpec(
        input_dim=data.input_dim, output_dim=data.output_dim, **cfg["model"]
    )
    train_kwargs = dict(cfg["train"])
    if "betas" in train_kwargs:
        train_kwargs["betas"] = tuple(train_kwargs["betas"])
    train_kwargs.setdefault("seed", cfg["seed"])
    config = TrainConfig(**train_kwargs)
    return data, meta, spec, config


def _out_dir(out: str | None) -> Path:
    out_dir = Path(out) if out is not None else Path("runs")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot make output directory {out_dir}: {exc.strerror or exc}") from None
    return out_dir


def cmd_train(config_path: str, seed: int | None = None, out: str | None = None) -> Path:
    cfg = load_config(config_path)
    if seed is not None:
        cfg["seed"] = seed
        cfg["train"]["seed"] = seed
    if out is not None:
        cfg["out_dir"] = out
    data, meta, spec, config = _build(cfg, Path(config_path).parent)
    out_dir = _out_dir(cfg["out_dir"])
    model = Model.create(spec, cfg["seed"])
    t0 = time.perf_counter()
    result = fit(model, data, config)
    wall = time.perf_counter() - t0
    ckpt_path = out_dir / "checkpoint.bin"
    save_checkpoint(ckpt_path, spec, result.standardizer, result.params)
    write_history_csv(out_dir / "history.csv", result.history)
    y_hats = [simulate(model, u, result.standardizer) for u, _ in data.sequences]
    est_rmse = pooled_rmse(y_hats, data, meta["unit_scale"])
    summary = {
        "kind": "training",
        "dataset_name": meta["name"],
        "seed": cfg["seed"],
        "lr_max": result.lr_max,
        "epochs_run": len(result.history),
        "best_epoch": result.best_epoch,
        "best_valid_rmse": result.best_valid_rmse,
        "estimation_rmse": est_rmse,
        "unit_scale": meta["unit_scale"],
        "wall_seconds": wall,
    }
    with atomic_open(out_dir / "summary.json", encoding="utf-8") as fh:
        fh.write(json.dumps(summary, indent=2))
    print(f"trained {spec.arch}-{spec.mode}: best valid RMSE {result.best_valid_rmse:.6g} "
          f"(epoch {result.best_epoch}), checkpoint at {ckpt_path}")
    return out_dir


def _simulate_dataset(checkpoint_path: str, dataset_path: str, out: str | None, stem: str):
    """Simulate every sequence of the dataset with the checkpoint and write
    each trajectory to <out>/<stem>_<i>.csv; returns (y_hats, data, meta,
    out_dir, sim_seconds), sim_seconds the time spent simulating."""
    ckpt = load_checkpoint(checkpoint_path)
    data, meta = load_descriptor(dataset_path)
    if data.input_dim != ckpt.spec.input_dim or data.output_dim != ckpt.spec.output_dim:
        raise CompatibilityError(
            f"checkpoint expects {ckpt.spec.input_dim} input / {ckpt.spec.output_dim} "
            f"output channels, dataset has {data.input_dim}/{data.output_dim}"
        )
    model = Model(spec=ckpt.spec, params=ckpt.params)
    out_dir = _out_dir(out)
    y_hats = []
    sim_seconds = 0.0
    for i, (u, _) in enumerate(data.sequences):
        t0 = time.perf_counter()
        y_hats.append(simulate(model, u, ckpt.standardizer))
        sim_seconds += time.perf_counter() - t0
        with atomic_open(out_dir / f"{stem}_{i}.csv", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(data.y_names)
            writer.writerows(y_hats[-1].tolist())
    return y_hats, data, meta, out_dir, sim_seconds


def cmd_evaluate(checkpoint_path: str, dataset_path: str, out: str | None = None) -> dict:
    y_hats, data, meta, out_dir, sim_seconds = _simulate_dataset(
        checkpoint_path, dataset_path, out, "yhat")
    pooled = pooled_rmse(y_hats, data, meta["unit_scale"])
    summary = {
        "kind": "evaluation",
        "dataset_name": meta["name"],
        "rmse": pooled,
        "unit_scale": meta["unit_scale"],
        "transient_skipped": data.transient_n,
        "wall_seconds": sim_seconds,
        "checkpoint": str(checkpoint_path),
    }
    with atomic_open(out_dir / f"eval_{meta['name']}.json", encoding="utf-8") as fh:
        fh.write(json.dumps(summary, indent=2))
    print(f"evaluated {meta['name']}: RMSE {pooled:.6g} "
          f"(transient {data.transient_n} skipped)")
    return summary


def cmd_simulate(checkpoint_path: str, dataset_path: str, out: str | None = None) -> Path:
    y_hats, _, _, out_dir, _ = _simulate_dataset(checkpoint_path, dataset_path, out, "sim")
    print(f"simulated {len(y_hats)} sequence(s) into {out_dir}")
    return out_dir


def _bench_specs() -> list[ModelSpec]:
    # thin variants: per-step dispatch cost, not BLAS throughput, dominates,
    # which is the regime where the AR/NAR structural gap shows on one core
    gru = dict(arch="gru", input_dim=1, hidden=4, depth=1, output_dim=1)
    tcn = dict(arch="tcn", input_dim=1, hidden=4, depth=10, output_dim=1)
    return [
        ModelSpec(mode="ar", **gru),
        ModelSpec(mode="nar", **gru),
        ModelSpec(mode="ar", **tcn),
        ModelSpec(mode="nar", **tcn),
    ]


def _write_bench_csv(out_dir: Path, stem: str, table) -> Path:
    stamp = time.strftime("%Y%m%d-%H%M%S") + f"-{time.time_ns() % 1_000_000:06d}"
    raw_path = out_dir / f"{stem}_{stamp}.csv"
    with atomic_open(raw_path, newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["variant", "mode", "seq_len", "repeat",
                                                "wall_seconds"])
        writer.writeheader()
        writer.writerows(table.rows)
    med_path = out_dir / f"{stem}_{stamp}_medians.csv"
    with atomic_open(med_path, newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["variant", "mode", "seq_len",
                                                "median_seconds"])
        writer.writeheader()
        writer.writerows(table.medians())
    return raw_path


def cmd_bench(lengths: list[int], repeats: int, out: str | None, seed: int = 0) -> Path:
    out_dir = _out_dir(out)
    # each spec keeps only its admissible lengths; short TCN rows are
    # skipped with a logged reason rather than silently dropped
    cells = []
    for spec in _bench_specs():
        use = lengths
        if spec.arch == "tcn":
            need = receptive_field(spec.depth, spec.kernel)
            use = [L for L in lengths if L >= need]
            skipped = [L for L in lengths if L < need]
            if skipped:
                print(f"skipping TCN-{spec.mode.upper()} at lengths {skipped}: "
                      f"receptive field needs >= {need} samples")
        cells += [(spec, L) for L in use]
    results = []
    # one call per kind times every cell in the same round-robin
    for kind, runner in (("training", bench_training_cells),
                         ("inference", bench_inference_cells)):
        table = runner(cells, repeats=repeats, seed=seed)
        path = _write_bench_csv(out_dir, f"bench_{kind}", table)
        results.append(path)
        print(f"{kind} timings written to {path}")
    return results[0]


def cmd_hpo(config_path: str, out: str | None = None) -> Path:
    cfg = load_config(config_path)
    if out is not None:
        cfg["out_dir"] = out
    data, meta, spec, config = _build(cfg, Path(config_path).parent)
    out_dir = _out_dir(cfg["out_dir"])
    h = cfg["hpo"]
    space = SearchSpace()
    ranked, events = run_search(
        space, h["budget"], h["workers"], data,
        base_spec=spec, base_config=config,
        eta=h["eta"], r_min=h["r_min"], num_rungs=h["num_rungs"],
        seed=cfg["seed"], out_path=out_dir / "trials.jsonl",
    )
    best = ranked[0]
    with atomic_open(out_dir / "best_config.json", encoding="utf-8") as fh:
        fh.write(json.dumps({"trial_id": best.trial_id, "config": best.config,
                             "best_valid_rmse": best.best_loss}, indent=2))
    print(f"hpo done: best trial {best.trial_id} with valid RMSE {best.best_loss:.6g}")
    return out_dir


def cmd_report(results_dir: str) -> str:
    results_dir = Path(results_dir)
    own = []
    for path in sorted(results_dir.glob("**/*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            continue
        if isinstance(payload, dict) and payload.get("kind") == "evaluation":
            rmse = payload.get("rmse")
            if (isinstance(rmse, bool) or not isinstance(rmse, (int, float))
                    or not math.isfinite(rmse)
                    or not isinstance(payload.get("dataset_name"), str)):
                raise ReportError(f"evaluation record {path} needs a finite number "
                                  f"'rmse' and a string 'dataset_name'")
            own.append(payload)
    if not own:
        raise ReportError(f"no evaluation results found under {results_dir}")
    own.sort(key=lambda p: p["rmse"])
    lines = ["RMSE [mV]  Method", "-" * 44]
    for p in own:
        lines.append(f"{p['rmse']:9.4g}  this run ({p['dataset_name']})")
    for bench, rows in REFERENCE_RESULTS.items():
        for method, rmse in rows:
            lines.append(f"{rmse:9.4g}  {method} [literature reference, {bench}]")
    report = "\n".join(lines)
    print(report)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sidnn",
        description="GRU/TCN system identification: train, evaluate and benchmark "
                    "AR and NAR sequence models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a config file")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--out", default=None)

    p_eval = sub.add_parser("evaluate", help="score a checkpoint on a dataset")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--out", default=None)

    p_sim = sub.add_parser("simulate", help="write free-running trajectories")
    p_sim.add_argument("--checkpoint", required=True)
    p_sim.add_argument("--dataset", required=True)
    p_sim.add_argument("--out", default=None)

    p_bench = sub.add_parser("bench", help="training/inference time vs length")
    p_bench.add_argument("--lengths", type=int, nargs="+", default=[1023, 2048, 4096])
    p_bench.add_argument("--repeats", type=int, default=5)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", default=None)

    p_hpo = sub.add_parser("hpo", help="ASHA hyperparameter search")
    p_hpo.add_argument("--config", required=True)
    p_hpo.add_argument("--out", default=None)

    p_rep = sub.add_parser("report", help="compare results with literature values")
    p_rep.add_argument("--results", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "train":
            cmd_train(args.config, args.seed, args.out)
        elif args.command == "evaluate":
            cmd_evaluate(args.checkpoint, args.dataset, args.out)
        elif args.command == "simulate":
            cmd_simulate(args.checkpoint, args.dataset, args.out)
        elif args.command == "bench":
            cmd_bench(args.lengths, args.repeats, args.out, args.seed)
        elif args.command == "hpo":
            cmd_hpo(args.config, args.out)
        elif args.command == "report":
            cmd_report(args.results)
    except SidnnError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
