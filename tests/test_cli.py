import csv
import json

import numpy as np
import pytest

from sidnn.cli import (
    _build,
    cmd_bench,
    cmd_evaluate,
    cmd_report,
    cmd_simulate,
    cmd_train,
    load_config,
    main,
)
from sidnn.errors import ReportError, SchemaError, SidnnError


def write_config(tmp_path, **overrides):
    cfg = {
        "dataset": "dataset.json",
        "model": {"arch": "gru", "mode": "nar", "hidden": 4, "depth": 1},
        "train": {
            "max_epochs": 2, "window_len": 128, "chunk_len": 64,
            "batch_size": 4, "lr_max": 0.01,
        },
        "out_dir": str(tmp_path / "run"),
        "seed": 0,
    }
    cfg.update(overrides)
    (tmp_path / "dataset.json").write_text(json.dumps(
        {"synthetic": {"n": 1200, "seed": 3, "noise_std": 0.01},
         "transient_n": 50, "name": "synth_demo"}
    ))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def read_history(out_dir):
    with open(out_dir / "history.csv", newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_missing_dataset_lists_field(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{}")
    with pytest.raises(SchemaError) as exc:
        load_config(path)
    assert "dataset" in str(exc.value)


def test_config_collects_all_problems(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"bogus": 1, "train": {"nope": 2, "max_epochs": "x"}}))
    with pytest.raises(SchemaError) as exc:
        load_config(path)
    msg = str(exc.value)
    assert "bogus" in msg and "nope" in msg and "max_epochs" in msg and "dataset" in msg


@pytest.mark.parametrize("overrides, field", [
    ({"model": {"hidden": "32"}}, "model.hidden"),
    ({"model": [1]}, "'model'"),
    ({"model": {"depth": 1.5}}, "model.depth"),
    ({"model": {"depth": True}}, "model.depth"),
    ({"train": {"max_epochs": True}}, "train.max_epochs"),
    ({"train": {"betas": ["a", 0.9]}}, "train.betas"),
    ({"train": {"betas": [0.9]}}, "train.betas"),
    ({"train": {"betas": [0.9, 0.99, 0.999]}}, "train.betas"),
    ({"train": {"betas": [True, 0.999]}}, "train.betas"),
    ({"train": {"betas": [0.9, None]}}, "train.betas"),
], ids=["string_hidden", "model_not_object", "float_depth", "bool_depth", "bool_epochs",
        "string_beta", "one_beta", "three_betas", "bool_beta", "null_beta"])
def test_cli_main_reports_mistyped_config_as_schema_error(tmp_path, capsys, overrides, field):
    path = write_config(tmp_path, **overrides)
    assert main(["train", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error[schema]" in err and field in err


def test_config_reports_windows_the_warmup_mask_covers(tmp_path):
    # depth 10 masks the first 1023 samples of every window, before the
    # dataset is ever loaded, and the other problems are still listed
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"dataset": "missing.json", "bogus": 1,
                                "model": {"arch": "tcn", "depth": 10},
                                "train": {"window_len": 1023, "chunk_len": 341}}))
    with pytest.raises(SchemaError) as exc:
        load_config(path)
    msg = str(exc.value)
    assert "train.window_len must exceed the 1023-sample warm-up mask" in msg
    assert "bogus" in msg
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({"dataset": "missing.json", "model": {"arch": "tcn", "depth": 10},
                              "train": {"window_len": 1536, "chunk_len": 512}}))
    assert load_config(ok)["train"]["window_len"] == 1536


def test_config_reports_a_window_its_chunks_do_not_tile(tmp_path):
    # WindowPlan would reject it only after the dataset has loaded
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"dataset": "missing.json", "bogus": 1,
                                "train": {"window_len": 1000, "chunk_len": 512}}))
    with pytest.raises(SchemaError) as exc:
        load_config(path)
    msg = str(exc.value)
    assert "train.window_len 1000 is not a multiple of chunk_len 512" in msg
    assert "bogus" in msg


@pytest.mark.parametrize("section, field", [
    ({"model": {"depth": 0}}, "depth"),
    ({"model": {"kernel": 0}}, "kernel"),
    ({"model": {"arch": "tcn", "dropout": 0.5}}, "dropout"),
    ({"train": {"lookahead_alpha": 2.0}}, "lookahead_alpha"),
    ({"train": {"betas": [0.9, 1.5]}}, "betas"),
], ids=["depth", "kernel", "tcn_dropout", "lookahead_alpha", "beta_range"])
def test_config_reports_out_of_range_values_before_the_dataset_loads(tmp_path, section, field):
    # ModelSpec's and TrainConfig's own range checks run in load_config, so
    # the dataset path, which does not exist, is never reached
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"dataset": "missing.json", **section}))
    with pytest.raises(SchemaError) as exc:
        load_config(path)
    name = next(iter(section))
    assert f"{name}: " in str(exc.value) and field in str(exc.value)


def test_config_defaults_fill_in(tmp_path):
    path = write_config(tmp_path)
    cfg = load_config(path)
    assert cfg["model"]["kernel"] == 2
    assert cfg["hpo"]["budget"] == 16


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_smoke_produces_artifacts(tmp_path):
    out = cmd_train(str(write_config(tmp_path)))
    assert (out / "checkpoint.bin").exists()
    rows = read_history(out)
    assert rows[0] == ["epoch", "train_rmse", "valid_rmse", "lr", "wall_seconds"]
    assert len(rows) == 3  # header + 2 epochs
    summary = json.loads((out / "summary.json").read_text())
    assert summary["epochs_run"] == 2
    assert summary["kind"] == "training"


def test_train_determinism_identical_histories(tmp_path):
    path = write_config(tmp_path)
    out1 = cmd_train(str(path), out=str(tmp_path / "a"))
    out2 = cmd_train(str(path), out=str(tmp_path / "b"))
    r1 = read_history(out1)
    r2 = read_history(out2)
    # wall_seconds is measured, everything else must match exactly
    strip = lambda rows: [row[:4] for row in rows]
    assert strip(r1) == strip(r2)


def test_cli_main_reports_schema_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code = main(["train", "--config", str(bad)])
    assert code == 1
    assert "error[schema]" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run inputs: config, CSV descriptor, CSV
# ---------------------------------------------------------------------------


DESCRIPTOR = {"files": ["data.csv"], "u_cols": ["u"], "y_cols": ["y"]}


def write_csv_run(tmp_path):
    """A config whose descriptor names one small CSV; returns the config path."""
    rows = "\n".join(f"{0.1 * t:.3f},{np.sin(t):.6f}" for t in range(24))
    (tmp_path / "data.csv").write_text("u,y\n" + rows + "\n")
    (tmp_path / "dataset.json").write_text(json.dumps(
        {**DESCRIPTOR, "transient_n": 5, "unit_scale": 1000.0, "name": "csv_demo"}))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(
        {"dataset": "dataset.json", "model": {"arch": "tcn", "mode": "ar", "hidden": 4,
                                              "depth": 2, "kernel": 2},
         "train": {"max_epochs": 2, "window_len": 16, "chunk_len": 8, "batch_size": 2,
                   "lr_max": 0.01, "betas": [0.9, 0.999], "grad_clip": None},
         "out_dir": str(tmp_path / "run"), "seed": 3}))
    return path


@pytest.mark.parametrize("name, content, category", [
    ("config.json", b'{"dataset": "dataset.json", "out_dir": "r\xff"}', "schema"),
    ("dataset.json", b'{"files": ["data.csv"], "u_cols": ["u"], "y_cols": ["y"], '
                     b'"name": "\xff"}', "parse"),
    ("data.csv", b"u,y\n0.1,0.2\n\xff,0.3\n", "parse"),
    ("dataset.json", {**DESCRIPTOR, "files": ["missing.csv"]}, "data"),
    ("dataset.json", {**DESCRIPTOR, "unit_scale": "abc"}, "schema"),
    ("dataset.json", {"synthetic": {"n": "many"}}, "schema"),
    ("dataset.json", {**DESCRIPTOR, "transient_n": None}, "schema"),
    ("dataset.json", {**DESCRIPTOR, "files": "x.csv"}, "schema"),
], ids=["non_utf8_config", "non_utf8_descriptor", "non_utf8_csv", "missing_csv",
        "string_unit_scale", "string_synthetic_n", "null_transient_n", "files_not_list"])
def test_cli_main_reports_bad_run_input_as_typed_error(tmp_path, capsys, name, content,
                                                       category):
    path = write_csv_run(tmp_path)
    if isinstance(content, dict):
        content = json.dumps(content).encode()
    (tmp_path / name).write_bytes(content)
    assert main(["train", "--config", str(path)]) == 1
    assert f"error[{category}]" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value, argv, category", [
    ("config", "seed", -1, [], "schema"),
    ("train", "seed", -2, [], "schema"),
    ("synthetic", "seed", -3, [], "schema"),
    (None, "seed", None, ["--seed", "-5"], "parameter"),
    ("train", "lr_min", -1, [], "schema"),
    ("train", "eps", -1, [], "schema"),
    ("train", "warmup_mask_n", -3, [], "schema"),
    ("train", "plateau_patience", -3, [], "schema"),
    ("synthetic", "noise_std", -0.01, [], "schema"),
    ("descriptor", "unit_scale", -2.0, [], "schema"),
    ("hpo", "num_rungs", 0, [], "schema"),
    ("hpo", "r_min", 0, [], "schema"),
    ("train", "weight_decay", -0.5, [], "schema"),
    ("train", "grad_clip", 0, [], "schema"),
    ("train", "grad_clip", -1, [], "schema"),
    ("train", "chunk_len", 0, [], "schema"),
    ("train", "window_len", -64, [], "schema"),
    ("train", "valid_fraction", 0.9, [], "schema"),
    ("train", "valid_fraction", 0.0, [], "schema"),
], ids=["config_seed", "train_seed", "synthetic_seed", "cli_seed", "lr_min", "eps",
        "warmup_mask_n", "plateau_patience", "noise_std", "unit_scale", "hpo_num_rungs",
        "hpo_r_min", "weight_decay", "zero_grad_clip", "negative_grad_clip", "chunk_len",
        "window_len", "valid_fraction_high", "valid_fraction_zero"])
def test_cli_main_reports_out_of_range_run_input_as_typed_error(tmp_path, capsys, section, key,
                                                                value, argv, category):
    path = write_config(tmp_path)
    cfg = json.loads(path.read_text())
    descriptor = json.loads((tmp_path / "dataset.json").read_text())
    if section is not None:
        target = {"config": cfg, "train": cfg["train"], "hpo": cfg.setdefault("hpo", {}),
                  "descriptor": descriptor, "synthetic": descriptor["synthetic"]}[section]
        target[key] = value
    path.write_text(json.dumps(cfg))
    (tmp_path / "dataset.json").write_text(json.dumps(descriptor))
    assert main(["train", "--config", str(path), *argv]) == 1
    err = capsys.readouterr().err
    assert f"error[{category}]" in err and key in err
    assert not (tmp_path / "run").exists()


def test_truncated_or_bit_flipped_run_inputs_raise_only_sidnn_errors(tmp_path):
    # every truncation and 1,000 seeded single-bit flips of the config, its
    # descriptor and its CSV, loaded as `train` does before it trains
    path = write_csv_run(tmp_path)
    blobs = {name: (tmp_path / name).read_bytes()
             for name in ("config.json", "dataset.json", "data.csv")}
    corrupt = [(name, blob[:n]) for name, blob in blobs.items() for n in range(len(blob))]
    rng = np.random.default_rng(0)
    names = list(blobs)
    for _ in range(1000):
        name = names[int(rng.integers(len(names)))]
        flipped = bytearray(blobs[name])
        flipped[rng.integers(len(flipped))] ^= 1 << int(rng.integers(8))
        corrupt.append((name, bytes(flipped)))
    loaded = 0
    for name, bad in corrupt:
        (tmp_path / name).write_bytes(bad)
        try:
            _build(load_config(path), tmp_path)
            loaded += 1
        except SidnnError:
            pass
        (tmp_path / name).write_bytes(blobs[name])
    assert 0 < loaded < len(corrupt)


# ---------------------------------------------------------------------------
# evaluate / simulate
# ---------------------------------------------------------------------------


def test_evaluate_matches_recorded_estimation_rmse(tmp_path):
    cfg_path = write_config(tmp_path)
    out = cmd_train(str(cfg_path))
    summary = json.loads((out / "summary.json").read_text())
    result = cmd_evaluate(str(out / "checkpoint.bin"), str(tmp_path / "dataset.json"),
                          out=str(tmp_path / "eval"))
    assert result["rmse"] == pytest.approx(summary["estimation_rmse"], abs=1e-9)


def test_evaluate_honors_transient_n(tmp_path):
    cfg_path = write_config(tmp_path)
    out = cmd_train(str(cfg_path))
    other = tmp_path / "dataset2.json"
    other.write_text(json.dumps(
        {"synthetic": {"n": 1200, "seed": 3, "noise_std": 0.01},
         "transient_n": 400, "name": "synth_demo2"}
    ))
    a = cmd_evaluate(str(out / "checkpoint.bin"), str(tmp_path / "dataset.json"),
                     out=str(tmp_path / "e1"))
    b = cmd_evaluate(str(out / "checkpoint.bin"), str(other), out=str(tmp_path / "e2"))
    assert a["rmse"] != b["rmse"]


def test_evaluate_writes_full_length_trajectory(tmp_path):
    cfg_path = write_config(tmp_path)
    out = cmd_train(str(cfg_path))
    cmd_evaluate(str(out / "checkpoint.bin"), str(tmp_path / "dataset.json"),
                 out=str(tmp_path / "eval"))
    with open(tmp_path / "eval" / "yhat_0.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 1200


def test_simulate_writes_trajectories(tmp_path):
    cfg_path = write_config(tmp_path)
    out = cmd_train(str(cfg_path))
    sim_dir = cmd_simulate(str(out / "checkpoint.bin"), str(tmp_path / "dataset.json"),
                           out=str(tmp_path / "sim"))
    assert (sim_dir / "sim_0.csv").exists()


@pytest.mark.parametrize("command", ["evaluate", "simulate"])
def test_output_width_mismatch_writes_no_csv(tmp_path, capsys, command):
    # a 1-output checkpoint on a dataset that declares two output columns
    ckpt = cmd_train(str(write_csv_run(tmp_path))) / "checkpoint.bin"
    rows = ["u,y1,y2"] + [f"{np.sin(0.1 * t):.6f},{np.cos(0.1 * t):.6f},0.5"
                          for t in range(60)]
    (tmp_path / "wide.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "wide.json").write_text(json.dumps(
        {**DESCRIPTOR, "files": ["wide.csv"], "y_cols": ["y1", "y2"]}))
    out = tmp_path / "out"
    argv = [command, "--checkpoint", str(ckpt), "--dataset", str(tmp_path / "wide.json"),
            "--out", str(out)]
    assert main(argv) == 1
    assert "error[compatibility]" in capsys.readouterr().err
    assert not list(tmp_path.glob("out/*.csv"))


class FailingWriter:
    """A csv writer that writes one row of a writerows call, then fails."""

    def __init__(self, writer):
        self.writer = writer

    def __getattr__(self, name):
        return getattr(self.writer, name)

    def writerows(self, rows):
        self.writer.writerow(next(iter(rows)))
        raise OSError("no space left on device")


@pytest.mark.parametrize("command", ["evaluate", "simulate", "bench"])
def test_failed_csv_write_keeps_previous_file(tmp_path, monkeypatch, command):
    # a write that fails midway leaves the earlier CSV as it was (bench: no
    # CSV at all, as its file names never repeat) and no temp file behind
    out = tmp_path / "out"
    if command == "bench":
        out.mkdir()
        run = lambda: cmd_bench(lengths=[16], repeats=1, out=str(out))
    else:
        ckpt = cmd_train(str(write_config(tmp_path))) / "checkpoint.bin"
        cmd = cmd_evaluate if command == "evaluate" else cmd_simulate
        run = lambda: cmd(str(ckpt), str(tmp_path / "dataset.json"), out=str(out))
        run()
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    for name in ("writer", "DictWriter"):
        real = getattr(csv, name)
        monkeypatch.setattr(csv, name, lambda *a, real=real, **k: FailingWriter(real(*a, **k)))
    with pytest.raises(OSError):
        run()
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_grid_and_tcn_skip(tmp_path, capsys):
    cmd_bench(lengths=[64, 128], repeats=1, out=str(tmp_path / "bench"))
    printed = capsys.readouterr().out
    assert "skipping TCN" in printed
    files = sorted((tmp_path / "bench").glob("bench_training_*.csv"))
    raw = [f for f in files if "medians" not in f.name]
    with open(raw[0], newline="") as fh:
        rows = list(csv.DictReader(fh))
    variants = {(r["variant"], r["mode"]) for r in rows}
    assert variants == {("GRU", "AR"), ("GRU", "NAR")}  # TCN depth 10 skipped
    lengths = {int(r["seq_len"]) for r in rows}
    assert lengths == {64, 128}


def test_bench_interleaves_specs_by_repeat(tmp_path):
    cmd_bench(lengths=[16, 32], repeats=2, out=str(tmp_path / "bench"))
    for kind in ("training", "inference"):
        raw = [f for f in (tmp_path / "bench").glob(f"bench_{kind}_*.csv")
               if "medians" not in f.name]
        with open(raw[0], newline="") as fh:
            rows = list(csv.DictReader(fh))
        order = [(int(r["repeat"]), r["mode"], int(r["seq_len"])) for r in rows]
        # every cell of one repeat is timed before any cell of the next
        assert order == [(rep, mode, L) for rep in (0, 1)
                         for mode in ("AR", "NAR") for L in (16, 32)]


@pytest.mark.parametrize("argv, problem", [
    (["--lengths", "-3"], "seq_len must be >= 1, got -3"),
    (["--lengths", "16", "0"], "seq_len must be >= 1, got 0"),
    (["--repeats", "0"], "repeats must be >= 1, got 0"),
    (["--repeats", "-2", "--lengths", "-1"], "repeats must be >= 1, got -2"),
], ids=["negative_length", "zero_length", "zero_repeats", "negative_repeats_and_length"])
def test_cli_bench_reports_out_of_range_settings_as_parameter_error(tmp_path, capsys, argv,
                                                                   problem):
    out = tmp_path / "bench"
    assert main(["bench", "--out", str(out), *argv]) == 1
    err = capsys.readouterr().err
    assert "error[parameter]" in err and problem in err
    assert not any(out.iterdir())  # no CSV, not even an empty one


def test_bench_rerun_never_overwrites(tmp_path):
    cmd_bench(lengths=[64], repeats=1, out=str(tmp_path / "bench"))
    cmd_bench(lengths=[64], repeats=1, out=str(tmp_path / "bench"))
    files = list((tmp_path / "bench").glob("bench_training_*.csv"))
    raw = [f for f in files if "medians" not in f.name]
    assert len(raw) == 2


# ---------------------------------------------------------------------------
# hpo
# ---------------------------------------------------------------------------


def test_hpo_smoke(tmp_path):
    from sidnn.cli import cmd_hpo

    cfg = write_config(tmp_path, hpo={"budget": 3, "workers": 1, "eta": 3,
                                      "r_min": 1, "num_rungs": 2})
    out = cmd_hpo(str(cfg), out=str(tmp_path / "hpo"))
    assert (out / "trials.jsonl").exists()
    best = json.loads((out / "best_config.json").read_text())
    assert "config" in best and best["best_valid_rmse"] > 0


def test_hpo_without_a_completed_trial_fails_and_writes_no_best_config(tmp_path, capsys):
    # every trial's window (at least the base 1024) outgrows the 960-sample training split
    cfg = write_config(tmp_path, train={"max_epochs": 1, "window_len": 1024, "chunk_len": 128,
                                        "batch_size": 4},
                       hpo={"budget": 3, "workers": 2, "eta": 3, "r_min": 1, "num_rungs": 2})
    out = tmp_path / "hpo"
    assert main(["hpo", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error[training]" in err and "trial 0 failed with PlanError" in err
    assert not (out / "best_config.json").exists()
    assert len((out / "trials.jsonl").read_text().splitlines()) == 3


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def test_report_contains_reference_rows(tmp_path):
    (tmp_path / "eval_a.json").write_text(json.dumps(
        {"kind": "evaluation", "dataset_name": "demo_a", "rmse": 5.0}))
    (tmp_path / "eval_b.json").write_text(json.dumps(
        {"kind": "evaluation", "dataset_name": "demo_b", "rmse": 2.0}))
    report = cmd_report(str(tmp_path))
    assert "0.39" in report and "20.3" in report
    assert "0.96" in report and "0.26" in report and "25" in report
    assert "literature reference" in report
    # own results sorted ascending
    assert report.index("demo_b") < report.index("demo_a")


def test_report_skips_non_utf8_file(tmp_path):
    (tmp_path / "eval_a.json").write_text(json.dumps(
        {"kind": "evaluation", "dataset_name": "demo_a", "rmse": 1.0}))
    (tmp_path / "eval_b.json").write_bytes(b'{"kind": "evaluation", "dataset_name": "\xff"}')
    assert "demo_a" in cmd_report(str(tmp_path))


@pytest.mark.parametrize("record", [
    {"dataset_name": "demo_b"},
    {"dataset_name": "demo_b", "rmse": "0.5"},
    {"dataset_name": "demo_b", "rmse": float("nan")},
    {"dataset_name": "demo_b", "rmse": True},
    {"dataset_name": 3, "rmse": 1.0},
], ids=["missing_rmse", "string_rmse", "nan_rmse", "bool_rmse", "int_dataset_name"])
def test_cli_report_names_malformed_evaluation_record(tmp_path, capsys, record):
    (tmp_path / "eval_a.json").write_text(json.dumps(
        {"kind": "evaluation", "dataset_name": "demo_a", "rmse": 2.0}))
    (tmp_path / "eval_b.json").write_text(json.dumps({"kind": "evaluation", **record}))
    assert main(["report", "--results", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "error[report]" in err and "eval_b.json" in err


def test_report_empty_dir_raises(tmp_path):
    with pytest.raises(ReportError):
        cmd_report(str(tmp_path))
