"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to watch them stream).

Criterion 6 measures wall-clock medians; its orderings are asserted strictly
and the ratio-trend clause carries a pinned noise envelope (see the test).
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from sidnn.checkpoint import load_checkpoint, save_checkpoint
from sidnn.cli import _bench_specs, cmd_train
from sidnn.data import Standardizer, fit_standardizer, synth_wiener_hammerstein
from sidnn.errors import CorruptionError, FormatError, LossError
from sidnn.hpo import SearchSpace, _trial_seed, replay_decisions, run_search
from sidnn.inference import bench_inference_cells, bench_training_cells, pooled_rmse, simulate
from sidnn.models import (
    ConvCache,
    Model,
    ModelSpec,
    init_params,
    receptive_field,
)
from sidnn.training import (
    TrainConfig,
    TrainState,
    _chunk_step,
    chunk_loss_mask,
    fit,
    masked_mse_grad,
    radam_lookahead_step,
)
from sidnn import numkit as nk

import oracles


def _report(num: int, description: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------


def _relative_fd_error(model, u, g, eps=1e-6):
    def loss():
        return float(np.sum(model.forward(u, model.initial_state(u.shape[0]))[0] * g))

    _, _, cache = model.forward(u, model.initial_state(u.shape[0]), return_cache=True)
    grads, _ = model.backward(cache, g)
    worst = 0.0
    for name in model.params.names():
        flat = model.params[name].reshape(-1)
        ga = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = loss()
            flat[i] = orig - eps
            lm = loss()
            flat[i] = orig
            num = (lp - lm) / (2 * eps)
            worst = max(worst, abs(ga[i] - num) / max(abs(ga[i]), abs(num), 1.0))
    return worst


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    worst = 0.0
    checks = 0

    # primitives on randomized instances
    for i in range(8):
        x = rng.standard_normal((2, int(rng.integers(2, 5))))
        w = rng.standard_normal((x.shape[1], 3))
        b = rng.standard_normal(3)
        worst = max(worst, oracles.grad_check(
            lambda x, w, b: (oracles.affine(x, w, b),
                             lambda g: oracles.affine_backward(g, x, w)), [x, w, b], rng=rng))
        checks += 1
    for d in (1, 2, 4):
        x = rng.standard_normal((2, 2, 12))
        k = rng.standard_normal((3, 2, 2))
        worst = max(worst, oracles.grad_check(
            lambda x, k: (nk.causal_conv1d(x, k, d),
                          lambda g: nk.causal_conv1d_backward(g, x, k, d)), [x, k],
            rng=rng))
        checks += 1
    for i in range(3):
        x = rng.standard_normal((3, 4)) + 0.05
        worst = max(worst, oracles.grad_check(
            lambda x: (nk.sigmoid(x),
                       lambda g: (oracles.sigmoid_backward(g, nk.sigmoid(x)),)),
            [x], rng=rng))
        worst = max(worst, oracles.grad_check(
            lambda x: (oracles.tanh(x),
                       lambda g: (oracles.tanh_backward(g, oracles.tanh(x)),)),
            [x], rng=rng))
        worst = max(worst, oracles.grad_check(
            lambda x: (oracles.relu(x), lambda g: (oracles.relu_backward(g, x),)), [x], rng=rng))
        checks += 3

    # full model forwards over <= 8 steps, all four variants
    variants = [
        ModelSpec(arch="gru", mode="nar", input_dim=2, hidden=3, depth=2),
        ModelSpec(arch="gru", mode="ar", input_dim=2, hidden=3, depth=2),
        ModelSpec(arch="tcn", mode="nar", input_dim=2, hidden=3, depth=2),
        ModelSpec(arch="tcn", mode="ar", input_dim=2, hidden=3, depth=2),
    ]
    for rep in range(2):
        for spec in variants:
            model = Model.create(spec, 200 + rep)
            T = int(rng.integers(4, 9))
            u = rng.standard_normal((2, T, 2))
            g = rng.standard_normal((2, T, 1))
            worst = max(worst, _relative_fd_error(model, u, g))
            checks += 1
    wall = time.perf_counter() - t0
    ok = worst < 1e-4 and checks >= 20 and wall < 60
    _report(1, f"gradients vs finite differences ({checks} instances, "
               f"worst {worst:.2e}, {wall:.1f}s)", ok)


# ---------------------------------------------------------------------------
# 2. receptive field and TCN mask length
# ---------------------------------------------------------------------------


def test_criterion_2_receptive_field():
    ok = receptive_field(10) == 1023
    spec = ModelSpec(arch="tcn", mode="nar", input_dim=1, hidden=4, depth=10)
    cfg = TrainConfig(chunk_len=2048, window_len=2048, batch_size=1)
    from sidnn.data import ChunkBatch

    batch = ChunkBatch(u=np.zeros((1, 2048, 1)), y=np.zeros((1, 2048, 1)), offset=0)
    mask = chunk_loss_mask(spec, cfg, batch)
    ok = ok and int(mask.sum()) == 1023 and bool(mask[0, :1023].all()) \
        and not bool(mask[0, 1023:].any())
    _report(2, "receptive_field(10) == 1023 and mask excludes exactly that many", ok)


# ---------------------------------------------------------------------------
# 3. AR-TCN cache oracle
# ---------------------------------------------------------------------------


def test_criterion_3_cache_oracle():
    t0 = time.perf_counter()
    T = 2048
    worst = 0.0
    rng = np.random.default_rng(300)
    for depth in range(1, 9):
        spec = ModelSpec(arch="tcn", mode="ar", input_dim=1, hidden=3, depth=depth)
        model = Model.create(spec, depth)
        for name in model.params.names():  # keep the feedback loop bounded
            model.params[name] *= 0.5
        u = rng.standard_normal((1, T, 1))
        y_cached, _ = model.forward(u, model.initial_state(1))
        nar_twin = Model(spec=ModelSpec(arch="tcn", mode="nar", input_dim=2, hidden=3,
                                        depth=depth), params=model.params)
        y_naive = np.empty((1, T, 1))
        for t in range(T):
            fb_hist = np.concatenate([np.zeros((1, 1, 1)), y_naive[:, :t]], axis=1)
            hist = np.concatenate([u[:, : t + 1], fb_hist], axis=2)
            y_naive[:, t] = nar_twin.forward(hist)[0][:, -1]
        worst = max(worst, float(np.abs(y_cached - y_naive).max()))
    wall = time.perf_counter() - t0
    ok = worst < 1e-9 and wall < 120
    _report(3, f"cached AR-TCN == naive recompute, depths 1-8, {T} steps "
               f"(max diff {worst:.2e}, {wall:.0f}s)", ok)


# ---------------------------------------------------------------------------
# 4. TBPTT equivalence
# ---------------------------------------------------------------------------


def test_criterion_4_tbptt_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(400)
    variants = [
        ModelSpec(arch="gru", mode="nar", input_dim=1, hidden=4, depth=2),
        ModelSpec(arch="gru", mode="ar", input_dim=1, hidden=4, depth=2),
        ModelSpec(arch="tcn", mode="nar", input_dim=1, hidden=4, depth=3),
        ModelSpec(arch="tcn", mode="ar", input_dim=1, hidden=4, depth=3),
    ]
    worst_fwd = 0.0
    for spec in variants:
        model = Model.create(spec, 40)
        u = rng.standard_normal((2, 64, 1))
        y_mono = model.forward(u, model.initial_state(2))[0]
        state = model.initial_state(2)
        parts = []
        for c in range(4):
            yc, state = model.forward(u[:, c * 16 : (c + 1) * 16], state)
            parts.append(yc)
        worst_fwd = max(worst_fwd, float(np.abs(np.concatenate(parts, axis=1) - y_mono).max()))

    # chunk >= window: loop gradients equal direct full-window BPTT
    from sidnn.data import SequenceData, WindowPlan, sample_windows

    worst_grad = 0.0
    for spec in variants:
        model = Model.create(spec, 41)
        data = SequenceData(sequences=[(rng.standard_normal((256, 1)),
                                        rng.standard_normal((256, 1)))])
        cfg = TrainConfig(window_len=64, chunk_len=64, batch_size=2, seed=4)
        (batch,) = sample_windows(data, WindowPlan(64, 64, 2, 4), 0)
        _, grads, _, _, _ = _chunk_step(model, batch, model.initial_state(2), cfg, None)
        y_hat, _, cache = model.forward(batch.u, model.initial_state(2),
                                        training=True, return_cache=True)
        _, g = masked_mse_grad(y_hat, batch.y, chunk_loss_mask(spec, cfg, batch))
        grads_ref, _ = model.backward(cache, g)
        for name in grads:
            worst_grad = max(worst_grad, float(np.abs(grads[name] - grads_ref[name]).max()))
    wall = time.perf_counter() - t0
    ok = worst_fwd < 1e-12 and worst_grad < 1e-10 and wall < 60
    _report(4, f"chunked == monolithic (fwd {worst_fwd:.2e}) and single-chunk "
               f"grads == full BPTT ({worst_grad:.2e})", ok)


# ---------------------------------------------------------------------------
# 5. end-to-end desk-scale learning
# ---------------------------------------------------------------------------


def test_criterion_5_desk_scale_learning():
    t0 = time.perf_counter()
    noise_std = 0.01
    data = synth_wiener_hammerstein(20000, seed=0, noise_std=noise_std)
    spec = ModelSpec(arch="gru", mode="nar", input_dim=1, hidden=32, depth=1)
    model = Model.create(spec, 0)
    cfg = TrainConfig(max_epochs=50, seed=0)  # defaults
    result = fit(model, data, cfg)
    test = synth_wiener_hammerstein(20000, seed=1, noise_std=noise_std)
    u, y = test.sequences[0]
    y_hat = simulate(model, u, result.standardizer)
    rmse = pooled_rmse([y_hat], test)
    wall = time.perf_counter() - t0
    ok = rmse <= 2.0 * noise_std and len(result.history) <= 50 and wall < 900
    _report(5, f"GRU-NAR h32 on synthetic WH: test RMSE {rmse:.4f} <= "
               f"{2 * noise_std} within 50 epochs ({wall:.0f}s)", ok)


# ---------------------------------------------------------------------------
# 6. AR vs NAR speed ordering
# ---------------------------------------------------------------------------


def test_criterion_6_speed_ordering():
    t0 = time.perf_counter()
    lengths = [1023, 2048, 4096]
    specs = _bench_specs()
    train_tab = bench_training_cells([(spec, L) for spec in specs for L in lengths],
                                     batch_size=16, repeats=5, warmup=2, seed=0)
    infer_specs = [s for s in specs if s.arch == "tcn"]
    infer_tab = bench_inference_cells([(spec, L) for spec in infer_specs for L in lengths],
                                      repeats=5, warmup=2, seed=0)
    ok = True
    notes = []
    # On one core both GRU variants are sequential loops and the TCN pair is
    # loop-vs-vectorized with length-independent asymptotics, so the true
    # AR/NAR training ratio is flat-to-growing; medians of 5 carry ~15%
    # jitter, so the non-decreasing trend is asserted within that envelope.
    noise_envelope = 0.75
    for variant in ("GRU", "TCN"):
        ar = [oracles.median_for(train_tab, variant, "AR", L) for L in lengths]
        nar = [oracles.median_for(train_tab, variant, "NAR", L) for L in lengths]
        if not all(a > n for a, n in zip(ar, nar)):
            ok = False
            notes.append(f"{variant} train ordering violated")
        ratios = [a / n for a, n in zip(ar, nar)]
        trend = all(r2 >= r1 * noise_envelope for r1, r2 in zip(ratios, ratios[1:]))
        if not trend:
            ok = False
            notes.append(f"{variant} train ratio collapsed: {ratios}")
        notes.append(f"{variant} t_AR/t_NAR {['%.2f' % r for r in ratios]}")
    for L in lengths:
        if not (oracles.median_for(infer_tab, "TCN", "AR", L)
                > oracles.median_for(infer_tab, "TCN", "NAR", L)):
            ok = False
            notes.append(f"TCN inference ordering violated at {L}")
    wall = time.perf_counter() - t0
    ok = ok and wall < 600
    _report(6, f"AR slower than NAR everywhere; {'; '.join(notes)} ({wall:.0f}s)", ok)


# ---------------------------------------------------------------------------
# 7. ASHA vs synchronous successive halving
# ---------------------------------------------------------------------------


def test_criterion_7_asha_oracle():
    t0 = time.perf_counter()
    goods = [1, 4, 5, 2, 6, 7, 3, 8, 9]
    bads = iter(range(10, 28))
    ranks = []
    for g in goods:
        ranks.extend([g, next(bads), next(bads)])
    losses = [r / 100.0 for r in ranks]
    seed = 0
    seed_to_trial = {_trial_seed(seed, t): t for t in range(27)}
    runner = lambda cfg, epochs, ts: losses[seed_to_trial[ts]]
    records, events = run_search(SearchSpace(), budget=27, workers=1, data=None,
                                 eta=3, r_min=2, num_rungs=3, seed=seed,
                                 trial_runner=runner)
    top_rung = {r.trial_id for r in records if len(r.rungs) == 3}

    # independent synchronous successive-halving oracle
    alive = list(range(27))
    for _ in range(2):
        alive.sort(key=lambda t: (losses[t], t))
        alive = alive[: math.ceil(len(alive) / 3)]
    expected = set(alive)

    replay_ok = replay_decisions(events, eta=3, num_rungs=3, r_min=2)
    wall = time.perf_counter() - t0
    ok = top_rung == expected and replay_ok and wall < 60
    _report(7, f"serial ASHA top rung {sorted(top_rung)} == synchronous halving "
               f"{sorted(expected)}; event log replays", ok)


# ---------------------------------------------------------------------------
# 8. masking exactness
# ---------------------------------------------------------------------------


def test_criterion_8_masking_exactness():
    from sidnn.data import ChunkBatch

    spec = ModelSpec(arch="tcn", mode="nar", input_dim=1, hidden=4, depth=3)
    cfg = TrainConfig(window_len=32, chunk_len=32, batch_size=2, seed=80)
    rng = np.random.default_rng(80)
    u = rng.standard_normal((2, 32, 1))
    y = rng.standard_normal((2, 32, 1))

    def one_update(y_target):
        model = Model.create(spec, 81)
        batch = ChunkBatch(u=u, y=y_target, offset=0)
        _, grads, _, _, _ = _chunk_step(model, batch, model.initial_state(2), cfg, None)
        state = TrainState.init(model.params, 0.01)
        radam_lookahead_step(model.params, grads, state, cfg)
        return {k: v.copy() for k, v in model.params.items()}

    y_perturbed = y.copy()
    y_perturbed[:, :7] += 1e6  # masked region: first receptive_field(3) samples
    a = one_update(y)
    b = one_update(y_perturbed)
    bitwise = all(np.array_equal(a[k], b[k]) for k in a)

    try:
        oracles.masked_mse(np.zeros((1, 4, 1)), np.zeros((1, 4, 1)),
                   np.ones((1, 4), dtype=bool))
        raises = False
    except LossError:
        raises = True
    ok = bitwise and raises
    _report(8, "masked targets leave updates bitwise unchanged; fully-masked "
               "batch raises", ok)


# ---------------------------------------------------------------------------
# 9. serialization
# ---------------------------------------------------------------------------


def test_criterion_9_serialization(tmp_path):
    spec = ModelSpec(arch="gru", mode="ar", input_dim=2, hidden=5, depth=2)
    params = init_params(spec, 90)
    std = Standardizer(u_mean=np.array([0.5, -1.0]), u_std=np.array([2.0, 0.1]),
                       y_mean=np.array([0.0]), y_std=np.array([1.5]))
    path = tmp_path / "model.bin"
    save_checkpoint(path, spec, std, params)
    ckpt = load_checkpoint(path)
    bitwise = ckpt.spec == spec and all(
        np.array_equal(ckpt.params[n], params[n]) for n in params.names()
    )
    blob = path.read_bytes()
    magic_ok = blob[:6] == b"SIDNN\x01"

    bad_magic = tmp_path / "bad.bin"
    bad_magic.write_bytes(b"XXXXX" + blob[5:])
    try:
        load_checkpoint(bad_magic)
        fmt_ok = False
    except FormatError:
        fmt_ok = True

    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(blob[: len(blob) // 2])
    try:
        load_checkpoint(truncated)
        trunc_ok = False
    except CorruptionError:
        trunc_ok = True
    ok = bitwise and magic_ok and fmt_ok and trunc_ok
    _report(9, "checkpoint round-trip bitwise identical; corrupted files "
               "rejected by category", ok)


# ---------------------------------------------------------------------------
# 10. training determinism
# ---------------------------------------------------------------------------


def test_criterion_10_training_determinism(tmp_path):
    cfg = {
        "dataset": "dataset.json",
        "model": {"arch": "gru", "mode": "nar", "hidden": 4, "depth": 1},
        "train": {"max_epochs": 3, "window_len": 256, "chunk_len": 128,
                  "batch_size": 4},
        "seed": 7,
    }
    (tmp_path / "dataset.json").write_text(json.dumps(
        {"synthetic": {"n": 2000, "seed": 5, "noise_std": 0.01},
         "transient_n": 50}))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**cfg, "out_dir": str(tmp_path / "a")}))
    out_a = cmd_train(str(cfg_path))
    cfg_path.write_text(json.dumps({**cfg, "out_dir": str(tmp_path / "b")}))
    out_b = cmd_train(str(cfg_path))

    def rows(out):
        with open(out / "history.csv", newline="") as fh:
            # wall_seconds is a measurement; all computed columns must match
            return [r[:4] for r in csv.reader(fh)]

    ok = rows(out_a) == rows(out_b)
    _report(10, "two cmd_train runs with identical config+seed produce "
                "identical histories", ok)
