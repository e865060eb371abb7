import copy
import math
from dataclasses import replace

import numpy as np
import pytest

from sidnn.data import (
    SequenceData,
    WindowPlan,
    sample_windows,
    split_estimation,
    synth_wiener_hammerstein,
)
from sidnn.errors import (
    DimensionError,
    FinderError,
    LossError,
    OptimizerError,
    ParameterError,
    TrainingError,
)
from sidnn import training
from sidnn.models import Model, ModelSpec, ParamStore
from sidnn.training import (
    TrainConfig,
    TrainState,
    _chunk_step,
    chunk_skip,
    cosine_schedule,
    fit,
    lr_finder,
    lr_sweep,
    masked_mse_grad,
    radam_lookahead_step,
    resolved_warmup_mask,
    train_epoch,
)

from oracles import masked_mse


# ---------------------------------------------------------------------------
# masked_mse
# ---------------------------------------------------------------------------


def test_masked_mse_perfect_prediction():
    y = np.random.default_rng(0).standard_normal((2, 4, 1))
    assert masked_mse(y, y) == 0.0


def test_masked_mse_ignores_masked_element():
    y_hat = np.array([[[9.0], [2.0]]])
    y = np.array([[[1.0], [2.0]]])
    assert masked_mse(y_hat, y, 1) == 0.0


def test_masked_mse_direct_value():
    y_hat = np.array([[[0.0], [3.0]]])
    y = np.array([[[4.0], [0.0]]])
    assert masked_mse(y_hat, y) == pytest.approx(12.5)


def test_masked_mse_fully_masked_raises():
    y = np.zeros((1, 3, 1))
    with pytest.raises(LossError):
        masked_mse(y, y, 3)


@pytest.mark.parametrize("skip", [-1, 4])
def test_masked_mse_rejects_skip_outside_the_chunk(skip):
    y = np.zeros((2, 3, 1))
    with pytest.raises(LossError, match="outside"):
        masked_mse_grad(y, y, skip)


def test_masked_mse_shape_mismatch():
    with pytest.raises(DimensionError):
        masked_mse(np.zeros((1, 3, 1)), np.zeros((1, 4, 1)))


# ---------------------------------------------------------------------------
# RAdam + Lookahead
# ---------------------------------------------------------------------------


def _scalar_config(**kw):
    kw.setdefault("lookahead_k", 6)
    kw.setdefault("lookahead_alpha", 0.5)
    return TrainConfig(**kw)


def _reference_radam_trace(theta0, grads, lr, b1, b2, eps, k, alpha):
    """Independent scalar re-implementation of the published update rules."""
    theta = theta0
    slow = theta0
    m = v = 0.0
    rho_inf = 2.0 / (1.0 - b2) - 1.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        rho_t = rho_inf - 2 * t * b2 ** t / (1 - b2 ** t)
        if rho_t > 4:
            rect = math.sqrt(((rho_t - 4) * (rho_t - 2) * rho_inf)
                             / ((rho_inf - 4) * (rho_inf - 2) * rho_t))
            theta -= lr * rect * m_hat / (math.sqrt(v / (1 - b2 ** t)) + eps)
        else:
            theta -= lr * m_hat
        if t % k == 0:
            slow = slow + alpha * (theta - slow)
            theta = slow
    return theta, slow


def test_first_step_takes_unadapted_branch():
    # rho_1 = rho_inf - 2 b2/(1-b2) = 1 <= 4 for b2 = 0.999
    b2 = 0.999
    rho_inf = 2 / (1 - b2) - 1
    rho_1 = rho_inf - 2 * b2 / (1 - b2)
    assert rho_1 <= 4
    cfg = _scalar_config(betas=(0.9, b2), lookahead_k=10)
    params = ParamStore({"w": np.array([1.0])})
    state = TrainState.init(params, lr=0.1)
    radam_lookahead_step(params, {"w": np.array([2.0])}, state, cfg)
    # un-adapted: theta -= lr * m_hat = lr * g
    assert params["w"][0] == pytest.approx(1.0 - 0.1 * 2.0, abs=1e-15)


def test_lookahead_constant_gradient_trace():
    # after exactly k=6 steps the slow weights move halfway toward the fast ones
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    grads = [0.7] * 6
    theta_ref, slow_ref = _reference_radam_trace(2.0, grads, lr, b1, b2, eps, 6, 0.5)
    cfg = _scalar_config(betas=(b1, b2), eps=eps)
    params = ParamStore({"w": np.array([2.0])})
    state = TrainState.init(params, lr=lr)
    for g in grads:
        radam_lookahead_step(params, {"w": np.array([g])}, state, cfg)
    assert params["w"][0] == pytest.approx(theta_ref, abs=1e-14)
    assert state.slow["w"][0] == pytest.approx(slow_ref, abs=1e-14)
    # and the synced value is the midpoint of start and pre-sync fast weights
    theta_nosync, _ = _reference_radam_trace(2.0, grads, lr, b1, b2, eps, 99, 0.5)
    assert state.slow["w"][0] == pytest.approx(0.5 * (2.0 + theta_nosync), abs=1e-14)


def test_zero_gradient_leaves_parameters_unchanged():
    cfg = _scalar_config(weight_decay=0.0, lookahead_k=3)
    params = ParamStore({"w": np.array([1.5, -2.0])})
    state = TrainState.init(params, lr=0.3)
    for _ in range(7):
        radam_lookahead_step(params, {"w": np.zeros(2)}, state, cfg)
    np.testing.assert_array_equal(params["w"], [1.5, -2.0])


def test_lookahead_k1_alpha1_is_plain_radam():
    rng = np.random.default_rng(1)
    grads = [rng.standard_normal(3) for _ in range(9)]
    cfg_plain = _scalar_config(lookahead_k=1, lookahead_alpha=1.0)
    cfg_ref = _scalar_config(lookahead_k=10 ** 9)
    a = ParamStore({"w": np.array([0.3, -1.0, 2.0])})
    b = ParamStore({"w": np.array([0.3, -1.0, 2.0])})
    sa = TrainState.init(a, lr=0.02)
    sb = TrainState.init(b, lr=0.02)
    for g in grads:
        radam_lookahead_step(a, {"w": g.copy()}, sa, cfg_plain)
        radam_lookahead_step(b, {"w": g.copy()}, sb, cfg_ref)
    np.testing.assert_array_equal(a["w"], b["w"])


def test_nonfinite_gradient_names_parameter():
    cfg = _scalar_config()
    params = ParamStore({"good": np.zeros(2), "bad": np.zeros(2)})
    state = TrainState.init(params, lr=0.1)
    with pytest.raises(OptimizerError) as exc:
        radam_lookahead_step(
            params, {"good": np.zeros(2), "bad": np.array([1.0, np.nan])}, state, cfg
        )
    assert "bad" in str(exc.value)


def test_nonfinite_gradient_leaves_params_and_state_bitwise_unchanged():
    # a NaN in the last parameter must stop the step before any write, on a
    # step that would also sync the lookahead weights
    cfg = _scalar_config(lookahead_k=3, weight_decay=0.01)
    model = Model.create(ModelSpec(arch="gru", mode="nar", input_dim=1, hidden=4, depth=1), 0)
    params = model.params
    state = TrainState.init(params, lr=0.01)
    rng = np.random.default_rng(2)
    for _ in range(2):
        radam_lookahead_step(params, {k: rng.standard_normal(v.shape) for k, v in params.items()},
                             state, cfg)
    grads = {k: rng.standard_normal(v.shape) for k, v in params.items()}
    last = params.names()[-1]
    grads[last].flat[-1] = np.nan

    def snapshot():
        return [state.step] + [[d[k].tobytes() for k in params.names()]
                               for d in (params, state.m, state.v, state.slow)]

    before = snapshot()
    with pytest.raises(OptimizerError) as exc:
        radam_lookahead_step(params, grads, state, cfg)
    assert last in str(exc.value)
    assert snapshot() == before


# ---------------------------------------------------------------------------
# cosine schedule
# ---------------------------------------------------------------------------


def test_cosine_endpoints_and_midpoint():
    assert cosine_schedule(0.1, 0.001, 0, 10) == pytest.approx(0.1)
    assert cosine_schedule(0.1, 0.001, 10, 10) == pytest.approx(0.001)
    assert cosine_schedule(0.1, 0.001, 5, 10) == pytest.approx((0.1 + 0.001) / 2)


def test_cosine_rejects_zero_length():
    with pytest.raises(ParameterError):
        cosine_schedule(0.1, 0.001, 0, 0)


@pytest.mark.parametrize("field, value", [
    ("seed", -1), ("lr_min", -1e-5), ("eps", 0.0), ("warmup_mask_n", -3),
    ("plateau_patience", -3), ("max_epochs", 0), ("lr_max", -0.1),
    ("weight_decay", -0.5), ("grad_clip", 0.0), ("grad_clip", -1.0), ("chunk_len", 0),
    ("window_len", -64), ("valid_fraction", 0.9), ("valid_fraction", 0.0),
])
def test_train_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ParameterError, match=field):
        TrainConfig(**{field: value})


# ---------------------------------------------------------------------------
# lr finder
# ---------------------------------------------------------------------------


def _sgd_config():
    # b2 <= 0.6 keeps rho_t <= rho_inf <= 4 forever: the update is always the
    # un-adapted momentum step, and b1 -> 0 makes that plain gradient descent
    return TrainConfig(betas=(1e-9, 0.5), lookahead_k=1, lookahead_alpha=1.0,
                       weight_decay=0.0)


def _run_quadratic_sweep(lam, theta0=1.0, num_steps=100):
    params = ParamStore({"theta": np.array([theta0])})

    def batches():
        while True:
            yield None

    def loss_grad(p, _):
        th = p["theta"]
        return 0.5 * lam * float(th @ th), {"theta": lam * th}

    return lr_sweep(params, batches(), loss_grad, _sgd_config(), num_steps=num_steps)


@pytest.mark.parametrize("lam", [3.0, 10.0, 30.0, 100.0])
def test_finder_matches_quadratic_stability_analysis(lam):
    # oracle: gradient descent on curvature lam contracts iff |1 - lr*lam| < 1,
    # so the largest stable (and most aggressive) lr is exactly 2/lam; the
    # sweep's raw-loss minimum must sit within one geometric grid step of it
    result = _run_quadratic_sweep(lam)
    boundary = 2.0 / lam
    grid_step = (1.0 / 1e-7) ** (1.0 / 99)
    ratio = result.suggestion / (boundary / 10.0)
    assert 1.0 / grid_step <= ratio <= grid_step


def test_finder_deterministic_and_nonmutating():
    rng = np.random.default_rng(3)
    data = SequenceData(sequences=[(rng.standard_normal((600, 1)),
                                    rng.standard_normal((600, 1)))])
    spec = ModelSpec(arch="gru", mode="nar", input_dim=1, hidden=4, depth=1)
    model = Model.create(spec, 0)
    before = {k: v.copy() for k, v in model.params.items()}
    cfg = TrainConfig(window_len=64, chunk_len=32, batch_size=4, seed=11)
    s1 = lr_finder(model, data, cfg, num_steps=25)
    s2 = lr_finder(model, data, cfg, num_steps=25)
    assert s1 == s2
    for k, v in model.params.items():
        np.testing.assert_array_equal(v, before[k])


def _same_state(a, b) -> bool:
    """Recursive equality over HiddenState/ConvCache fields and their arrays."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.shape == b.shape and np.array_equal(a, b)
    if isinstance(a, list):
        return len(a) == len(b) and all(_same_state(x, y) for x, y in zip(a, b))
    if hasattr(a, "__dataclass_fields__") and not isinstance(a, ModelSpec):
        return type(a) is type(b) and all(
            _same_state(getattr(a, f), getattr(b, f)) for f in a.__dataclass_fields__)
    return a == b


@pytest.mark.parametrize("arch,mode", [("gru", "nar"), ("gru", "ar"), ("tcn", "nar"),
                                       ("tcn", "ar")])
def test_finder_chunks_start_from_the_initial_state(monkeypatch, arch, mode):
    # the finder runs stateless chunks: a window's later chunks get the
    # initial state too, not the state the chunk before them ended in
    rng = np.random.default_rng(4)
    data = SequenceData(sequences=[(rng.standard_normal((600, 1)),
                                    rng.standard_normal((600, 1)))])
    model = Model.create(ModelSpec(arch=arch, mode=mode, input_dim=1, hidden=4, depth=2), 0)
    cfg = TrainConfig(window_len=256, chunk_len=32, batch_size=4, seed=5)
    received = []
    chunk_step = training._chunk_step

    def recording(model_, batch, state_h, config, rng_):
        received.append((batch.offset // cfg.chunk_len, copy.deepcopy(state_h)))
        return chunk_step(model_, batch, state_h, config, rng_)

    monkeypatch.setattr(training, "_chunk_step", recording)
    lr_finder(model, data, cfg, num_steps=12)
    assert max(index for index, _ in received) >= 4
    initial = model.initial_state(4)
    for index, state in received:
        assert _same_state(state, initial), f"chunk {index} got a carried state"


def test_finder_divergence_on_first_batch():
    params = ParamStore({"theta": np.array([1.0])})

    def batches():
        while True:
            yield None

    def loss_grad(p, _):
        return float("nan"), {"theta": np.zeros(1)}

    with pytest.raises(FinderError):
        lr_sweep(params, batches(), loss_grad, _sgd_config(), num_steps=10)


# ---------------------------------------------------------------------------
# TBPTT loop
# ---------------------------------------------------------------------------


def _toy_data(T=512, seed=0, I=1, O=1):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((T, I))
    y = rng.standard_normal((T, O))
    return SequenceData(sequences=[(u, y)])


def _window_batches(data, window_len, chunk_len, batch_size=2, seed=0, epoch=0):
    plan = WindowPlan(window_len, chunk_len, batch_size, seed)
    return list(sample_windows(data, plan, epoch))


@pytest.mark.parametrize("spec", [
    ModelSpec(arch="gru", mode="nar", input_dim=1, hidden=4, depth=2),
    ModelSpec(arch="gru", mode="ar", input_dim=1, hidden=4, depth=2),
    ModelSpec(arch="tcn", mode="nar", input_dim=1, hidden=4, depth=3),
    ModelSpec(arch="tcn", mode="ar", input_dim=1, hidden=4, depth=3),
])
def test_single_chunk_gradients_equal_full_bptt(spec):
    # chunk covering the whole window: the loop's gradients must equal a
    # direct whole-window backward with the same mask
    data = _toy_data(T=256, seed=4)
    cfg = TrainConfig(window_len=64, chunk_len=64, batch_size=2, seed=4)
    model = Model.create(spec, 5)
    (batch,) = _window_batches(data, 64, 64, 2, seed=4)
    state = model.initial_state(2)
    _, grads, _, _, _ = _chunk_step(model, batch, state, cfg, rng=None)

    y_hat, _, cache = model.forward(batch.u, model.initial_state(2), training=True,
                                    return_cache=True)
    skip = chunk_skip(spec, cfg, batch)
    _, g = masked_mse_grad(y_hat, batch.y, skip)
    grads_ref, _ = model.backward(cache, g)
    for name in grads:
        err = np.abs(grads[name] - grads_ref[name]).max()
        assert err < 1e-10, f"{name}: {err}"


def test_ar_two_chunk_forward_matches_monolithic():
    spec = ModelSpec(arch="gru", mode="ar", input_dim=1, hidden=4, depth=1)
    model = Model.create(spec, 6)
    data = _toy_data(T=256, seed=5)
    batches = _window_batches(data, 64, 32, 2, seed=5)
    state = model.initial_state(2)
    outs = []
    for b in batches:
        y_hat, state, _ = model.forward(b.u, state, training=True, return_cache=True)
        outs.append(y_hat)
    u_full = np.concatenate([b.u for b in batches], axis=1)
    y_mono, _ = model.forward(u_full, model.initial_state(2))
    np.testing.assert_allclose(np.concatenate(outs, axis=1), y_mono, atol=1e-12)


def test_teacher_forcing_fixed_point_equals_free_running():
    spec = ModelSpec(arch="gru", mode="ar", input_dim=1, hidden=4, depth=1)
    model = Model.create(spec, 7)
    rng = np.random.default_rng(7)
    u = rng.standard_normal((2, 32, 1))
    y_free, _ = model.forward(u, model.initial_state(2))
    y_forced, _ = model.forward(u, model.initial_state(2), teacher=y_free)
    np.testing.assert_allclose(y_forced, y_free, atol=1e-12)


def test_free_running_ignores_targets_in_pipeline():
    spec = ModelSpec(arch="gru", mode="ar", input_dim=1, hidden=4, depth=1)
    model = Model.create(spec, 8)
    data = _toy_data(T=256, seed=8)
    (batch,) = _window_batches(data, 32, 32, 2, seed=8)
    cfg = TrainConfig(window_len=32, chunk_len=32, batch_size=2)
    import copy

    corrupted = copy.deepcopy(batch)
    corrupted.y = corrupted.y + 100.0
    state = model.initial_state(2)
    loss_a, _, s_a, _, _ = _chunk_step(model, batch, state, cfg, rng=None)
    state = model.initial_state(2)
    loss_b, _, s_b, _, _ = _chunk_step(model, corrupted, state, cfg, rng=None)
    for ha, hb in zip(s_a.gru_h, s_b.gru_h):
        np.testing.assert_array_equal(ha, hb)
    np.testing.assert_array_equal(s_a.last_output, s_b.last_output)
    assert loss_a != loss_b


def test_masked_targets_leave_updates_bitwise_unchanged():
    cfg = TrainConfig(window_len=32, chunk_len=32, batch_size=2, seed=9)
    data = _toy_data(T=256, seed=9)
    (batch,) = _window_batches(data, 32, 32, 2, seed=9)
    # warm-up is (kernel-1)*(2**depth - 1): 7 for kernel 2, 14 for kernel 3
    for kernel, n_warm in ((2, 7), (3, 14)):
        spec = ModelSpec(arch="tcn", mode="nar", input_dim=1, hidden=4, depth=3,
                         kernel=kernel)
        assert chunk_skip(spec, cfg, batch) == n_warm

        def updated_params(target_noise):
            model = Model.create(spec, 10)
            b = type(batch)(u=batch.u, y=batch.y + target_noise, offset=0)
            state = model.initial_state(2)
            _, grads, _, _, _ = _chunk_step(model, b, state, cfg, rng=None)
            st = TrainState.init(model.params, lr=0.01)
            radam_lookahead_step(model.params, grads, st, cfg)
            return {k: v.copy() for k, v in model.params.items()}

        noise = np.zeros_like(batch.y)
        noise[:, :n_warm] = 123.456  # only masked positions perturbed
        a = updated_params(np.zeros_like(batch.y))
        b = updated_params(noise)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])


@pytest.mark.parametrize("arch,mode", [("gru", "nar"), ("gru", "ar"), ("tcn", "nar"),
                                       ("tcn", "ar")])
def test_gradients_do_not_cross_chunk_boundaries(arch, mode):
    spec = ModelSpec(arch=arch, mode=mode, input_dim=1, hidden=3, depth=2)
    model = Model.create(spec, 11)
    cfg = TrainConfig(window_len=64, chunk_len=32, batch_size=2, seed=11)
    data = _toy_data(T=256, seed=11)
    b0, b1 = _window_batches(data, 64, 32, 2, seed=11)
    # path A: forward-only through chunk 0, then grads of chunk 1
    state = model.initial_state(2)
    _, s_after0 = model.forward(b0.u, state)
    _, grads_a, _, _, _ = _chunk_step(model, b1, s_after0, cfg, rng=None)
    # path B: full loss+backward on chunk 0 first
    state = model.initial_state(2)
    _, _, s_after0b, _, _ = _chunk_step(model, b0, state, cfg, rng=None)
    _, grads_b, _, _, _ = _chunk_step(model, b1, s_after0b, cfg, rng=None)
    for name in grads_a:
        np.testing.assert_array_equal(grads_a[name], grads_b[name])


def test_train_epoch_raises_on_nonfinite_loss():
    spec = ModelSpec(arch="tcn", mode="nar", input_dim=1, hidden=2, depth=1)
    model = Model.create(spec, 12)
    model.params["head.W"][:] = 1e200
    model.params["tcn.0.kernel"][:] = 1e200
    cfg = TrainConfig(window_len=32, chunk_len=32, batch_size=2, seed=12,
                      lr_max=1e-3, max_epochs=1)
    data = _toy_data(T=256, seed=12)
    state = TrainState.init(model.params, lr=1e-3)
    with pytest.raises(TrainingError):
        with np.errstate(all="ignore"):
            train_epoch(model, data, cfg, state)


@pytest.mark.parametrize("arch,mode", [("gru", "nar"), ("tcn", "nar"), ("tcn", "ar")])
def test_warmup_only_chunks_run_forward_only(monkeypatch, arch, mode):
    # the first chunk lies wholly in the warm-up mask (7 samples for depth 3):
    # it is not trained on, but the second chunk gets the state it ends in
    spec = ModelSpec(arch=arch, mode=mode, input_dim=1, hidden=3, depth=3)
    model = Model.create(spec, 6)
    cfg = TrainConfig(window_len=24, chunk_len=6, batch_size=2, seed=6, lr_max=1e-3,
                      warmup_mask_n=7)
    data = _toy_data(T=128, seed=6)
    received = []
    chunk_step = training._chunk_step

    def recording(model_, batch, state_h, config, rng_):
        received.append((batch.offset, copy.deepcopy(state_h), model_.params.copy()))
        return chunk_step(model_, batch, state_h, config, rng_)

    monkeypatch.setattr(training, "_chunk_step", recording)
    state = TrainState.init(model.params, lr=1e-3)
    params0 = model.params.copy()
    train_epoch(model, data, cfg, state)
    assert [offset for offset, _, _ in received] == [6, 12, 18]
    assert state.step == 3
    b0 = _window_batches(data, 24, 6, 2, seed=6)[0]
    _, want = Model(spec=spec, params=params0).forward(b0.u, model.initial_state(2))
    assert _same_state(received[0][1], want)


def test_tcn_nar_fit_with_default_chunking_completes():
    # depth 10 masks 1023 samples, so the first 512-sample chunk of every
    # 4096-sample window is warm-up only
    data = _linear_system_data(T=5200, seed=15)
    spec = ModelSpec(arch="tcn", mode="nar", input_dim=1, hidden=2, depth=10)
    cfg = TrainConfig(max_epochs=1, lr_max=1e-3, batch_size=2)
    result = fit(Model.create(spec, 2), data, cfg)
    assert len(result.history) == 1 and math.isfinite(result.best_valid_rmse)


def test_finder_skips_warmup_only_chunks(monkeypatch):
    data = _linear_system_data(T=2000, seed=16)
    spec = ModelSpec(arch="tcn", mode="nar", input_dim=1, hidden=2, depth=6)
    cfg = TrainConfig(window_len=256, chunk_len=32, batch_size=2, seed=7)
    offsets = []
    chunk_step = training._chunk_step

    def recording(model_, batch, state_h, config, rng_):
        offsets.append(batch.offset)
        return chunk_step(model_, batch, state_h, config, rng_)

    monkeypatch.setattr(training, "_chunk_step", recording)
    lr_finder(Model.create(spec, 3), data, cfg, num_steps=8)
    assert offsets[:4] == [32, 64, 96, 128]  # the first 63 samples are masked


@pytest.mark.parametrize("arch,warmup", [("tcn", None), ("gru", 256)])
def test_fit_rejects_windows_the_warmup_mask_covers(arch, warmup):
    data = _linear_system_data(T=2000, seed=17)
    spec = ModelSpec(arch=arch, mode="nar", input_dim=1, hidden=2, depth=9)
    cfg = TrainConfig(window_len=256, chunk_len=128, lr_max=1e-3, warmup_mask_n=warmup)
    with pytest.raises(ParameterError, match="window_len"):
        fit(Model.create(spec, 4), data, cfg)
    with pytest.raises(ParameterError, match="window_len"):
        lr_finder(Model.create(spec, 4), data, replace(cfg, lr_max=None))


def test_warmup_mask_defaults():
    cfg = TrainConfig(chunk_len=64)
    gru = ModelSpec(arch="gru", mode="nar", input_dim=1, hidden=4, depth=3)
    assert resolved_warmup_mask(gru, cfg) == 7  # 2**3 - 1
    deep = ModelSpec(arch="gru", mode="nar", input_dim=1, hidden=4, depth=10)
    assert resolved_warmup_mask(deep, cfg) == 32  # capped at chunk_len / 2
    tcn = ModelSpec(arch="tcn", mode="nar", input_dim=1, hidden=4, depth=10)
    assert resolved_warmup_mask(tcn, cfg) == 1023


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _linear_system_data(T=4000, seed=13):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(T)
    y = 0.5 * u + 0.3 * np.concatenate([[0.0], u[:-1]])
    return SequenceData(sequences=[(u[:, None], y[:, None])], transient_n=5)


def test_linear_system_least_squares_floor_is_zero():
    # oracle: the system has an exact 2-tap linear representation
    data = _linear_system_data()
    u, y = data.sequences[0]
    X = np.stack([u[1:, 0], u[:-1, 0]], axis=1)
    coef, res, _, _ = np.linalg.lstsq(X, y[1:, 0], rcond=None)
    rmse_floor = math.sqrt(res[0] / X.shape[0]) if res.size else 0.0
    np.testing.assert_allclose(coef, [0.5, 0.3], atol=1e-12)
    assert rmse_floor < 1e-10


def test_fit_learns_linear_system():
    data = _linear_system_data()
    spec = ModelSpec(arch="gru", mode="nar", input_dim=1, hidden=8, depth=1)
    model = Model.create(spec, 0)
    cfg = TrainConfig(max_epochs=30, window_len=1024, chunk_len=16, batch_size=16,
                      seed=0, plateau_patience=1)
    result = fit(model, data, cfg)
    assert result.best_valid_rmse < 0.01
    assert len(result.history) == 30
    assert result.best_valid_rmse == min(h.valid_rmse for h in result.history)


def test_fit_history_is_deterministic():
    data = _linear_system_data(T=2000, seed=14)
    spec = ModelSpec(arch="gru", mode="nar", input_dim=1, hidden=4, depth=1)
    cfg = TrainConfig(max_epochs=3, window_len=256, chunk_len=128, batch_size=4,
                      seed=3, lr_max=1e-2)
    r1 = fit(Model.create(spec, 1), data, cfg)
    r2 = fit(Model.create(spec, 1), data, cfg)
    for a, b in zip(r1.history, r2.history):
        assert (a.epoch, a.train_rmse, a.valid_rmse, a.lr) == \
               (b.epoch, b.train_rmse, b.valid_rmse, b.lr)


def test_fit_raises_when_validation_never_goes_finite():
    # initial weights x6 make the free-running validation simulation diverge
    # in every epoch; fit used to return the initial weights with an
    # infinite best RMSE, which the CLI then saved
    data = synth_wiener_hammerstein(3000, seed=0)
    spec = ModelSpec(arch="tcn", mode="ar", input_dim=1, hidden=8, depth=3)
    model = Model.create(spec, 0)
    for name in model.params.names():
        model.params[name] *= 6.0
    cfg = TrainConfig(max_epochs=2, window_len=256, chunk_len=128, batch_size=4,
                      teacher_forcing=True, lr_max=1e-3)
    with np.errstate(all="ignore"), pytest.raises(TrainingError, match="finite validation"):
        fit(model, data, cfg)


def test_chunked_tcn_nar_fit_history_is_deterministic():
    # four chunks per window, the first wholly in the 63-sample warm-up: the
    # carried tails and the forward-only chunk reproduce bit for bit
    data = _linear_system_data(T=2000, seed=18)
    spec = ModelSpec(arch="tcn", mode="nar", input_dim=1, hidden=3, depth=6)
    cfg = TrainConfig(max_epochs=2, window_len=128, chunk_len=32, batch_size=4, seed=5)
    r1 = fit(Model.create(spec, 6), data, cfg)
    r2 = fit(Model.create(spec, 6), data, cfg)
    assert [(h.train_rmse, h.valid_rmse, h.lr) for h in r1.history] == \
           [(h.train_rmse, h.valid_rmse, h.lr) for h in r2.history]
    for name in r1.params:
        np.testing.assert_array_equal(r1.params[name], r2.params[name])
