import time

import numpy as np
import pytest

from sidnn.data import SequenceData, Standardizer, synth_wiener_hammerstein, fit_standardizer
from sidnn.errors import DimensionError, InputError, ParameterError, UsageError
from sidnn.inference import (
    BenchTable,
    bench_inference_cells,
    bench_training_cells,
    pooled_rmse,
    simulate,
    _bench_lock,
)
from sidnn.models import ConvCache, Model, ModelSpec, conv_cache_step

import oracles


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _fitted_standardizer(seed=0):
    data = synth_wiener_hammerstein(600, seed=seed, noise_std=0.01)
    return data, fit_standardizer(data)


def test_simulate_nar_gru_matches_forward():
    data, std = _fitted_standardizer()
    spec = ModelSpec(arch="gru", mode="nar", input_dim=1, hidden=4, depth=1)
    model = Model.create(spec, 1)
    u, _ = data.sequences[0]
    y_hat = simulate(model, u, std)
    y_ref, _ = model.forward(std.apply_u(u)[None])
    np.testing.assert_allclose(y_hat, std.invert_y(y_ref[0]), atol=1e-12)


def test_simulate_ar_matches_training_forward():
    data, std = _fitted_standardizer(1)
    spec = ModelSpec(arch="gru", mode="ar", input_dim=1, hidden=4, depth=1)
    model = Model.create(spec, 2)
    u, _ = data.sequences[0]
    y_hat = simulate(model, u, std)
    u_std = std.apply_u(u)[None]
    y_train, _, _ = model.forward(u_std, model.initial_state(1), training=True,
                                  return_cache=True)
    np.testing.assert_array_equal(y_hat, std.invert_y(y_train[0]))


def test_simulate_deterministic():
    data, std = _fitted_standardizer(2)
    spec = ModelSpec(arch="tcn", mode="ar", input_dim=1, hidden=4, depth=3)
    model = Model.create(spec, 3)
    u, _ = data.sequences[0]
    a = simulate(model, u, std)
    b = simulate(model, u, std)
    np.testing.assert_array_equal(a, b)


def test_simulate_rejects_channel_mismatch():
    _, std = _fitted_standardizer(3)
    spec = ModelSpec(arch="gru", mode="nar", input_dim=2, hidden=4, depth=1)
    model = Model.create(spec, 4)
    with pytest.raises(InputError):
        simulate(model, np.zeros((10, 1)), std)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_simulate_rejects_nonfinite_input(bad):
    # a NaN sample used to turn the rest of the trajectory into NaN, and an
    # Inf sample gave finite numbers
    data, std = _fitted_standardizer(3)
    model = Model.create(ModelSpec(arch="gru", mode="nar", input_dim=1, hidden=4, depth=1), 4)
    u = data.sequences[0][0].copy()
    u[50, 0] = bad
    with pytest.raises(InputError, match="NaN or Inf"):
        simulate(model, u, std)


# ---------------------------------------------------------------------------
# conv_cache_step
# ---------------------------------------------------------------------------


def test_fast_ar_step_first_step_equals_length_one_forward():
    spec = ModelSpec(arch="tcn", mode="ar", input_dim=1, hidden=4, depth=3)
    model = Model.create(spec, 5)
    cache = ConvCache.init(spec, batch=1)
    x = np.array([[0.7, -0.3]])  # concat(u_0, zero feedback)
    y_step = conv_cache_step(cache, model.params, x)
    nar_twin = ModelSpec(arch="tcn", mode="nar", input_dim=2, hidden=4, depth=3)
    y_full, _ = Model(spec=nar_twin, params=model.params).forward(x[:, None, :])
    np.testing.assert_allclose(y_step, y_full[:, 0], atol=1e-12)


def test_fast_ar_step_matches_naive_recompute():
    spec = ModelSpec(arch="tcn", mode="ar", input_dim=1, hidden=3, depth=4)
    model = Model.create(spec, 6)
    rng = np.random.default_rng(6)
    T = 256
    u = rng.standard_normal((1, T, 1))
    cache = ConvCache.init(spec, batch=1)
    y = np.empty((1, T, 1))
    fb = np.zeros((1, 1))
    for t in range(T):
        y_t = conv_cache_step(cache, model.params, np.concatenate([u[:, t], fb], axis=1))
        y[:, t] = y_t
        fb = y_t
    nar_twin = ModelSpec(arch="tcn", mode="nar", input_dim=2, hidden=3, depth=4)
    y_naive = np.empty((1, T, 1))
    for t in range(T):
        fb_hist = np.concatenate([np.zeros((1, 1, 1)), y_naive[:, :t]], axis=1)
        hist = np.concatenate([u[:, : t + 1], fb_hist], axis=2)
        y_naive[:, t] = Model(spec=nar_twin, params=model.params).forward(hist)[0][:, -1]
    assert np.abs(y - y_naive).max() < 1e-9


def test_fast_ar_step_cost_is_history_independent():
    spec = ModelSpec(arch="tcn", mode="ar", input_dim=1, hidden=8, depth=6)
    model = Model.create(spec, 7)
    cache = ConvCache.init(spec, batch=1)
    rng = np.random.default_rng(7)

    def step_time(n):
        times = []
        for _ in range(n):
            x = np.concatenate([rng.standard_normal((1, 1)), np.zeros((1, 1))], axis=1)
            t0 = time.perf_counter()
            conv_cache_step(cache, model.params, x)
            times.append(time.perf_counter() - t0)
        return float(np.median(times))

    step_time(100)  # warm to t=100
    early = step_time(50)
    for _ in range(2000 - 150):  # on to t=2000
        conv_cache_step(cache, model.params, np.zeros((1, 2)))
    late = step_time(50)
    assert late <= 2.0 * early


# ---------------------------------------------------------------------------
# pooled_rmse, the evaluation RMSE
# ---------------------------------------------------------------------------


def _one_sequence(y, transient_n):
    return SequenceData(sequences=[(np.zeros_like(y), y)], transient_n=transient_n)


def test_evaluate_rmse_zero_for_perfect():
    y = np.random.default_rng(8).standard_normal((20, 1))
    assert pooled_rmse([y], _one_sequence(y, 3)) == 0.0


def test_evaluate_rmse_direct_value():
    y_hat = np.array([[9.0], [0.0], [3.0]])
    y = np.array([[0.0], [4.0], [0.0]])
    assert pooled_rmse([y_hat], _one_sequence(y, 1)) == pytest.approx(np.sqrt((16 + 9) / 2))


def test_evaluate_rmse_unit_scale():
    y_hat = np.array([[1.0], [1.0]])
    y = np.array([[0.0], [0.0]])
    rmse = pooled_rmse([y_hat], _one_sequence(y, 0), unit_scale=1000.0)
    assert rmse == pytest.approx(1000.0)


def test_pooled_rmse_rejects_mismatched_shapes():
    with pytest.raises(DimensionError):
        pooled_rmse([np.zeros((5, 1))], _one_sequence(np.zeros((6, 1)), 0))
    with pytest.raises(DimensionError):
        pooled_rmse([], _one_sequence(np.zeros((6, 1)), 0))


def test_pooled_rmse_clamps_transient_to_last_sample():
    # a validation tail shorter than transient_n still scores its last sample
    y_hat = np.array([[1.0], [2.0], [5.0]])
    y = np.zeros((3, 1))
    assert pooled_rmse([y_hat], _one_sequence(y, 7)) == 5.0


def test_evaluate_rmse_equals_sqrt_masked_mse():
    rng = np.random.default_rng(9)
    y_hat = rng.standard_normal((1, 30, 2))
    y = rng.standard_normal((1, 30, 2))
    lhs = pooled_rmse([y_hat[0]], _one_sequence(y[0], 0), 1.0)
    rhs = float(np.sqrt(oracles.masked_mse(y_hat, y)))
    assert lhs == pytest.approx(rhs, rel=1e-12)


# ---------------------------------------------------------------------------
# timing harnesses
# ---------------------------------------------------------------------------

GRU_AR = ModelSpec(arch="gru", mode="ar", input_dim=1, hidden=8, depth=1)
GRU_NAR = ModelSpec(arch="gru", mode="nar", input_dim=1, hidden=8, depth=1)
TCN_AR = ModelSpec(arch="tcn", mode="ar", input_dim=1, hidden=4, depth=3)
TCN_NAR = ModelSpec(arch="tcn", mode="nar", input_dim=1, hidden=4, depth=3)


def _cells(specs, lengths):
    return [(spec, L) for spec in specs for L in lengths]


def test_bench_empty_specs_gives_empty_table():
    table = bench_inference_cells(_cells([], [64, 128]), repeats=2)
    assert table.rows == [] and table.medians() == []


def test_bench_row_bookkeeping():
    table = bench_training_cells(_cells([GRU_NAR, TCN_NAR], [64, 128]), batch_size=2,
                                 repeats=3, warmup=1)
    assert len(table.rows) == 3 * 2 * 2
    assert len(table.medians()) == 4


def test_bench_tcn_length_precondition():
    with pytest.raises(ParameterError):
        bench_training_cells(_cells([TCN_AR], [4]), batch_size=2, repeats=1)


def test_bench_lists_every_out_of_range_setting():
    with pytest.raises(ParameterError) as info:
        bench_inference_cells(_cells([GRU_NAR], [0, -3, 8]), repeats=0, warmup=-1)
    message = str(info.value)
    for problem in ("seq_len must be >= 1, got -3", "seq_len must be >= 1, got 0",
                    "repeats must be >= 1, got 0", "warmup must be >= 0, got -1"):
        assert problem in message


def test_ar_training_time_increases_with_length():
    table = bench_training_cells(_cells([GRU_AR, TCN_AR], [128, 256, 512]), batch_size=2,
                                 repeats=3, warmup=1)
    for variant in ("GRU", "TCN"):
        times = [oracles.median_for(table, variant, "AR", L) for L in (128, 256, 512)]
        assert times[0] < times[1] < times[2]


def test_inference_scaling_and_ordering():
    lengths = [128, 256, 512]
    table = bench_inference_cells(_cells([GRU_AR, GRU_NAR, TCN_AR, TCN_NAR], lengths),
                                  repeats=3, warmup=1)
    # sequential engines scale ~linearly with length
    for variant, mode in (("GRU", "AR"), ("GRU", "NAR"), ("TCN", "AR")):
        t = np.array([oracles.median_for(table, variant, mode, L) for L in lengths])
        x = np.array(lengths, dtype=float)
        slope, icept = np.polyfit(x, t, 1)
        pred = slope * x + icept
        ss_res = np.sum((t - pred) ** 2)
        ss_tot = np.sum((t - t.mean()) ** 2)
        assert 1.0 - ss_res / ss_tot > 0.95
    # the cached AR generator always costs more than one parallel NAR pass
    for L in lengths:
        assert (oracles.median_for(table, "TCN", "AR", L)
                > oracles.median_for(table, "TCN", "NAR", L))


def test_bench_refuses_concurrent_runs():
    assert _bench_lock.acquire(blocking=False)
    try:
        with pytest.raises(UsageError):
            bench_inference_cells(_cells([GRU_NAR], [32]), repeats=1)
    finally:
        _bench_lock.release()
