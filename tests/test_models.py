from dataclasses import replace

import numpy as np
import pytest

from sidnn.errors import DimensionError, InputError, ParameterError, StateError, UsageError
from sidnn.models import (
    ConvCache,
    HiddenState,
    Model,
    ModelSpec,
    ParamStore,
    init_params,
    param_shapes,
    conv_cache_step,
    receptive_field,
)

from oracles import grad_check, gru_ar_explicit, gru_cell


def zero_params(spec):
    return ParamStore({k: np.zeros(s) for k, s in param_shapes(spec).items()})


GRU_NAR = ModelSpec(arch="gru", mode="nar", input_dim=2, hidden=3, depth=2)
GRU_AR = ModelSpec(arch="gru", mode="ar", input_dim=2, hidden=3, depth=2)
TCN_NAR = ModelSpec(arch="tcn", mode="nar", input_dim=2, hidden=4, depth=3)
TCN_AR = ModelSpec(arch="tcn", mode="ar", input_dim=2, hidden=4, depth=3)


# ---------------------------------------------------------------------------
# gru_cell
# ---------------------------------------------------------------------------


def test_gru_cell_zero_params_zero_state():
    spec = ModelSpec(arch="gru", mode="nar", input_dim=2, hidden=3, depth=1)
    params = zero_params(spec)
    h = gru_cell(np.array([[5.0, -1.0]]), np.zeros((1, 3)), params)
    np.testing.assert_array_equal(h, np.zeros((1, 3)))


def test_gru_cell_zero_params_halves_state():
    # z = 0.5 and candidate = 0, so h' = (1 - 0.5) * h
    spec = ModelSpec(arch="gru", mode="nar", input_dim=1, hidden=1, depth=1)
    params = zero_params(spec)
    h = gru_cell(np.array([[2.0]]), np.array([[1.0]]), params)
    np.testing.assert_allclose(h, [[0.5]])


def test_gru_cell_bptt_vs_finite_differences():
    # full BPTT through 5 steps of a single cell + head
    spec = ModelSpec(arch="gru", mode="nar", input_dim=2, hidden=3, depth=1)
    model = Model.create(spec, 1)
    rng = np.random.default_rng(0)
    u = rng.standard_normal((2, 5, 2))
    g = rng.standard_normal((2, 5, 1))
    y, _, cache = model.forward(u, return_cache=True)
    grads, _ = model.backward(cache, g)
    eps = 1e-6
    worst = 0.0
    for name in model.params.names():
        flat = model.params[name].reshape(-1)
        ga = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = float(np.sum(model.forward(u)[0] * g))
            flat[i] = orig - eps
            lm = float(np.sum(model.forward(u)[0] * g))
            flat[i] = orig
            num = (lp - lm) / (2 * eps)
            worst = max(worst, abs(ga[i] - num) / max(abs(ga[i]), abs(num), 1.0))
    assert worst < 1e-4


# ---------------------------------------------------------------------------
# GRU, NAR mode
# ---------------------------------------------------------------------------


def test_gru_forward_zero_params_outputs_zero():
    params = zero_params(GRU_NAR)
    u = np.random.default_rng(1).standard_normal((2, 7, 2))
    y, _ = Model(spec=GRU_NAR, params=params).forward(u)
    np.testing.assert_array_equal(y, np.zeros_like(y))


def test_gru_forward_single_step_equals_cell_plus_head():
    model = Model.create(GRU_NAR, 2)
    u = np.random.default_rng(2).standard_normal((2, 1, 2))
    y, _ = model.forward(u)
    h0 = gru_cell(u[:, 0], np.zeros((2, 3)), model.params, layer=0)
    h1 = gru_cell(h0, np.zeros((2, 3)), model.params, layer=1)
    expected = h1 @ model.params["head.W"] + model.params["head.b"]
    np.testing.assert_allclose(y[:, 0], expected, atol=1e-14)


def test_gru_forward_chunked_equals_monolithic():
    model = Model.create(GRU_NAR, 3)
    u = np.random.default_rng(3).standard_normal((2, 64, 2))
    y_mono, _ = model.forward(u)
    state = model.initial_state(2)
    y0, state = model.forward(u[:, :32], state)
    y1, _ = model.forward(u[:, 32:], state)
    np.testing.assert_allclose(np.concatenate([y0, y1], axis=1), y_mono, atol=1e-12)


# ---------------------------------------------------------------------------
# GRU, AR mode
# ---------------------------------------------------------------------------


def test_gru_ar_zero_params_stable_zero():
    params = zero_params(GRU_AR)
    u = np.random.default_rng(4).standard_normal((2, 16, 2))
    state = HiddenState(
        gru_h=[np.zeros((2, 3)) for _ in range(2)], last_output=np.zeros((2, 1))
    )
    y, _ = Model(spec=GRU_AR, params=params).forward(u, state)
    np.testing.assert_array_equal(y, np.zeros_like(y))


def test_gru_ar_chunked_equals_monolithic():
    model = Model.create(GRU_AR, 5)
    u = np.random.default_rng(5).standard_normal((2, 64, 2))
    y_mono, _ = model.forward(u, model.initial_state(2))
    state = model.initial_state(2)
    parts = []
    for c in range(4):
        yc, state = model.forward(u[:, c * 16 : (c + 1) * 16], state)
        parts.append(yc)
    np.testing.assert_allclose(np.concatenate(parts, axis=1), y_mono, atol=1e-12)


def test_gru_ar_one_step_is_cell_on_concat():
    model = Model.create(GRU_AR, 6)
    u = np.random.default_rng(6).standard_normal((2, 1, 2))
    y, _ = model.forward(u, model.initial_state(2))
    x0 = np.concatenate([u[:, 0], np.zeros((2, 1))], axis=1)
    h0 = gru_cell(x0, np.zeros((2, 3)), model.params, layer=0)
    h1 = gru_cell(h0, np.zeros((2, 3)), model.params, layer=1)
    expected = h1 @ model.params["head.W"] + model.params["head.b"]
    np.testing.assert_allclose(y[:, 0], expected, atol=1e-14)


@pytest.mark.parametrize("dropout", [0.0, 0.3], ids=["p0", "p03"])
@pytest.mark.parametrize("batch", [1, 3], ids=["B1", "B3"])
@pytest.mark.parametrize("depth", [1, 2, 3], ids=["d1", "d2", "d3"])
@pytest.mark.parametrize("teacher_forced", [False, True], ids=["free", "teacher"])
def test_gru_ar_fold_matches_explicit_feedback_oracle(teacher_forced, depth, batch, dropout):
    # the folded feedback (hoisted layer-0 projection, h_top @ F per step,
    # head after the loop) against the per-step concat [u_t | fb]; the
    # random carried state makes a fold at a call's first step show
    spec = ModelSpec(arch="gru", mode="ar", input_dim=2, hidden=5, depth=depth,
                     dropout=dropout)
    rng = np.random.default_rng(depth * 10 + batch)
    params = ParamStore({name: 0.5 * rng.standard_normal(shape)
                         for name, shape in param_shapes(spec).items()})
    model = Model(spec=spec, params=params)
    T1, T = 7, 20
    u = rng.standard_normal((batch, T, 2))
    teacher = rng.standard_normal((batch, T, 1)) if teacher_forced else None
    start = HiddenState(gru_h=[rng.standard_normal((batch, 5)) for _ in range(depth)],
                        last_output=rng.standard_normal((batch, 1)))

    def close(a, b):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    for bounds in (((0, T),), ((0, T1), (T1, T))):
        for cached in (False, True):
            state, expected = start, start
            rng_fold, rng_oracle = np.random.default_rng(1), np.random.default_rng(1)
            for lo, hi in bounds:
                kw = {} if teacher is None else {"teacher": teacher[:, lo:hi]}
                y, state = model.forward(u[:, lo:hi], state, training=True,
                                         rng=rng_fold, return_cache=cached, **kw)[:2]
                y_ref, expected = gru_ar_explicit(u[:, lo:hi], expected, params, spec,
                                                  training=True, rng=rng_oracle, **kw)
                close(y, y_ref)
                close(state.last_output, expected.last_output)
                for h, h_ref in zip(state.gru_h, expected.gru_h):
                    close(h, h_ref)


def test_gru_ar_missing_last_output_raises():
    model = Model.create(GRU_AR, 0)
    state = HiddenState(gru_h=[np.zeros((1, 3)) for _ in range(2)])
    with pytest.raises(StateError):
        model.forward(np.zeros((1, 4, 2)), state)


@pytest.mark.parametrize("spec,field,value", [
    (GRU_NAR, "gru_h", [np.zeros((1, 3)), np.zeros((1, 3))]),  # batch 1 for batch 4
    (GRU_NAR, "gru_h", [np.zeros((4, 3))]),  # one layer of two
    (GRU_NAR, "gru_h", [np.zeros((4, 3)), np.zeros((4, 5))]),  # width 5 for 3
    (GRU_AR, "last_output", np.zeros((1, 1))),  # batch 1 for batch 4
    (TCN_AR, "last_output", np.zeros((1, 1))),
    (TCN_AR, "last_output", np.zeros((4, 2))),  # two outputs for one
], ids=["gru_h_batch", "gru_h_layers", "gru_h_width", "gru_last_output_batch",
        "tcn_last_output_batch", "tcn_last_output_width"])
def test_mismatched_carried_state_raises(spec, field, value):
    # numpy would broadcast a batch-1 array over the batch, or fail with a
    # bare IndexError/ValueError, if the forward did not check the state
    model = Model.create(spec, 0)
    state = model.initial_state(4)
    setattr(state, field, value)
    with pytest.raises(StateError):
        model.forward(np.zeros((4, 5, 2)), state)


@pytest.mark.parametrize("shape", [(1, 5, 1), (4, 4, 1), (4, 5, 2)],
                         ids=["batch", "short", "wide"])
@pytest.mark.parametrize("spec", [GRU_AR, TCN_AR], ids=["gru", "tcn"])
def test_mismatched_teacher_raises(spec, shape):
    # a batch-1 teacher would broadcast over the batch and hand on a
    # batch-1 last_output; a short or wide one would fail with a bare
    # IndexError/ValueError
    model = Model.create(spec, 0)
    with pytest.raises(DimensionError):
        model.forward(np.zeros((4, 5, 2)), model.initial_state(4), teacher=np.zeros(shape))


@pytest.mark.parametrize("source,target", [
    (replace(TCN_NAR, depth=5), TCN_NAR),  # the extra tails would be dropped
    (replace(TCN_NAR, kernel=3), TCN_NAR),  # tails longer than kernel 2 keeps
    (TCN_NAR, GRU_NAR),  # the GRU would run from zeros
    (GRU_NAR, TCN_NAR),
], ids=["tcn_depth", "tcn_kernel", "tcn_to_gru", "gru_to_tcn"])
def test_state_of_another_model_raises(source, target):
    # a carried state is checked against the spec of the model it enters,
    # not against its own
    u = np.random.default_rng(0).standard_normal((2, 9, 2))
    _, state = Model.create(source, 0).forward(u)
    with pytest.raises(StateError):
        Model.create(target, 0).forward(u, state)


@pytest.mark.parametrize("spec", [GRU_NAR, GRU_AR, TCN_NAR, TCN_AR],
                         ids=["gru_nar", "gru_ar", "tcn_nar", "tcn_ar"])
def test_empty_batch_raises(spec):
    # the GRU failed with a bare ValueError; the TCN returned an empty output
    with pytest.raises(InputError):
        Model.create(spec, 0).forward(np.zeros((0, 5, 2)))


@pytest.mark.parametrize("spec", [GRU_NAR, TCN_NAR], ids=["gru", "tcn"])
def test_teacher_for_a_nar_model_raises(spec):
    # a NAR model feeds back no output, so a teacher would be ignored
    model = Model.create(spec, 0)
    with pytest.raises(UsageError):
        model.forward(np.zeros((2, 5, 2)), teacher=np.zeros((2, 5, 1)))


@pytest.mark.parametrize("shape", [(5, 2, 1), (2, 5), (2, 4, 1), (2, 5, 2)],
                         ids=["transposed", "2d", "short", "wide"])
@pytest.mark.parametrize("spec", [GRU_NAR, GRU_AR, TCN_NAR, TCN_AR],
                         ids=["gru_nar", "gru_ar", "tcn_nar", "tcn_ar"])
def test_mismatched_output_gradient_raises(spec, shape):
    # a NAR backward took a transposed g_y and returned wrong gradients, the
    # TCN-NAR one also a 2-D g_y; the rest failed with a bare numpy error
    model = Model.create(spec, 0)
    _, _, cache = model.forward(np.zeros((2, 5, 2)), return_cache=True)
    with pytest.raises(DimensionError):
        model.backward(cache, np.zeros(shape))


def test_gru_gates_stay_bounded_at_extreme_pre_activations():
    # each hidden unit's gate and candidate biases take one extreme value;
    # the z/r halving must neither overflow nor turn an infinity into a NaN
    extremes = np.array([800.0, -800.0, 1e308, -1e308, np.inf, -np.inf])
    spec = ModelSpec(arch="gru", mode="nar", input_dim=2, hidden=len(extremes), depth=2)
    model = Model.create(spec, 9)
    for l in range(spec.depth):
        for gate in "zrh":
            model.params[f"gru.{l}.b{gate}"][:] = extremes
    u = np.random.default_rng(9).standard_normal((2, 12, 2))
    y, state, cache = model.forward(u, model.initial_state(2), return_cache=True)
    assert np.isfinite(y).all() and all(np.isfinite(h).all() for h in state.gru_h)
    for l in range(spec.depth):
        z, r = 1.0 - cache["omz"][l], cache["R"][l]
        assert ((0.0 <= z) & (z <= 1.0) & (0.0 <= r) & (r <= 1.0)).all()
        assert np.isfinite(cache["H"][l]).all()
    u[0, 4, 1] = np.nan
    y, _ = model.forward(u, model.initial_state(2))
    assert np.isnan(y[0, 4:]).all()
    assert np.isfinite(y[0, :4]).all() and np.isfinite(y[1]).all()


def test_ar_with_zero_feedback_weights_equals_nar():
    # zeroing the feedback input rows must reproduce the NAR twin exactly
    rng = np.random.default_rng(7)
    for ar_spec, nar_spec in ((GRU_AR, GRU_NAR), (TCN_AR, TCN_NAR)):
        ar = Model.create(ar_spec, 8)
        nar_arrays = {}
        for name, arr in ar.params.items():
            if ar_spec.arch == "gru" and name in ("gru.0.Wz", "gru.0.Wr", "gru.0.Wh"):
                arr[ar_spec.input_dim :, :] = 0.0
                nar_arrays[name] = arr[: ar_spec.input_dim, :].copy()
            elif ar_spec.arch == "tcn" and name in ("tcn.0.kernel", "tcn.0.proj"):
                arr[:, ar_spec.input_dim :, :] = 0.0
                nar_arrays[name] = arr[:, : ar_spec.input_dim, :].copy()
            else:
                nar_arrays[name] = arr.copy()
        nar = Model(spec=nar_spec, params=ParamStore(nar_arrays))
        u = rng.standard_normal((2, 24, 2))
        y_ar, _ = ar.forward(u, ar.initial_state(2))
        y_nar_out = nar.forward(u)
        y_nar = y_nar_out[0]
        np.testing.assert_allclose(y_ar, y_nar, atol=1e-12)


# ---------------------------------------------------------------------------
# TCN, NAR mode
# ---------------------------------------------------------------------------


def test_tcn_depth1_pairwise_sums():
    # kernel [1, 1], identity head, no residual: y[t] = u[t] + u[t-1]
    spec = ModelSpec(arch="tcn", mode="nar", input_dim=1, hidden=1, depth=1,
                     residual=False)
    params = zero_params(spec)
    params["tcn.0.kernel"] = np.array([[[1.0, 1.0]]])
    params["head.W"] = np.array([[1.0]])
    u = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1)
    y, _ = Model(spec=spec, params=params).forward(u)
    np.testing.assert_array_equal(y.ravel(), [1.0, 3.0, 5.0, 7.0])


def test_tcn_causality():
    model = Model.create(TCN_NAR, 9)
    rng = np.random.default_rng(9)
    u = rng.standard_normal((1, 20, 2))
    base, _ = model.forward(u)
    t = 11
    up = u.copy()
    up[0, t, 0] += 1.0
    out, _ = model.forward(up)
    np.testing.assert_array_equal(out[:, :t], base[:, :t])


def test_tcn_receptive_field_limit():
    # perturbations older than the receptive span cannot reach the output
    spec = ModelSpec(arch="tcn", mode="nar", input_dim=1, hidden=3, depth=3)
    model = Model.create(spec, 10)
    rng = np.random.default_rng(10)
    span = receptive_field(spec.depth)  # 7
    T = 24
    u = rng.standard_normal((1, T, 1))
    base, _ = model.forward(u)
    t_probe = 20
    up = u.copy()
    up[0, t_probe - span - 1, 0] += 10.0
    out, _ = model.forward(up)
    np.testing.assert_array_equal(out[0, t_probe], base[0, t_probe])
    up2 = u.copy()
    up2[0, t_probe - span, 0] += 10.0
    out2, _ = model.forward(up2)
    assert np.any(out2[0, t_probe] != base[0, t_probe])


def test_tcn_rejects_empty_sequence():
    model = Model.create(TCN_NAR, 0)
    with pytest.raises(Exception):
        model.forward(np.zeros((1, 0, 2)))


@pytest.mark.parametrize("lengths", [(16, 16, 16, 16), (3, 5, 1, 30, 25), (1, 63)],
                         ids=["aligned", "mid-block", "one-then-rest"])
@pytest.mark.parametrize("kernel", [1, 2, 3])
@pytest.mark.parametrize("cached", [False, True], ids=["inference", "training"])
def test_tcn_nar_chunked_with_context_equals_monolithic(cached, kernel, lengths):
    # depth 3 has dilations 1, 2, 4: the odd lengths start chunks mid-block,
    # and a chunk shorter than a layer's context leaves part of it in place
    spec = replace(TCN_NAR, kernel=kernel)
    model = Model.create(spec, 11)
    u = np.random.default_rng(11).standard_normal((2, 64, 2))
    y_mono, _ = model.forward(u)
    state = model.initial_state(2)
    parts = []
    for lo, hi in zip(np.cumsum((0,) + lengths[:-1]), np.cumsum(lengths)):
        yc, state = model.forward(u[:, lo:hi], state, return_cache=cached)[:2]
        parts.append(yc)
    np.testing.assert_allclose(np.concatenate(parts, axis=1), y_mono, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kernel", [1, 2, 3])
@pytest.mark.parametrize("T", [5, 40])
def test_tcn_nar_ring_buffers_hold_each_layers_last_inputs(T, kernel):
    # a fresh state holds empty tails; after chunks of T steps in all, layer
    # l's tail holds exactly its inputs of the last min(T, (kernel-1)*2**l)
    # steps as a monolithic cached forward computes them (kernel 1: none),
    # in either mode; at T=5 the deeper layers' tails are still short
    for mode in ("nar", "ar"):
        spec = ModelSpec(arch="tcn", mode=mode, input_dim=2, hidden=3, depth=4, kernel=kernel)
        model = Model.create(spec, 15)
        u = np.random.default_rng(15).standard_normal((2, T, 2))
        state = model.initial_state(2)
        assert [len(tail) for tail in state.conv.tails] == [0] * spec.depth
        _, state = model.forward(u[:, :2], state)
        _, state = model.forward(u[:, 2:], state)
        _, _, cache = model.forward(u, model.initial_state(2), return_cache=True)
        for l, tail in enumerate(state.conv.tails):
            n = (kernel - 1) * 2 ** l
            if mode == "nar":
                inputs = cache["xs"][l].transpose(2, 0, 1)
            else:
                inputs = cache["a_pad"][l][n:]
            assert tail.shape == (min(T, n), 2, spec.feed_dim if l == 0 else 3)
            np.testing.assert_allclose(tail, inputs[T - len(tail) :], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kernel", [1, 2, 3])
def test_tcn_nar_streaming_matches_forward_and_ring_buffers(kernel):
    # conv_cache_step streams a NAR spec with x_t = u_t from empty tails: its
    # outputs match one forward, and its tails match a chunked forward's at
    # every split; the biases are random, so a step that drops one shows
    spec = ModelSpec(arch="tcn", mode="nar", input_dim=2, hidden=4, depth=4, kernel=kernel)
    model = Model.create(spec, 16)
    B, T = 3, 50
    rng = np.random.default_rng(16)
    for l in range(spec.depth):
        model.params[f"tcn.{l}.bias"] = rng.uniform(-0.5, 0.5, spec.hidden)
    u = rng.standard_normal((B, T, 2))
    y_mono, _ = model.forward(u, model.initial_state(B))
    cache = ConvCache.init(spec, B)
    assert all(len(tail) == 0 for tail in cache.tails)
    state = model.initial_state(B)
    splits = (0, 1, 7, 8, 23, 50)
    y_stream = np.empty_like(y_mono)
    for lo, hi in zip(splits[:-1], splits[1:]):
        for t in range(lo, hi):
            y_stream[:, t] = conv_cache_step(cache, model.params, u[:, t])
        _, state = model.forward(u[:, lo:hi], state)
        for l, (a, b) in enumerate(zip(cache.tails, state.conv.tails, strict=True)):
            assert len(a) == min(hi, (kernel - 1) * 2 ** l)
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(y_stream, y_mono, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("skip", ["identity", "projection", "off"])
@pytest.mark.parametrize("kernel", [1, 2, 3])
def test_tcn_nar_backward_vs_finite_differences_after_a_chunk(kernel, skip):
    # the second chunk reads its carried context as fixed data: its kernel
    # gradients include the taps that read the context, and the 7-step chunk
    # after 3 steps starts mid-block in layers 1 and 2
    hidden = 4 if skip == "projection" else 2
    spec = ModelSpec(arch="tcn", mode="nar", input_dim=2, hidden=hidden, depth=3,
                     kernel=kernel, residual=skip != "off")
    model = Model.create(spec, 25 + kernel)
    names = model.params.names()
    rng = np.random.default_rng(kernel)
    for l in range(spec.depth):  # keep biases off the ReLU kink (see the AR test)
        model.params[f"tcn.{l}.bias"] = rng.uniform(-0.5, 0.5, hidden)
    u = rng.standard_normal((2, 10, 2))
    _, state = model.forward(u[:, :3])

    def f(u_chunk, *arrays):
        chunk_model = Model(spec=spec, params=ParamStore(dict(zip(names, arrays))))
        y, _, cache = chunk_model.forward(u_chunk, state, return_cache=True)

        def vjp(g):
            grads, gu = chunk_model.backward(cache, g, need_input_grad=True)
            return [gu] + [grads[n] for n in names]

        return y, vjp

    inputs = [u[:, 3:].copy()] + [model.params[n].copy() for n in names]
    assert grad_check(f, inputs, eps=1e-6, rng=rng) < 1e-6


# ---------------------------------------------------------------------------
# TCN, AR mode
# ---------------------------------------------------------------------------


def test_tcn_ar_zero_params_outputs_zero():
    params = zero_params(TCN_AR)
    model = Model(spec=TCN_AR, params=params)
    u = np.random.default_rng(12).standard_normal((1, 20, 2))
    y, _ = model.forward(u, model.initial_state(1))
    np.testing.assert_array_equal(y, np.zeros_like(y))


def test_tcn_ar_equals_naive_recompute():
    model = Model.create(TCN_AR, 13)
    rng = np.random.default_rng(13)
    T = 128
    u = rng.standard_normal((1, T, 2))
    y_cached, _ = model.forward(u, model.initial_state(1))
    nar_twin = ModelSpec(arch="tcn", mode="nar", input_dim=TCN_AR.feed_dim,
                         hidden=TCN_AR.hidden, depth=TCN_AR.depth)
    y_naive = np.empty((1, T, 1))
    for t in range(T):
        fb_hist = np.concatenate(
            [np.zeros((1, 1, 1)), y_naive[:, :t]], axis=1
        )
        hist = np.concatenate([u[:, : t + 1], fb_hist], axis=2)
        out, _ = Model(spec=nar_twin, params=model.params).forward(hist)
        y_naive[:, t] = out[:, -1]
    assert np.abs(y_cached - y_naive).max() < 1e-9


# kernel-skip-feedback ids; the free-running output_dim 2 cases start from a
# nonzero last output, so both chunks feed two columns back from the start
FD_CASES = [pytest.param(kernel, skip, teacher_forced, 1,
                         id=f"{kernel}-{skip}-{'teacher' if teacher_forced else 'free'}")
            for kernel in (1, 2, 3) for skip in ("identity", "projection", "off")
            for teacher_forced in (False, True)]
FD_CASES += [pytest.param(kernel, skip, False, 2, id=f"{kernel}-{skip}-free-output_dim2")
             for kernel in (1, 2, 3) for skip in ("identity", "projection", "off")]


@pytest.mark.parametrize("kernel,skip,teacher_forced,output_dim", FD_CASES)
def test_tcn_ar_backward_vs_finite_differences_across_blocks(kernel, skip, teacher_forced,
                                                             output_dim):
    # depth 3 has top dilation 4: the 3-step chunk ends inside a block of
    # layer 2, and the 7-step chunk carried on from it starts mid-block in
    # layers 1 and 2; hidden equal to the feed width makes an identity skip
    feed = 2 + output_dim
    hidden = feed + 1 if skip == "projection" else feed
    spec = ModelSpec(arch="tcn", mode="ar", input_dim=2, hidden=hidden, depth=3,
                     kernel=kernel, residual=skip != "off", output_dim=output_dim)
    model = Model.create(spec, 20 + kernel)
    assert ("tcn.0.proj" in model.params) == (skip == "projection")
    names = model.params.names()
    rng = np.random.default_rng(kernel)
    # without a skip, a layer whose units are all off feeds zeros upward, and
    # a zero bias then sits exactly on the ReLU kink, where central
    # differences read half the slope
    for l in range(spec.depth):
        model.params[f"tcn.{l}.bias"] = rng.uniform(-0.5, 0.5, hidden)
    u = rng.standard_normal((2, 10, 2))
    teacher = rng.standard_normal((2, 10, output_dim)) if teacher_forced else None
    state = model.initial_state(2)
    if output_dim > 1:
        state.last_output = rng.standard_normal((2, output_dim))
    for lo, hi in ((0, 3), (3, 10)):
        kw = {} if teacher is None else {"teacher": teacher[:, lo:hi]}

        def f(u_chunk, *arrays):
            chunk_model = Model(spec=spec, params=ParamStore(dict(zip(names, arrays))))
            y, _, cache = chunk_model.forward(u_chunk, state, return_cache=True, **kw)

            def vjp(g):
                grads, gu = chunk_model.backward(cache, g, need_input_grad=True)
                return [gu] + [grads[n] for n in names]

            return y, vjp

        inputs = [u[:, lo:hi].copy()] + [model.params[n].copy() for n in names]
        assert grad_check(f, inputs, eps=1e-6, rng=rng) < 1e-6
        state = model.forward(u[:, lo:hi], state, **kw)[1]


@pytest.mark.parametrize("skip", ["identity", "projection", "off"])
@pytest.mark.parametrize("kernel", [1, 2, 3])
def test_tcn_ar_two_outputs_equal_naive_recompute_across_chunks(kernel, skip):
    # two fed-back columns, each through its own head column, from a nonzero
    # carried last output; the second chunk's layer-0 tail carries fed-back
    # outputs of the first (kernel 2 and 3), which the chunk's known share
    # must read. The oracle is the NAR twin over the whole history.
    hidden = 5 if skip == "projection" else 4
    spec = ModelSpec(arch="tcn", mode="ar", input_dim=2, hidden=hidden, depth=3,
                     kernel=kernel, residual=skip != "off", output_dim=2)
    model = Model.create(spec, 40 + kernel)
    rng = np.random.default_rng(40 + kernel)
    for l in range(spec.depth):
        model.params[f"tcn.{l}.bias"] = rng.uniform(-0.5, 0.5, hidden)
    B, T, T1 = 2, 30, 13
    u = rng.standard_normal((B, T, 2))
    last = rng.standard_normal((B, 2))
    state = replace(model.initial_state(B), last_output=last)
    y1, state = model.forward(u[:, :T1], state)
    y2, _ = model.forward(u[:, T1:], state)
    y = np.concatenate([y1, y2], axis=1)
    twin = Model(spec=replace(spec, mode="nar", input_dim=spec.feed_dim), params=model.params)
    y_naive = np.empty((B, T, 2))
    for t in range(T):
        fb = np.concatenate([last[:, None], y_naive[:, :t]], axis=1)
        y_naive[:, t] = twin.forward(np.concatenate([u[:, : t + 1], fb], axis=2))[0][:, -1]
    np.testing.assert_allclose(y, y_naive, rtol=1e-10, atol=1e-10)


# the TCN cases keep their kernel-skip-zero ids; a GRU case reads neither
# kernel nor skip, and runs with dropout and two outputs
TWIN_CASES = [pytest.param("tcn", kernel, skip, zero,
                           id=f"{kernel}-{skip}-{'zero' if zero else 'random'}")
              for kernel in (1, 2, 3) for skip in ("identity", "projection", "off")
              for zero in (False, True)]
TWIN_CASES += [pytest.param("gru", None, None, zero, id=f"gru-{'zero' if zero else 'random'}")
               for zero in (False, True)]


@pytest.mark.parametrize("arch,kernel,skip,zero", TWIN_CASES)
def test_tcn_ar_teacher_forced_equals_nar_twin(arch, kernel, skip, zero):
    # teacher-forced, an AR model is the NAR model over [u_t | y_{t-1}], the
    # twin of test_tcn_ar_equals_naive_recompute: Model.forward builds that
    # input for both architectures, carries the teacher's last sample, and
    # the backward drops the feedback columns from du. The zero case zeroes
    # every conv or GRU parameter, so each identity-skip pre-activation is
    # exactly 0; the head stays random, so the adjoints reach the ties. It
    # also runs the TCN chunks free-running, which checks the AR step's
    # q > v mask on those ties.
    if arch == "tcn":
        hidden = 4 if skip == "projection" else 3
        spec = ModelSpec(arch="tcn", mode="ar", input_dim=2, hidden=hidden, depth=3,
                         kernel=kernel, residual=skip != "off")
    else:
        spec = ModelSpec(arch="gru", mode="ar", input_dim=2, hidden=3, depth=2,
                         output_dim=2, dropout=0.3)
    twin = replace(spec, mode="nar", input_dim=spec.feed_dim)
    O = spec.output_dim
    rng = np.random.default_rng(kernel or 0)
    params = ParamStore({name: np.zeros(shape) if zero and name.startswith(arch + ".")
                         else rng.uniform(-0.5, 0.5, shape)
                         for name, shape in param_shapes(spec).items()})
    model, twin_model = Model(spec=spec, params=params), Model(spec=twin, params=params)
    B, T1, T = 3, 5, 14
    u = rng.standard_normal((B, T, 2))
    teacher = rng.standard_normal((B, T, O))
    g = rng.standard_normal((B, T, O))
    last = rng.standard_normal((B, O))
    x = np.concatenate([u, np.concatenate([last[:, None], teacher[:, :-1]], axis=1)], axis=2)
    state_ar = state_free = replace(model.initial_state(B), last_output=last)
    state_nar = None
    # the twins draw the same dropout masks
    rng_ar, rng_nar = np.random.default_rng(1), np.random.default_rng(1)

    def close(a, b):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    for lo, hi in ((0, T1), (T1, T)):
        y_ar, state_ar, cache_ar = model.forward(u[:, lo:hi], state_ar, training=True,
                                                 rng=rng_ar, teacher=teacher[:, lo:hi],
                                                 return_cache=True)
        y_nar, state_nar, cache_nar = twin_model.forward(x[:, lo:hi], state_nar, training=True,
                                                         rng=rng_nar, return_cache=True)
        grads_ar, gu_ar = model.backward(cache_ar, g[:, lo:hi], need_input_grad=True)
        grads_nar, gu_nar = twin_model.backward(cache_nar, g[:, lo:hi], need_input_grad=True)
        close(y_ar, y_nar)
        close(gu_ar, gu_nar[:, :, :2])
        np.testing.assert_array_equal(state_ar.last_output, teacher[:, hi - 1])
        carried = (state_ar.conv.tails, state_nar.conv.tails) if arch == "tcn" else (
            state_ar.gru_h, state_nar.gru_h)
        for a, b in zip(*carried, strict=True):
            np.testing.assert_array_equal(a, b)
        assert grads_ar.keys() == grads_nar.keys() == params.keys()
        for name in params:
            close(grads_ar[name], grads_nar[name])
        if zero and skip == "identity":
            # every tie sends its adjoint through the skip only, teacher-forced
            # and free-running alike
            _, state_free, cache = model.forward(u[:, lo:hi], state_free, return_cache=True)
            free = model.backward(cache, g[:, lo:hi], need_input_grad=True)
            for grads, gu in ((grads_ar, gu_ar), free):
                assert not any(grads[f"tcn.{l}.kernel"].any() for l in range(spec.depth))
                assert gu.any()


@pytest.mark.parametrize("lengths", [(1, 37, 162), (3, 2, 6, 1, 29, 159)],
                         ids=["1-37-162", "short-chunks"])
@pytest.mark.parametrize("kernel", [2, 3])
def test_tcn_ar_block_boundaries_across_chunks(kernel, lengths):
    # depth 6 batches up to 32 past taps per block; the chunks start and end
    # at many block offsets, and the short ones end before their block does;
    # streaming leaves the chunked forward's tails at every split; the
    # biases are random, so a streaming step that drops one shows
    spec = ModelSpec(arch="tcn", mode="ar", input_dim=2, hidden=5, depth=6, kernel=kernel)
    model = Model.create(spec, 30 + kernel)
    B, splits = 3, np.cumsum((0,) + lengths)
    rng = np.random.default_rng(kernel)
    for l in range(spec.depth):
        model.params[f"tcn.{l}.bias"] = rng.uniform(-0.5, 0.5, spec.hidden)
    u = rng.standard_normal((B, 200, 2))
    y_mono, _ = model.forward(u, model.initial_state(B))
    state_inf = state_train = model.initial_state(B)
    cache = ConvCache.init(spec, B)
    fb = np.zeros((B, 1))
    parts, y_stream = [], np.empty_like(y_mono)
    for lo, hi in zip(splits[:-1], splits[1:]):
        y_inf, state_inf = model.forward(u[:, lo:hi], state_inf)
        y_train, state_train, _ = model.forward(u[:, lo:hi], state_train, return_cache=True)
        np.testing.assert_array_equal(y_train, y_inf)
        for a, b in zip(state_train.conv.tails, state_inf.conv.tails, strict=True):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(state_train.last_output, state_inf.last_output)
        parts.append(y_inf)
        for t in range(lo, hi):
            fb = y_stream[:, t] = conv_cache_step(cache, model.params,
                                                  np.concatenate([u[:, t], fb], axis=1))
        for l, (a, b) in enumerate(zip(cache.tails, state_inf.conv.tails, strict=True)):
            assert len(a) == min(hi, (kernel - 1) * 2 ** l)
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(np.concatenate(parts, axis=1), y_mono, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(y_stream, y_mono, rtol=1e-12, atol=1e-12)


def test_tcn_ar_corrupted_buffers_raise():
    # layer 1 takes 4 channels and keeps at most 2 rows; layer 0 takes 3
    model = Model.create(TCN_AR, 14)
    for l, tail in ((1, np.zeros((1, 1, 1))),  # wrong channel count
                    (1, np.zeros((3, 1, 4))),  # longer than the layer's width
                    (0, np.zeros((1, 2, 3)))):  # wrong batch size
        state = model.initial_state(1)
        state.conv.tails[l] = tail
        with pytest.raises(StateError):
            model.forward(np.zeros((1, 4, 2)), state)


@pytest.mark.parametrize("mode", ["nar", "ar"])
def test_tcn_forward_leaves_the_given_state_unchanged(mode):
    # neither mode copies the state it is given, so neither may write it
    spec = ModelSpec(arch="tcn", mode=mode, input_dim=2, hidden=4, depth=4, kernel=3)
    model = Model.create(spec, 17)
    u = np.random.default_rng(17).standard_normal((2, 30, 2))
    _, state = model.forward(u[:, :11], model.initial_state(2))
    tails = list(state.conv.tails)
    before = [a.tobytes() for a in tails + [state.last_output] if a is not None]
    for record in (False, True):
        model.forward(u[:, 11:], state, return_cache=record)
        assert all(a is b for a, b in zip(state.conv.tails, tails, strict=True))
        after = [a.tobytes() for a in state.conv.tails + [state.last_output] if a is not None]
        assert after == before


# ---------------------------------------------------------------------------
# receptive_field / init_params
# ---------------------------------------------------------------------------


def test_receptive_field_values():
    assert receptive_field(10) == 1023
    assert receptive_field(1) == 1
    assert receptive_field(4) == 15
    assert receptive_field(3, kernel=3) == 14
    assert receptive_field(5, kernel=1) == 0


def test_receptive_field_rejects_bad_depth():
    with pytest.raises(ParameterError):
        receptive_field(0)
    with pytest.raises(ParameterError):
        receptive_field(3, kernel=0)


def test_init_params_deterministic():
    a = init_params(GRU_NAR, 42)
    b = init_params(GRU_NAR, 42)
    for name in a.names():
        np.testing.assert_array_equal(a[name], b[name])


def test_init_params_seed_sensitivity():
    a = init_params(GRU_NAR, 1)
    b = init_params(GRU_NAR, 2)
    assert any(np.any(a[n] != b[n]) for n in a.names())


@pytest.mark.parametrize("spec", [GRU_NAR, GRU_AR, TCN_NAR, TCN_AR])
def test_init_params_shapes_match_spec(spec):
    params = init_params(spec, 0)
    params.validate_for(spec)
    for name, shape in param_shapes(spec).items():
        assert params[name].shape == shape


# ---------------------------------------------------------------------------
# full-model gradients and causality
# ---------------------------------------------------------------------------


def _fd_model_check(spec, seed, T=6, B=2, eps=1e-6):
    model = Model.create(spec, seed)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((B, T, spec.input_dim))
    g = rng.standard_normal((B, T, spec.output_dim))

    def loss():
        return float(np.sum(model.forward(u, model.initial_state(B))[0] * g))

    _, _, cache = model.forward(u, model.initial_state(B), return_cache=True)
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


@pytest.mark.parametrize("spec,seed", [
    (GRU_NAR, 21), (GRU_AR, 22),
    (ModelSpec(arch="tcn", mode="nar", input_dim=2, hidden=3, depth=2), 23),
    (ModelSpec(arch="tcn", mode="ar", input_dim=2, hidden=3, depth=2), 24),
])
def test_full_model_gradients_vs_finite_differences(spec, seed):
    assert _fd_model_check(spec, seed) < 1e-4


@pytest.mark.parametrize("spec", [GRU_NAR, GRU_AR, TCN_NAR, TCN_AR])
def test_output_is_causal(spec):
    model = Model.create(spec, 30)
    rng = np.random.default_rng(30)
    u = rng.standard_normal((1, 16, 2))
    base = model.forward(u, model.initial_state(1))[0]
    up = u.copy()
    up[0, 10, 1] += 1.0
    out = model.forward(up, model.initial_state(1))[0]
    np.testing.assert_array_equal(out[:, :10], base[:, :10])


def _cached_arrays(obj):
    """Every array a forward cache holds, in a fixed order."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (dict, ParamStore)):
        for key in obj:
            yield from _cached_arrays(obj[key])
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _cached_arrays(item)


@pytest.mark.parametrize("spec,teacher_forced", [
    (GRU_NAR, False), (GRU_AR, False), (replace(TCN_NAR, kernel=3), False),
    (replace(TCN_AR, kernel=3), False), (GRU_AR, True), (replace(GRU_NAR, dropout=0.3), False),
], ids=["gru_nar", "gru_ar", "tcn_nar", "tcn_ar", "gru_ar_teacher", "gru_dropout"])
def test_backward_twice_on_one_cache_is_bitwise_stable(spec, teacher_forced):
    # the backward passes reuse scratch buffers, which must never alias an
    # array the cache holds: a second backward then reads what the first did.
    # The forward works on copies of the parameters (the GRU halves its
    # gate columns), so the parameters must come out bitwise unchanged too
    model = Model.create(spec, 40)
    rng = np.random.default_rng(40)
    u = rng.standard_normal((2, 30, spec.input_dim))
    g = rng.standard_normal((2, 20, spec.output_dim))
    kw = {"teacher": rng.standard_normal((2, 20, spec.output_dim))} if teacher_forced else {}
    params = [a.tobytes() for a in _cached_arrays(model.params)]
    _, state = model.forward(u[:, :10], model.initial_state(2))  # a carried context
    _, _, cache = model.forward(u[:, 10:], state, training=True, rng=rng,
                                return_cache=True, **kw)
    assert [a.tobytes() for a in _cached_arrays(model.params)] == params
    cached = [a.tobytes() for a in _cached_arrays(cache)]
    runs = []
    for _ in range(2):
        grads, du = model.backward(cache, g, need_input_grad=True)
        runs.append({**{k: v.tobytes() for k, v in grads.items()}, "du": du.tobytes()})
        assert [a.tobytes() for a in _cached_arrays(cache)] == cached
    assert runs[0] == runs[1]
