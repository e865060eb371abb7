"""Property tests: the per-architecture recurrence cores over random specs, and
the logistic against its two-branch reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sidnn import numkit as nk
from sidnn.models import Model, ModelSpec

from oracles import two_branch_sigmoid


VARIANTS = [("gru", "nar"), ("gru", "ar"), ("tcn", "nar"), ("tcn", "ar")]


@st.composite
def specs(draw, arch, mode, dropout=True):
    kw = dict(arch=arch, mode=mode, input_dim=draw(st.integers(1, 3)),
              hidden=draw(st.integers(1, 5)),
              depth=draw(st.integers(1, 6 if arch == "tcn" else 3)))
    if arch == "tcn":
        # hidden vs feed width decides between the identity and the proj skip
        kw.update(kernel=draw(st.integers(1, 3)), residual=draw(st.booleans()))
    elif dropout:
        kw.update(dropout=draw(st.sampled_from([0.0, 0.3])))
    return ModelSpec(**kw)


def _case(spec, data):
    seed = data.draw(st.integers(0, 2 ** 16), label="seed")
    B = data.draw(st.integers(1, 3), label="batch")
    # TCN chunks up to 2**depth + 8 steps: the second starts mid-block and may
    # end before its block does or cross it, and NAR taps reach into the
    # carried context
    longest = 2 ** spec.depth + 8 if spec.arch == "tcn" else 12
    T1 = data.draw(st.integers(1, longest), label="first chunk")
    T2 = data.draw(st.integers(1, longest), label="second chunk")
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((B, T1 + T2, spec.input_dim))
    teacher = None
    if spec.mode == "ar" and data.draw(st.booleans(), label="teacher forcing"):
        teacher = rng.standard_normal((B, T1 + T2, spec.output_dim))
    return Model.create(spec, seed), u, teacher, T1


def _variants(data, dropout=True):
    """Every example runs the four variants, so each is drawn equally often."""
    for arch, mode in VARIANTS:
        spec = data.draw(specs(arch, mode, dropout), label=f"{arch}-{mode} spec")
        yield spec, *_case(spec, data)


def _chunk_kwargs(teacher, lo, hi):
    return {} if teacher is None else {"teacher": teacher[:, lo:hi]}


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_chunked_forward_with_carried_state_equals_monolithic(data):
    for spec, model, u, teacher, T1 in _variants(data):
        B, T, _ = u.shape
        # dropout draws fresh masks per call, so cached runs train only without it
        cached = data.draw(st.booleans(), label="return_cache")
        kw = dict(return_cache=True, training=spec.dropout == 0.0) if cached else {}
        y_mono = model.forward(u, model.initial_state(B), **_chunk_kwargs(teacher, 0, T),
                               **kw)[0]
        state = model.initial_state(B)
        parts = []
        for lo, hi in ((0, T1), (T1, T)):
            out = model.forward(u[:, lo:hi], state, **_chunk_kwargs(teacher, lo, hi), **kw)
            parts.append(out[0])
            state = out[1]
        np.testing.assert_allclose(np.concatenate(parts, axis=1), y_mono,
                                   rtol=1e-12, atol=1e-12, err_msg=str(spec))


def _assert_states_equal(a, b):
    for x, y in zip(a.gru_h or [], b.gru_h or [], strict=True):
        np.testing.assert_array_equal(x, y)
    assert (a.conv is None) == (b.conv is None)
    if a.conv is not None:
        for x, y in zip(a.conv.tails, b.conv.tails, strict=True):
            np.testing.assert_array_equal(x, y)
    assert (a.last_output is None) == (b.last_output is None)
    if a.last_output is not None:
        np.testing.assert_array_equal(a.last_output, b.last_output)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_training_path_matches_inference_path_bitwise(data):
    # for AR-TCN this compares a recording call with a plain one of the same
    # path, for NAR-TCN the cached stack with the two-buffer one: the
    # outputs and the final states must be identical
    for spec, model, u, teacher, T1 in _variants(data, dropout=False):
        B, T, _ = u.shape
        state_inf = state_train = model.initial_state(B)  # shared: neither may mutate it
        for lo, hi in ((0, T1), (T1, T)):
            kw = _chunk_kwargs(teacher, lo, hi)
            y_inf, state_inf = model.forward(u[:, lo:hi], state_inf, **kw)
            y_train, state_train, _ = model.forward(u[:, lo:hi], state_train, training=True,
                                                    return_cache=True, **kw)
            np.testing.assert_array_equal(y_train, y_inf, err_msg=str(spec))
            _assert_states_equal(state_train, state_inf)


@settings(max_examples=60, deadline=None)
@given(spec=specs(arch="tcn", mode="ar"), data=st.data())
def test_ar_tcn_matches_naive_full_history_recompute(spec, data):
    model, u, _, _ = _case(spec, data)
    B, T, _ = u.shape
    y, _ = model.forward(u, model.initial_state(B))
    twin = Model(spec=ModelSpec(arch="tcn", mode="nar", input_dim=spec.feed_dim,
                                hidden=spec.hidden, depth=spec.depth, kernel=spec.kernel,
                                residual=spec.residual), params=model.params)
    fb = np.concatenate([np.zeros((B, 1, 1)), y[:, :-1]], axis=1)
    y_naive, _ = twin.forward(np.concatenate([u, fb], axis=2))
    np.testing.assert_allclose(y, y_naive, rtol=1e-10, atol=1e-10)


# signaling NaNs (quiet bit clear), positive and negative, as bit patterns
_SNANS = list(np.array([0x7FF0000000000001, 0xFFF4000000000000], dtype=np.uint64)
              .view(np.float64))
_EDGE_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                2.2e-308, -2.2e-308, 709.78, -709.78, 745.2, -745.2, 800.0, -800.0,
                np.finfo(np.float64).max, -np.finfo(np.float64).max, *_SNANS]


def _assert_sigmoid_bitwise(x):
    # exp(-|x|) underflows to 0 beyond |x| ~ 708 in both forms, which is the
    # intended result; every other floating-point exception raises
    with np.errstate(all="raise", under="ignore"):
        got = nk.sigmoid(x)
        want = two_branch_sigmoid(x)
    assert got.dtype == np.float64 and got.shape == x.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(x=hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=9),
    elements=st.one_of(
        st.floats(width=64),  # NaN, infinities and subnormals included
        st.sampled_from(_EDGE_FLOATS),
        st.integers(0, 2 ** 64 - 1).map(lambda b: float(np.uint64(b).view(np.float64))),
    ),
))
def test_sigmoid_equals_two_branch_form_bitwise(x):
    _assert_sigmoid_bitwise(x)


@pytest.mark.parametrize("case", ["B1-H4", "B16-H4", "B1-H32", "B16-H32", "bits", "snan"])
def test_sigmoid_equals_two_branch_form_bitwise_at_gru_shapes(case):
    # the (B, 2H) gate pre-activations a GRU step passes, drawn from normal
    # values, random bit patterns and the edge floats; 100,000 random bit
    # patterns, so numpy's SIMD loops and their tails all run; the
    # signaling NaNs alone
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2 ** 64, size=100_000, dtype=np.uint64).view(np.float64)
    if case == "bits":
        _assert_sigmoid_bitwise(bits)
    elif case == "snan":
        _assert_sigmoid_bitwise(np.array(_SNANS))
    else:
        B, H = (int(v[1:]) for v in case.split("-"))
        pool = np.concatenate([10.0 * rng.standard_normal(1000), bits[:1000],
                               np.array(_EDGE_FLOATS)])
        for _ in range(20):
            _assert_sigmoid_bitwise(rng.choice(pool, size=(B, 2 * H)))
