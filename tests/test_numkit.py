import numpy as np
import pytest

from sidnn import numkit as nk
from sidnn.errors import DataError, DimensionError, ParameterError

import oracles


def test_affine_identity():
    x = np.array([[1.0, 2.0]])
    w = np.eye(2)
    b = np.zeros(2)
    np.testing.assert_array_equal(oracles.affine(x, w, b), [[1.0, 2.0]])


def test_affine_direct():
    x = np.array([[1.0, 1.0]])
    w = np.array([[2.0, 3.0], [4.0, 5.0]])
    b = np.array([1.0, 1.0])
    np.testing.assert_array_equal(oracles.affine(x, w, b), [[7.0, 9.0]])


def test_affine_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError) as exc:
        oracles.affine(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros(5))
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)


def _affine_op(x, w, b):
    out = oracles.affine(x, w, b)
    return out, lambda g: oracles.affine_backward(g, x, w)


def test_affine_backward_vs_finite_differences():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 4))
    w = rng.standard_normal((4, 2))
    b = rng.standard_normal(2)
    assert oracles.grad_check(_affine_op, [x, w, b]) < 1e-5


def test_conv_trivial_dilation_1():
    x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 4)
    k = np.array([1.0, 1.0]).reshape(1, 1, 2)
    out = nk.causal_conv1d(x, k, 1)
    np.testing.assert_array_equal(out.ravel(), [1.0, 3.0, 5.0, 7.0])


def test_conv_trivial_dilation_2():
    x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 4)
    k = np.array([1.0, 1.0]).reshape(1, 1, 2)
    out = nk.causal_conv1d(x, k, 2)
    np.testing.assert_array_equal(out.ravel(), [1.0, 2.0, 4.0, 6.0])


def test_conv_rejects_nonpositive_dilation():
    x = np.zeros((1, 1, 4))
    k = np.zeros((1, 1, 2))
    with pytest.raises(ParameterError):
        nk.causal_conv1d(x, k, 0)


def _conv_op(dilation):
    def op(x, k):
        out = nk.causal_conv1d(x, k, dilation)
        return out, lambda g: nk.causal_conv1d_backward(g, x, k, dilation)

    return op


@pytest.mark.parametrize("dilation", [1, 2, 4])
def test_conv_backward_vs_finite_differences(dilation):
    rng = np.random.default_rng(dilation)
    x = rng.standard_normal((2, 3, 12))
    k = rng.standard_normal((4, 3, 2))
    assert oracles.grad_check(_conv_op(dilation), [x, k]) < 1e-5


@pytest.mark.parametrize("width", [0, 1, 3, 8])
def test_conv_with_context_equals_the_tail_of_the_longer_conv(width):
    # ctx holds the inputs just before x: the oldest tap (4 steps back over 5
    # columns) reads it partly (width 1, 3), wholly (8), or reads zeros (0)
    rng = np.random.default_rng(width)
    full = rng.standard_normal((2, 3, width + 5))
    k = rng.standard_normal((4, 3, 3))
    ctx, x = full[:, :, :width], full[:, :, width:]
    want = nk.causal_conv1d(full, k, 2)[:, :, width:]
    np.testing.assert_allclose(nk.causal_conv1d(x, k, 2, ctx=ctx), want, rtol=1e-12, atol=1e-12)
    # the longer conv's backward with zero upstream over the context columns:
    # same kernel gradient, and dx is its input adjoint over x
    g = rng.standard_normal((2, 4, 5))
    want_dx, want_dk = nk.causal_conv1d_backward(
        np.concatenate([np.zeros((2, 4, width)), g], axis=2), full, k, 2)
    dx, dk = nk.causal_conv1d_backward(g, x, k, 2, ctx=ctx)
    np.testing.assert_allclose(dk, want_dk, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(dx, want_dx[:, :, width:], rtol=1e-12, atol=1e-12)
    with pytest.raises(DimensionError):
        nk.causal_conv1d(x, k, 2, ctx=ctx[:1])


@pytest.mark.parametrize("T", [3, 12])  # T 3: the oldest tap reaches before the start
def test_conv_into_given_buffers_equals_allocating_form(T):
    rng = np.random.default_rng(T)
    x = rng.standard_normal((2, 3, T))
    k = rng.standard_normal((4, 3, 3))
    g = rng.standard_normal((2, 4, T))
    out, scratch = np.full((2, 4, T), np.nan), np.full((2, 4, T), np.nan)
    got = nk.causal_conv1d(x, k, 2, out=out, scratch=scratch)
    assert got is out
    assert got.tobytes() == nk.causal_conv1d(x, k, 2).tobytes()
    dx_out, dx_scratch = np.full(x.shape, np.nan), np.full(x.shape, np.nan)
    dx, dk = nk.causal_conv1d_backward(g, x, k, 2, out=dx_out, scratch=dx_scratch)
    want_dx, want_dk = nk.causal_conv1d_backward(g, x, k, 2)
    assert dx is dx_out
    assert dx.tobytes() == want_dx.tobytes() and dk.tobytes() == want_dk.tobytes()
    with pytest.raises(DimensionError):
        nk.causal_conv1d(x, k, 2, out=np.empty((2, 4, T + 1)))
    with pytest.raises(DimensionError):
        nk.causal_conv1d_backward(g, x, k, 2, scratch=np.empty((2, 4, T)))


def test_conv_causality_under_perturbation():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1, 2, 16))
    k = rng.standard_normal((3, 2, 2))
    base = nk.causal_conv1d(x, k, 2)
    for t in range(16):
        xp = x.copy()
        xp[0, 0, t] += 1.0
        out = nk.causal_conv1d(xp, k, 2)
        np.testing.assert_array_equal(out[:, :, :t], base[:, :, :t])
        assert np.any(out[:, :, t:] != base[:, :, t:])


def test_affine_and_conv_linearity():
    rng = np.random.default_rng(3)
    x1 = rng.standard_normal((2, 3))
    x2 = rng.standard_normal((2, 3))
    w = rng.standard_normal((3, 4))
    b = np.zeros(4)
    lhs = oracles.affine(2.0 * x1 + 3.0 * x2, w, b)
    rhs = 2.0 * oracles.affine(x1, w, b) + 3.0 * oracles.affine(x2, w, b)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    c1 = rng.standard_normal((1, 2, 10))
    c2 = rng.standard_normal((1, 2, 10))
    k = rng.standard_normal((2, 2, 2))
    lhs = nk.causal_conv1d(2.0 * c1 + 3.0 * c2, k, 2)
    rhs = 2.0 * nk.causal_conv1d(c1, k, 2) + 3.0 * nk.causal_conv1d(c2, k, 2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_operand_constants_are_read_only_scalars():
    for const, value in ((nk.ZERO, 0.0), (nk.HALF, 0.5), (nk.ONE, 1.0)):
        assert const.shape == () and const.dtype == np.float64 and const == value
        assert not const.flags.writeable


def test_activation_fixed_points():
    assert nk.sigmoid(np.array([0.0]))[0] == 0.5
    assert oracles.tanh(np.array([0.0]))[0] == 0.0
    assert oracles.relu(np.array([-3.0]))[0] == 0.0
    assert oracles.relu(np.array([-0.0]))[0] == 0.0


def test_sigmoid_stable_at_extremes():
    out = nk.sigmoid(np.array([-800.0, 800.0]))
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("name", ["sigmoid", "tanh", "relu"])
def test_activation_backward_vs_finite_differences(name):
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 5)) * 2.0

    if name == "sigmoid":
        def op(x):
            out = nk.sigmoid(x)
            return out, lambda g: (oracles.sigmoid_backward(g, out),)
    elif name == "tanh":
        def op(x):
            out = oracles.tanh(x)
            return out, lambda g: (oracles.tanh_backward(g, out),)
    else:
        x = x + 0.05  # keep clear of the kink where FD is invalid
        def op(x):
            return oracles.relu(x), lambda g: (oracles.relu_backward(g, x),)

    assert oracles.grad_check(op, [x]) < 1e-5


def test_grad_check_identity_is_exact():
    def identity(x):
        return x, lambda g: (g,)

    x = np.random.default_rng(5).standard_normal((4, 4))
    assert oracles.grad_check(identity, [x]) < 1e-9


def test_grad_check_rejects_bad_eps():
    def identity(x):
        return x, lambda g: (g,)

    with pytest.raises(ParameterError):
        oracles.grad_check(identity, [np.zeros(2)], eps=0.0)


def test_gradients_on_randomized_shapes():
    rng = np.random.default_rng(6)
    for trial in range(5):
        b = int(rng.integers(1, 4))
        c = int(rng.integers(1, 8))
        t = int(rng.integers(8, 64))
        x = rng.standard_normal((b, c, t))
        k = rng.standard_normal((int(rng.integers(1, 8)), c, 2))
        d = int(rng.integers(1, 5))
        assert oracles.grad_check(_conv_op(d), [x, k], rng=rng) < 1e-5


def test_check_finite():
    nk.check_finite("ok", np.ones(3))
    with pytest.raises(DataError):
        nk.check_finite("bad", np.array([1.0, np.nan]))
    with pytest.raises(DataError):
        nk.check_finite("bad", np.array([1.0, np.inf]))
