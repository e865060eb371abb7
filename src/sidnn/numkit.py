"""Dense float64 numerics with hand-written forward and backward passes.

Every tensor is a C-contiguous float64 ndarray with an explicit shape; there
is no broadcasting and no autodiff graph. Each primitive ships an analytic
backward, and ``grad_check`` validates any (forward, vjp) pair against
central finite differences.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import DataError, DimensionError, ParameterError

Array = np.ndarray


def as_f64(values) -> Array:
    """Materialize anything array-like as a C-contiguous float64 array."""
    return np.ascontiguousarray(np.asarray(values, dtype=np.float64))


def check_finite(name: str, a: Array) -> Array:
    """Explicit NaN/Inf gate; non-finite values never fail silently."""
    if not np.all(np.isfinite(a)):
        raise DataError(f"non-finite values in '{name}'")
    return a


# ---------------------------------------------------------------------------
# affine
# ---------------------------------------------------------------------------


def affine(x: Array, w: Array, b: Array) -> Array:
    """out[n,o] = sum_i x[n,i]*w[i,o] + b[o]; x (N,I), w (I,O), b (O,)."""
    if x.ndim != 2 or w.ndim != 2 or b.ndim != 1:
        raise DimensionError(
            f"affine expects 2-d x, 2-d w, 1-d b; got {x.shape}, {w.shape}, {b.shape}"
        )
    if x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise DimensionError(f"affine shape mismatch: x {x.shape} vs w {w.shape}")
    return x @ w + b


def affine_backward(g: Array, x: Array, w: Array) -> tuple[Array, Array, Array]:
    """Returns (dx, dw, db) for out = x @ w + b given upstream g (N,O)."""
    return g @ w.T, x.T @ g, g.sum(axis=0)


# ---------------------------------------------------------------------------
# dilated causal convolution
# ---------------------------------------------------------------------------


def _buffer(buf: Array | None, shape: tuple, name: str) -> Array:
    """buf when it has the given shape; a fresh array when buf is None."""
    if buf is None:
        return np.empty(shape)
    if buf.shape != shape:
        raise DimensionError(f"{name} has shape {buf.shape}, expected {shape}")
    return buf


def causal_conv1d(x: Array, k: Array, dilation: int, *, out: Array | None = None,
                  scratch: Array | None = None) -> Array:
    """Left-zero-padded dilated convolution over the last axis.

    x (B, C_in, T), k (C_out, C_in, K). Output at time t reads inputs at
    t - dilation*(K-1-j) for tap j, so it depends on times <= t only.
    The result goes to out (B, C_out, T) when given; every tap after the
    first goes through scratch (B, C_out, T). Either is allocated when not
    given. Taps are summed oldest first.
    """
    if dilation < 1:
        raise ParameterError(f"dilation must be >= 1, got {dilation}")
    if x.ndim != 3 or k.ndim != 3:
        raise DimensionError(f"conv expects 3-d x and k; got {x.shape}, {k.shape}")
    if x.shape[1] != k.shape[1]:
        raise DimensionError(
            f"conv channel mismatch: x {x.shape} vs kernel {k.shape}"
        )
    if k.shape[2] < 1:
        raise ParameterError("kernel must have at least one tap")
    B, _, T = x.shape
    c_out, _, K = k.shape
    out = _buffer(out, (B, c_out, T), "conv output")
    first = True
    for j in range(K):
        shift = dilation * (K - 1 - j)
        if shift >= T:
            continue
        dst = out[:, :, shift:]
        if first:
            out[:, :, :shift] = 0.0
            np.matmul(k[:, :, j], x[:, :, : T - shift], out=dst)
            first = False
        else:
            scratch = _buffer(scratch, (B, c_out, T), "conv scratch")
            dst += np.matmul(k[:, :, j], x[:, :, : T - shift], out=scratch[:, :, : T - shift])
    return out


def causal_conv1d_backward(
    g: Array, x: Array, k: Array, dilation: int, *, out: Array | None = None,
    scratch: Array | None = None,
) -> tuple[Array, Array]:
    """Returns (dx, dk) for causal_conv1d given upstream g (B, C_out, T).

    dx goes to out (B, C_in, T) when given; every tap after the first goes
    through scratch (B, C_in, T). Either is allocated when not given.
    """
    T = x.shape[2]
    K = k.shape[2]
    dx = _buffer(out, x.shape, "conv input adjoint")
    dk = np.zeros_like(k)
    first = True
    for j in range(K):
        shift = dilation * (K - 1 - j)
        if shift >= T:
            continue
        g_part = g[:, :, shift:] if shift else g
        x_part = x[:, :, : T - shift] if shift else x
        dk[:, :, j] = np.matmul(g_part, x_part.transpose(0, 2, 1)).sum(axis=0)
        dst = dx[:, :, : T - shift]
        if first:
            dx[:, :, T - shift :] = 0.0
            np.matmul(k[:, :, j].T, g_part, out=dst)
            first = False
        else:
            scratch = _buffer(scratch, x.shape, "conv scratch")
            dst += np.matmul(k[:, :, j].T, g_part, out=scratch[:, :, : T - shift])
    return dx, dk


# ---------------------------------------------------------------------------
# elementwise activations
# ---------------------------------------------------------------------------


def sigmoid(x: Array) -> Array:
    """Numerically stable logistic; sigmoid(0) == 0.5.

    Bit for bit the two-branch form 1/(1+exp(-x)) for x >= 0 and
    exp(x)/(1+exp(x)) for x < 0, NaN payloads included: with e = exp(-|x|)
    each branch performs the same IEEE operations on the same operands,
    without boolean masks. min(x, -x) is -|x| that passes a NaN through
    with its sign. The exp argument is never positive, so it never overflows.
    """
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid_backward(g: Array, out: Array) -> Array:
    return g * out * (1.0 - out)


def tanh(x: Array) -> Array:
    return np.tanh(x)


def tanh_backward(g: Array, out: Array) -> Array:
    return g * (1.0 - out * out)


def relu(x: Array) -> Array:
    return np.maximum(x, 0.0)


def relu_backward(g: Array, x: Array) -> Array:
    return g * (x > 0.0)


# ---------------------------------------------------------------------------
# finite-difference gradient checking
# ---------------------------------------------------------------------------


def grad_check(
    f: Callable[..., tuple[Array, Callable[[Array], Sequence[Array]]]],
    inputs: Sequence[Array],
    eps: float = 1e-5,
    rng: np.random.Generator | None = None,
) -> float:
    """Worst-case relative error between analytic and central-difference grads.

    ``f(*inputs)`` must return ``(output, vjp)`` where ``vjp(g)`` yields one
    gradient per input. The scalar probe is L = sum(output * g) for a fixed
    random cotangent g; the relative error of element a vs numeric n is
    |a - n| / max(|a|, |n|, 1), so near-zero gradients are compared at an
    absolute scale of eps per unit.
    """
    if eps <= 0:
        raise ParameterError(f"eps must be > 0, got {eps}")
    if rng is None:
        rng = np.random.default_rng(0)
    inputs = [as_f64(x) for x in inputs]
    out, vjp = f(*inputs)
    g = rng.standard_normal(out.shape)
    analytic = vjp(g)
    worst = 0.0
    for x, ga in zip(inputs, analytic):
        flat = x.reshape(-1)
        ga_flat = np.asarray(ga).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            l_plus = float(np.sum(f(*inputs)[0] * g))
            flat[i] = orig - eps
            l_minus = float(np.sum(f(*inputs)[0] * g))
            flat[i] = orig
            numeric = (l_plus - l_minus) / (2.0 * eps)
            a = float(ga_flat[i])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1.0)
            worst = max(worst, err)
    return worst
