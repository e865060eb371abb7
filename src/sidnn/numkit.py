"""Dense float64 numerics shared by the models.

Every tensor is a C-contiguous float64 ndarray with an explicit shape; there
is no autodiff graph. The dilated causal convolution ships its analytic
backward. The GRU gates take the logistic as a tanh, sigma(a) = 1/2 +
tanh(a/2)/2, in `models`; `sigmoid` here is the two-branch form, kept for
the benchmark's call counter and its bitwise tests.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, DimensionError, ParameterError

Array = np.ndarray

# read-only 0-d operands: numpy dispatches them faster than Python floats
ZERO = np.zeros(())
HALF = np.full((), 0.5)
ONE = np.ones(())
ZERO.flags.writeable = HALF.flags.writeable = ONE.flags.writeable = False


def as_f64(values) -> Array:
    """Materialize anything array-like as a C-contiguous float64 array."""
    return np.ascontiguousarray(np.asarray(values, dtype=np.float64))


def check_finite(name: str, a: Array) -> Array:
    """Explicit NaN/Inf gate; non-finite values never fail silently."""
    if not np.all(np.isfinite(a)):
        raise DataError(f"non-finite values in '{name}'")
    return a


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


def causal_conv1d(x: Array, k: Array, dilation: int, *, ctx: Array | None = None,
                  out: Array | None = None, scratch: Array | None = None) -> Array:
    """Left-zero-padded dilated convolution over the last axis.

    x (B, C_in, T), k (C_out, C_in, K). Output at time t reads inputs at
    t - dilation*(K-1-j) for tap j, so it depends on times <= t only. ctx
    (B, C_in, N), when given, holds the N inputs just before x: taps that
    reach before x read it, and only those reaching before ctx read zeros.
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
    if ctx is not None and ctx.shape[:2] != x.shape[:2]:
        raise DimensionError(f"conv context {ctx.shape} does not precede x {x.shape}")
    if k.shape[2] < 1:
        raise ParameterError("kernel must have at least one tap")
    B, _, T = x.shape
    c_out, _, K = k.shape
    width = 0 if ctx is None else ctx.shape[2]
    out = _buffer(out, (B, c_out, T), "conv output")
    first = True
    for j in range(K):
        shift = dilation * (K - 1 - j)
        lo = shift - width if shift > width else 0  # the first column the tap reaches
        if lo >= T:
            continue
        if first:
            out[:, :, :lo] = 0.0
            dst = out[:, :, lo:]
        else:
            scratch = _buffer(scratch, (B, c_out, T), "conv scratch")
            dst = scratch[:, :, lo:]
        if lo < shift:  # columns lo..min(shift, T)-1 read ctx
            c0 = width - shift + lo
            m = (shift if shift < T else T) - lo
            np.matmul(k[:, :, j], ctx[:, :, c0 : c0 + m], out=dst[:, :, :m])
            if shift < T:
                np.matmul(k[:, :, j], x[:, :, : T - shift], out=dst[:, :, m:])
        else:
            np.matmul(k[:, :, j], x[:, :, : T - shift], out=dst)
        if first:
            first = False
        else:
            out[:, :, lo:] += dst
    return out


def causal_conv1d_backward(
    g: Array, x: Array, k: Array, dilation: int, *, ctx: Array | None = None,
    out: Array | None = None, scratch: Array | None = None,
) -> tuple[Array, Array]:
    """Returns (dx, dk) for causal_conv1d given upstream g (B, C_out, T).

    dk includes the taps that read ctx; the adjoint of ctx is not formed.
    dx goes to out (B, C_in, T) when given; every tap after the first goes
    through scratch (B, C_in, T). Either is allocated when not given.
    """
    T = x.shape[2]
    K = k.shape[2]
    width = 0 if ctx is None else ctx.shape[2]
    dx = _buffer(out, x.shape, "conv input adjoint")
    dk = np.zeros_like(k)
    first = True
    for j in range(K):
        shift = dilation * (K - 1 - j)
        lo = shift - width if shift > width else 0
        if lo < shift and lo < T:  # columns lo..min(shift, T)-1 read ctx
            c0 = width - shift + lo
            m = (shift if shift < T else T) - lo
            dk[:, :, j] += np.matmul(g[:, :, lo : lo + m],
                                     ctx[:, :, c0 : c0 + m].transpose(0, 2, 1)).sum(axis=0)
        if shift >= T:
            continue
        g_part = g[:, :, shift:] if shift else g
        x_part = x[:, :, : T - shift] if shift else x
        dk[:, :, j] += np.matmul(g_part, x_part.transpose(0, 2, 1)).sum(axis=0)
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
# logistic
# ---------------------------------------------------------------------------


def sigmoid(x: Array) -> Array:
    """Numerically stable logistic; sigmoid(0) == 0.5.

    Bit for bit the two-branch form 1/(1+exp(-x)) for x >= 0 and
    exp(x)/(1+exp(x)) for x < 0, NaN payloads included, without masks or
    branches. With e = exp(min(x, -x)), which is exp(-|x|) and passes a NaN
    through with its sign, the denominator is e + 1 in both branches. The
    numerator is exp(min(x, 0)): exp(0) == 1 exactly for x >= 0, and for
    x < 0 (or NaN) it is exp(x), the same operation on the same operand as
    e. No exp argument is ever positive, so nothing overflows.

    The program no longer calls it: the GRU step forms its gates with one
    tanh (`models._gru_step`).
    """
    e = np.exp(np.minimum(x, -x))
    return np.exp(np.minimum(x, ZERO)) / (e + ONE)
