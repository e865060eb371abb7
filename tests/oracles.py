"""Reference oracles the tests compare the package against.

Plain, unfused forms of what the models compute (affine maps, activations
with their analytic backwards, the two-branch logistic, one GRU step written
from its formula, the AR-GRU with its feedback concatenated step by step, the
masked MSE), a central
finite-difference gradient checker, and the median lookup of a timing table.
No program path runs them, so they live here rather than in the package.
This module holds no tests; pytest does not collect it.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from sidnn import data
from sidnn import numkit as nk
from sidnn.errors import DimensionError, ParameterError
from sidnn.inference import BenchTable
from sidnn.models import HiddenState, ModelSpec, ParamStore
from sidnn.training import masked_mse_grad

Array = np.ndarray


# ---------------------------------------------------------------------------
# affine and elementwise activations
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


def two_branch_sigmoid(x: Array) -> Array:
    """The masked two-branch logistic: 1/(1+exp(-x)) where x >= 0, else
    exp(x)/(1+exp(x)). nk.sigmoid must reproduce it bitwise."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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
    inputs = [nk.as_f64(x) for x in inputs]
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


# ---------------------------------------------------------------------------
# model pieces
# ---------------------------------------------------------------------------


def gru_cell(x_t: Array, h_prev: Array, params: ParamStore, layer: int = 0) -> Array:
    """Single GRU step from its formula, one matmul per gate and operand:
    z = sig(x Wz + h Uz + bz), r = sig(x Wr + h Ur + br),
    c = tanh(x Wh + (r*h) Uh + bh), h' = (1-z)*h + z*c."""
    def p(name):
        return params[f"gru.{layer}.{name}"]

    z = two_branch_sigmoid(x_t @ p("Wz") + h_prev @ p("Uz") + p("bz"))
    r = two_branch_sigmoid(x_t @ p("Wr") + h_prev @ p("Ur") + p("br"))
    c = np.tanh(x_t @ p("Wh") + (r * h_prev) @ p("Uh") + p("bh"))
    return (1.0 - z) * h_prev + z * c


def gru_ar_explicit(u: Array, state: HiddenState, params: ParamStore, spec: ModelSpec, *,
                    teacher: Array | None = None, training: bool = False, rng=None):
    """AR-GRU over one chunk with the feedback explicit at every step: the
    layer-0 input [u_t | fb], every layer's gru_cell, then the head, whose
    output is the next step's fb (or the teacher sample). Returns (y, final
    state). With dropout in training it draws one (B, H) keep mask per layer
    below the top from rng, as the model's forward does, so both see the
    same masks from equally seeded rngs."""
    T = u.shape[1]
    L = spec.depth
    masks = None
    if training and spec.dropout > 0.0 and L > 1:
        keep = 1.0 - spec.dropout
        masks = [(rng.random((u.shape[0], spec.hidden)) < keep) / keep for _ in range(L - 1)]
    w_y, b_y = params["head.W"], params["head.b"]
    hs = list(state.gru_h)
    fb = state.last_output
    ys = []
    for t in range(T):
        x = np.concatenate([u[:, t], fb], axis=1)
        for l in range(L):
            hs[l] = gru_cell(x, hs[l], params, l)
            x = hs[l] * masks[l] if masks and l < L - 1 else hs[l]
        ys.append(hs[-1] @ w_y + b_y)
        fb = ys[-1] if teacher is None else teacher[:, t]
    return np.stack(ys, axis=1), HiddenState(gru_h=hs, last_output=fb.copy())


def masked_mse(y_hat: Array, y: Array, skip: int = 0) -> float:
    """Mean squared error over the samples after each sequence's first `skip`."""
    loss, _ = masked_mse_grad(y_hat, y, skip)
    return loss


# ---------------------------------------------------------------------------
# synthetic Wiener-Hammerstein data
# ---------------------------------------------------------------------------


def second_order_filter(x: Array, b, a) -> Array:
    """The cascade's second-order filter from zero state, indexing numpy
    scalars one sample at a time."""
    y = np.zeros_like(x)
    for t in range(x.shape[0]):
        acc = b[0] * x[t]
        if t >= 1:
            acc += b[1] * x[t - 1] + a[0] * y[t - 1]
        if t >= 2:
            acc += b[2] * x[t - 2] + a[1] * y[t - 2]
        y[t] = acc
    return y


def synth_wiener_hammerstein_scalars(n: int, seed: int, noise_std: float) -> tuple[Array, Array]:
    """(u, y) of data.synth_wiener_hammerstein, each (n,), with every
    recursion on numpy scalars: the smoothed input, then
    G2(tanh(2 * G1(u))) plus the measurement noise."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(n)
    u = np.empty(n)
    prev = 0.0
    for t in range(n):
        prev = (1.0 - data._INPUT_SMOOTH) * w[t] + data._INPUT_SMOOTH * prev
        u[t] = prev
    x1 = second_order_filter(u, data._G1_B, data._G1_A)
    y = second_order_filter(np.tanh(2.0 * x1), data._G2_B, data._G2_A)
    if noise_std > 0.0:
        y = y + noise_std * rng.standard_normal(n)
    return u, y


# ---------------------------------------------------------------------------
# timing tables
# ---------------------------------------------------------------------------


def median_for(table: BenchTable, variant: str, mode: str, seq_len: int) -> float:
    for m in table.medians():
        if (m["variant"], m["mode"], m["seq_len"]) == (variant, mode, seq_len):
            return m["median_seconds"]
    raise KeyError((variant, mode, seq_len))
