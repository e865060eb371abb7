"""GRU and TCN sequence models in autoregressive (AR) and non-autoregressive
(NAR) configurations, with hand-written backpropagation through time.

Conventions:
    * sequences are (batch, time, channels); convolutions run channels-first
    * models operate in standardized signal space; the AR feedback input is
      the model's own previous standardized output (zero for a fresh
      sequence, i.e. the standardized mean)
    * parameter names: "gru.{l}.Wz", "gru.{l}.Uz", "gru.{l}.bz" (likewise
      r/h gates), "tcn.{l}.kernel", "tcn.{l}.bias", "tcn.{l}.proj",
      "head.W", "head.b"

Each architecture has one forward and one backward for both modes: an AR
model is the NAR model with its previous output fed back as extra input
channels, so gradients flow through the feedback path inside a chunk;
truncation happens only at chunk boundaries (the carried state is plain
values). `Model.forward` and `Model.backward` are the only entry for a chunk.
The forward checks the input, the teacher and the carried state against the
model's spec and batch (`HiddenState.check`) and starts a fresh state when
none is given. For an AR model given a teacher it builds the known layer-0
input [u_t | y_{t-1}], y_{-1} being the carried last output, and carries the
teacher's last sample on; both architectures take this one route. The cores
tell a known input from a free-running one by its width: feed_dim columns
are all known (NAR, teacher-forced AR), input_dim < feed_dim leaves the
feedback to the model's own output. Each cache records its input's shape,
which the backward checks g_y against and dispatches on.

The GRU runs one recurrence for both modes (NAR carries a zero-width
feedback). Every GRU chunk computes its layer-0 input projection in one
matmul; free-running AR adds its feedback per step as the top layer's
previous state times F = head.W @ W0_fb (W0_fb: the feedback rows of the
layer-0 input weights), and the head runs once per chunk. The backward reads
the fed-back outputs from the cache and is unchanged by the fold; with the
input known it forms the head adjoint once per chunk. A GRU step forms both
gates with one tanh, as sig(a) = 1/2 + tanh(a/2)/2 on z/r weight columns
halved once per chunk; a cached forward then forms the backward's per-step
factors for the whole chunk at once, so a backward step is a few multiplies
and two matmuls. Both TCN modes carry the same state, each layer's
last (kernel-1)*2**l inputs as a plain tail, oldest first (`ConvCache`). A
TCN whose input is known (NAR; AR given a teacher, over [u_t | y_{t-1}];
`conv_cache_step` streaming a sample) convolves the chunk layer by layer into
reused buffers, each layer after its tail, so a chunk costs O(depth*T) however
long the history; its cache keeps each layer's tail and input and a bool
pre-activation sign mask, and a forward without a cache keeps nothing. Only
the free-running AR-TCN steps: it writes each layer's outputs, one step at a
time, into a dense array that begins with the layer above's tail. Layer l's
past taps are at least 2**l samples old, so they are summed once per
2**l-sample block with one matmul per tap; a step costs one current-tap
matmul per layer, and the backward mirrors this. Above layer 0 an identity
skip is folded into the current tap as w_now + I, once per chunk, so a step
accumulates q = pre + v and outputs max(q, v): three numpy calls per layer,
every product through np.dot into a buffer allocated once per chunk. Its
cached mask is q > v, which keeps pre > 0's rule that a zero pre-activation
sends the adjoint through the skip only. Layer 0 and the head are folded
together (`_tcn_fold`): layer 0's output is max(q, s) with s its skip (I, the
projection or 0) and q = pre + s; the known share of [q | s] (bias, the u
taps, head.b's share of the feedback, the carried context) is convolved once
per chunk, and a step adds one product, a window of the last kernel top
outputs times G = head.W @ (the feedback rows of layer 0's taps), then takes
max(q, s). The head runs once after the loop. So layer 0 and the head cost
three numpy calls per step, down from nine; the backward's layer 0 costs
five, down from about ten, with the head's gradients formed per chunk.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import numkit as nk
from .errors import (
    DimensionError,
    InputError,
    ParameterError,
    StateError,
    UsageError,
)
from .numkit import HALF, ONE, ZERO

Array = np.ndarray

ARCHS = ("gru", "tcn")
MODES = ("ar", "nar")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture hyperparameters for one network."""

    arch: str
    mode: str
    input_dim: int
    hidden: int
    depth: int
    kernel: int = 2
    residual: bool = True
    output_dim: int = 1
    dropout: float = 0.0

    def __post_init__(self) -> None:
        if self.arch not in ARCHS:
            raise ParameterError(f"arch must be one of {ARCHS}, got {self.arch!r}")
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.depth < 1 or self.hidden < 1:
            raise ParameterError("depth and hidden must be >= 1")
        if self.input_dim < 1 or self.output_dim < 1:
            raise ParameterError("input_dim and output_dim must be >= 1")
        if self.kernel < 1:
            raise ParameterError("kernel must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ParameterError("dropout must be in [0, 1)")
        if self.dropout > 0.0 and self.arch != "gru":
            raise ParameterError("dropout is only supported between GRU layers")

    @property
    def feed_dim(self) -> int:
        """Width of the network input: AR mode appends the fed-back output."""
        return self.input_dim + (self.output_dim if self.mode == "ar" else 0)


def type_problems(values: dict, types: dict) -> list[str]:
    """One message per key of values whose value is not of its types entry
    (a type or tuple); keys missing from types are skipped. A bool is no
    int, and an int is a valid float."""
    problems = []
    for key, value in values.items():
        if key not in types:
            continue
        kinds = types[key] if isinstance(types[key], tuple) else (types[key],)
        if isinstance(value, bool):
            ok = bool in kinds
        else:
            ok = isinstance(value, kinds) or (float in kinds and isinstance(value, int))
        if not ok:
            names = "/".join("null" if k is type(None) else k.__name__ for k in kinds)
            problems.append(f"{key} must be {names}, got {type(value).__name__}")
    return problems


def range_problems(values: dict, lows: dict) -> list[str]:
    """One message per key of values whose number is not above its lows entry
    (">", low) or not at least it (">=", low). Keys missing from lows and
    values that are not numbers (None, bools, mistyped) are skipped."""
    problems = []
    for key, value in values.items():
        if key not in lows or isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        op, low = lows[key]
        if not (value > low if op == ">" else value >= low):
            problems.append(f"{key} must be {op} {low}, got {value}")
    return problems


SPEC_TYPES = {f.name: {"int": int, "str": str, "bool": bool, "float": float}[f.type]
              for f in fields(ModelSpec)}


def receptive_field(depth: int, kernel: int = 2) -> int:
    """Warm-up sample count of a dilated causal stack: (kernel-1)*(2**depth - 1).

    This is the look-back one output reads (the left pad of the stack,
    excluding the current sample), and the total length of the TCN's
    carried tails once that many samples have run; it is the length used for loss masking and
    minimum-sequence checks.
    """
    if depth < 1:
        raise ParameterError(f"depth must be >= 1, got {depth}")
    if kernel < 1:
        raise ParameterError(f"kernel must be >= 1, got {kernel}")
    return (kernel - 1) * (2 ** depth - 1)


class ParamStore(dict):
    """Ordered map of parameter name -> float64 array; copy() is deep."""

    def __init__(self, arrays: dict[str, Array]):
        super().__init__((name, nk.as_f64(a)) for name, a in arrays.items())

    def names(self) -> list[str]:
        return list(self)

    def copy(self) -> "ParamStore":
        return ParamStore({k: v.copy() for k, v in self.items()})

    def zeros_like(self) -> dict[str, Array]:
        return {k: np.zeros_like(v) for k, v in self.items()}

    def validate_for(self, spec: ModelSpec) -> None:
        """Check names and shapes against the spec-derived shape table."""
        expected = param_shapes(spec)
        if set(self) != set(expected):
            missing = sorted(set(expected) - set(self))
            extra = sorted(set(self) - set(expected))
            raise DimensionError(f"parameter names mismatch: missing={missing} extra={extra}")
        for name, shape in expected.items():
            if self[name].shape != shape:
                raise DimensionError(
                    f"parameter '{name}' has shape {self[name].shape}, expected {shape}"
                )


def param_shapes(spec: ModelSpec) -> dict[str, tuple[int, ...]]:
    """Canonical name -> shape table for one ModelSpec."""
    shapes: dict[str, tuple[int, ...]] = {}
    H = spec.hidden
    if spec.arch == "gru":
        for l in range(spec.depth):
            in_dim = spec.feed_dim if l == 0 else H
            for gate in ("z", "r", "h"):
                shapes[f"gru.{l}.W{gate}"] = (in_dim, H)
                shapes[f"gru.{l}.U{gate}"] = (H, H)
                shapes[f"gru.{l}.b{gate}"] = (H,)
    else:
        for l in range(spec.depth):
            c_in = spec.feed_dim if l == 0 else H
            shapes[f"tcn.{l}.kernel"] = (H, c_in, spec.kernel)
            shapes[f"tcn.{l}.bias"] = (H,)
            if spec.residual and c_in != H:
                shapes[f"tcn.{l}.proj"] = (H, c_in, 1)
    shapes["head.W"] = (H, spec.output_dim)
    shapes["head.b"] = (spec.output_dim,)
    return shapes


def init_params(spec: ModelSpec, seed: int) -> ParamStore:
    """Uniform(-s, s) weights with s = 1/sqrt(fan_in); zero biases."""
    rng = np.random.default_rng(seed)
    arrays: dict[str, Array] = {}
    for name, shape in param_shapes(spec).items():
        kind = name.rsplit(".", 1)[-1]
        if kind.startswith("b"):
            arrays[name] = np.zeros(shape)
            continue
        if kind == "kernel" or kind == "proj":
            fan_in = shape[1] * shape[2]
        else:  # W*, U*, head.W: (in, out)
            fan_in = shape[0]
        s = 1.0 / np.sqrt(fan_in)
        arrays[name] = rng.uniform(-s, s, size=shape)
    return ParamStore(arrays)


# ---------------------------------------------------------------------------
# hidden state
# ---------------------------------------------------------------------------


@dataclass
class ConvCache:
    """Per-layer input tails: the carried state of a TCN in either mode.

    tails[l] holds layer l's inputs of the last min(samples so far,
    (kernel-1)*2**l) samples, oldest first, as (n, B, C_in); a fresh cache
    holds empty tails, and samples before the sequence start read as zeros.
    The convolution, the AR step and streaming hand the same state on. The
    cache is state only: the weights are passed to each call, and a chunk
    checks the tails against its model's spec, not against the cache's own
    (which `conv_cache_step` reads).
    """

    spec: ModelSpec
    tails: list[Array]

    @classmethod
    def init(cls, spec: ModelSpec, batch: int) -> "ConvCache":
        return cls(spec=spec, tails=[np.empty((0, batch, spec.feed_dim if l == 0 else spec.hidden))
                                     for l in range(spec.depth)])

    def check(self, spec: ModelSpec, batch: int) -> None:
        """Raise StateError unless there is one tail per layer of spec, each
        of spec's width and batch and no longer than its layer's window."""
        if len(self.tails) != spec.depth:
            raise StateError(f"cache holds {len(self.tails)} layer tails, expected {spec.depth}")
        for l, tail in enumerate(self.tails):
            n, c_in = (spec.kernel - 1) * 2 ** l, spec.feed_dim if l == 0 else spec.hidden
            if tail.ndim != 3 or tail.shape[1:] != (batch, c_in) or len(tail) > n:
                raise StateError(
                    f"layer {l} tail has shape {tail.shape}, expected (<= {n}, {batch}, {c_in})"
                )


def _tail_after(tail: Array, rows: Array, n: int) -> Array:
    """A layer's tail after rows (T, B, C_in), its inputs of the T samples
    after tail: the last n rows of tail + rows, as a new array."""
    keep = n - len(rows)  # rows of the old tail kept
    if keep <= 0:
        return rows[-keep:].copy()
    return np.concatenate([tail[-keep:], rows])


@dataclass
class HiddenState:
    """Carried state for chunked processing.

    gru_h: per-layer hidden (B, H); conv: TCN per-layer input tails;
    last_output: the most recent standardized output (AR modes).
    """

    gru_h: list[Array] | None = None
    conv: ConvCache | None = None
    last_output: Array | None = None

    def check(self, spec: ModelSpec, batch: int) -> None:
        """Raise StateError unless the state carries what spec's architecture
        and mode need (gru_h or conv; last_output in AR), each array fitting
        spec and batch; a field spec does not read is ignored."""
        if spec.arch == "gru":
            if self.gru_h is None:
                raise StateError("GRU forward needs state.gru_h")
            if len(self.gru_h) != spec.depth:
                raise StateError(
                    f"state holds {len(self.gru_h)} GRU layers, expected {spec.depth}")
            for l, h in enumerate(self.gru_h):
                if np.shape(h) != (batch, spec.hidden):
                    raise StateError(f"layer {l} GRU state has shape {np.shape(h)}, "
                                     f"expected {(batch, spec.hidden)}")
        elif self.conv is None:
            raise StateError("TCN forward needs state.conv tails")
        else:
            self.conv.check(spec, batch)
        if spec.mode == "ar":
            if self.last_output is None:
                raise StateError("AR forward needs state.last_output "
                                 "(zero for a fresh sequence)")
            if np.shape(self.last_output) != (batch, spec.output_dim):
                raise StateError(f"state.last_output has shape {np.shape(self.last_output)}, "
                                 f"expected {(batch, spec.output_dim)}")


def initial_state(spec: ModelSpec, batch: int) -> HiddenState:
    """Zero state for a fresh sequence."""
    state = HiddenState()
    if spec.arch == "gru":
        state.gru_h = [np.zeros((batch, spec.hidden)) for _ in range(spec.depth)]
    else:
        state.conv = ConvCache.init(spec, batch)
    if spec.mode == "ar":
        state.last_output = np.zeros((batch, spec.output_dim))
    return state


# ---------------------------------------------------------------------------
# GRU
# ---------------------------------------------------------------------------


def _gru_layer_mats(params: ParamStore, l: int):
    """Concatenated gate matrices for layer l: one matmul per projection."""
    Wz, Wr, Wh = params[f"gru.{l}.Wz"], params[f"gru.{l}.Wr"], params[f"gru.{l}.Wh"]
    Uz, Ur, Uh = params[f"gru.{l}.Uz"], params[f"gru.{l}.Ur"], params[f"gru.{l}.Uh"]
    bz, br, bh = params[f"gru.{l}.bz"], params[f"gru.{l}.br"], params[f"gru.{l}.bh"]
    w_cat = np.concatenate([Wz, Wr, Wh], axis=1)  # (in, 3H)
    b_cat = np.concatenate([bz, br, bh])
    u_zr = np.concatenate([Uz, Ur], axis=1)  # (H, 2H)
    return w_cat, b_cat, u_zr, Uh


def _halved_zr(mats, H: int):
    """Layer matrices with the z/r columns halved, as `_gru_step` reads
    them; halving is exact, and the given matrices are not written."""
    w_cat, b_cat, u_zr, u_h = mats
    w, b = w_cat.copy(), b_cat.copy()
    w[:, : 2 * H] *= HALF
    b[: 2 * H] *= HALF
    return w, b, u_zr * HALF, u_h


def _gru_step(p_zr: Array, p_h: Array, h: Array, u_zr: Array, u_h: Array, H: int,
              h_out: Array, c_out: Array | None = None):
    """One gated update from precomputed input projections; returns (z, r).

    The gates are logistic in tanh form, sig(a) = 1/2 + tanh(a/2)/2, with
    the halving folded into the weights: p_zr is x @ [Wz|Wr]/2 + [bz|br]/2
    (B, 2H), u_zr is [Uz|Ur]/2, and p_h is x @ Wh + bh (B, H), views the
    caller splits once per chunk (layer 0) or per step (above). z, r =
    tanh(p_zr + h @ u_zr)/2 + 1/2, c = tanh(p_h + (r*h) @ Uh), h' =
    h + z*(c - h). h' goes to h_out, which must not alias h, and c to c_out
    when given. z and r lie in [0, 1] for any pre-activation, infinities
    included, and a step makes two tanh calls and no Python-float operand:
    each numpy call costs more in dispatch than in arithmetic at these sizes.
    """
    zr = p_zr + h @ u_zr
    np.tanh(zr, out=zr)
    zr *= HALF
    zr += HALF
    z = zr[:, :H]
    r = zr[:, H:]
    c = np.tanh(p_h + (r * h) @ u_h, out=c_out)
    np.subtract(c, h, out=h_out)
    h_out *= z
    h_out += h
    return z, r


def _dropout_masks(spec: ModelSpec, batch: int, training: bool, rng):
    if not training or spec.dropout == 0.0 or spec.depth < 2:
        return None
    if rng is None:
        raise UsageError("dropout requires an rng during training")
    keep = 1.0 - spec.dropout
    return [
        (rng.random((batch, spec.hidden)) < keep).astype(np.float64) / keep
        for _ in range(spec.depth - 1)
    ]


def _gru_weight_grads(cache, GA, HP):
    """Stacked-matmul weight/bias gradients from per-step gate adjoints.

    HP[l] holds layer l's previous states (T, B, H).
    """
    spec = cache["spec"]
    Hs, Rs = cache["H"], cache["R"]
    masks = cache["masks"]
    B, T, _ = cache["shape"]
    H = spec.hidden
    grads: dict[str, Array] = {}
    for l in range(spec.depth):
        if l == 0:
            # the layer-0 input is u plus the fed-back outputs (none in NAR)
            x_stack = cache["X0"].reshape(T * B, -1)
        else:
            below = Hs[l - 1]
            x = below * masks[l - 1] if masks else below
            x_stack = x.reshape(T * B, H)
        ga = GA[l].reshape(T * B, 3 * H)
        gw = x_stack.T @ ga
        h_prev_flat = HP[l].reshape(T * B, H)
        gu_zr = h_prev_flat.T @ ga[:, : 2 * H]
        rh_flat = (Rs[l] * HP[l]).reshape(T * B, H)
        gu_h = rh_flat.T @ ga[:, 2 * H :]
        gb = ga.sum(axis=0)
        grads[f"gru.{l}.Wz"] = gw[:, :H]
        grads[f"gru.{l}.Wr"] = gw[:, H : 2 * H]
        grads[f"gru.{l}.Wh"] = gw[:, 2 * H :]
        grads[f"gru.{l}.Uz"] = gu_zr[:, :H]
        grads[f"gru.{l}.Ur"] = gu_zr[:, H:]
        grads[f"gru.{l}.Uh"] = gu_h
        grads[f"gru.{l}.bz"] = gb[:H]
        grads[f"gru.{l}.br"] = gb[H : 2 * H]
        grads[f"gru.{l}.bh"] = gb[2 * H :]
    return grads


def _gru_forward(u: Array, state: HiddenState, params: ParamStore, spec: ModelSpec,
                 training: bool, rng, record: bool):
    """Stacked GRU over one chunk; returns (y, final state, cache or None).

    u is the layer-0 input: all feed_dim columns when known (NAR; AR given a
    teacher, as `Model.forward` builds it), or the input_dim columns of u_t
    when AR runs free, its layer-0 input at t being concat(u_t, fb) with fb
    its own previous standardized output. A known input's layer-0
    projection is computed for the whole chunk in one matmul before the time
    loop. Free-running AR hoists the u part, and folds the feedback
    fb = h @ head.W + head.b through F = head.W @ W0_fb, so a step adds one
    h_top @ F; its first step uses state.last_output instead. The head runs
    once after the loop. The z/r columns of every weight, bias and F are
    halved once per chunk for `_gru_step`, in copies; params is not written.
    The cache keeps the unhalved matrices and, formed after the loop over
    the whole chunk, the factors the backward multiplies by.
    """
    B, T, W = u.shape
    H, L, O, I = spec.hidden, spec.depth, spec.output_dim, spec.input_dim
    free = W < spec.feed_dim  # AR feeding back its own output
    mats = [_gru_layer_mats(params, l) for l in range(L)]
    steps = [_halved_zr(m, H) for m in mats]
    masks = _dropout_masks(spec, B, training, rng)
    w_y, b_y = params["head.W"], params["head.b"]
    w0, b0, _, _ = steps[0]
    # scratch arrays are time-major (T, B, .) so each step touches one
    # contiguous block; (B, T, .) slicing thrashes caches for long chunks
    X0 = U = np.ascontiguousarray(u.transpose(1, 0, 2))
    if free:
        # fb_t = h_top(t-1) @ w_y + b_y enters layer 0 as h_top(t-1) @ F plus
        # b_y @ w0_fb, so only the matmul by F stays in the loop
        w0_fb = w0[I:]
        F = w_y @ w0_fb  # (H, 3H)
        proj0 = (U.reshape(T * B, I) @ w0[:I] + b0).reshape(T, B, 3 * H)
        proj0[0] += state.last_output @ w0_fb
        proj0[1:] += b_y @ w0_fb
        if record:
            # layer-0 inputs [u_t | fb_t]: fb_0 is last_output, fb_t is
            # Y[t-1], filled in after the loop
            X0 = np.empty((T, B, I + O))
            X0[:, :, :I] = U
            X0[0, :, I:] = state.last_output
    else:
        proj0 = (X0.reshape(T * B, -1) @ w0 + b0).reshape(T, B, 3 * H)
    P_zr, P_h = proj0[:, :, : 2 * H], proj0[:, :, 2 * H :]
    # S[l][0] is the carried state and S[l][t+1] the state after step t, so
    # the previous states are the view S[l][:-1]
    S = [np.empty((T + 1, B, H)) for _ in range(L)]
    for s, h in zip(S, state.gru_h):
        s[0] = h
    hs = [s[0] for s in S]  # read only: each step writes its h' into S
    if record:
        Zs = [np.empty((T, B, H)) for _ in range(L)]
        Rs = [np.empty((T, B, H)) for _ in range(L)]
        Cs = [np.empty((T, B, H)) for _ in range(L)]
    for t in range(T):
        if free and t:
            proj_t = proj0[t]  # `proj0[t] += ...` would also write the view back
            proj_t += hs[L - 1] @ F
        p_zr, p_h = P_zr[t], P_h[t]
        for l in range(L):
            w_cat, b_cat, u_zr, u_h = steps[l]
            if l > 0:
                proj = x @ w_cat + b_cat
                p_zr, p_h = proj[:, : 2 * H], proj[:, 2 * H :]
            h = S[l][t + 1]
            if record:
                Zs[l][t], Rs[l][t] = _gru_step(p_zr, p_h, hs[l], u_zr, u_h, H, h, Cs[l][t])
            else:
                _gru_step(p_zr, p_h, hs[l], u_zr, u_h, H, h)
            hs[l] = h
            if l < L - 1:
                x = h * masks[l] if masks else h
    Hs = [s[1:] for s in S]
    Y = (Hs[L - 1].reshape(T * B, H) @ w_y + b_y).reshape(T, B, O)
    y = np.ascontiguousarray(Y.transpose(1, 0, 2))
    last_output = None
    if free:
        last_output = Y[T - 1].copy()
        if record:
            X0[1:, :, I:] = Y[:-1]
    new_state = HiddenState(gru_h=[h.copy() for h in hs], last_output=last_output)
    cache = None
    if record:
        HP = [s[:-1] for s in S]
        FZ, FR = [], []
        for z, r, c, h_prev in zip(Zs, Rs, Cs, HP):
            # written over Z and C where the backward no longer needs them
            fz = c - h_prev
            fz *= z
            fr = ONE - r
            fr *= r
            fr *= h_prev
            np.multiply(c, c, out=c)
            np.subtract(ONE, c, out=c)
            c *= z  # z * (1 - c**2)
            np.subtract(ONE, z, out=z)  # 1 - z
            fz *= z  # (c - h_prev) * z * (1 - z)
            FZ.append(fz)
            FR.append(fr)
        cache = {"X0": X0, "H": Hs, "HP": HP, "R": Rs, "omz": Zs, "fz": FZ, "fc": Cs,
                 "fr": FR, "masks": masks, "mats": mats, "spec": spec, "params": params,
                 "shape": u.shape}
    return y, new_state, cache


def _gru_backward(cache, g_y: Array, need_input_grad: bool):
    """Reverse sweep through a cached GRU chunk; returns (grads, du).

    A step's gate adjoints are g times the factors the forward cached:
    1-z for the carried state, (c - h_prev)*z*(1-z) for z, z*(1-c**2) for
    the candidate, and h_prev*r*(1-r) times the candidate's adjoint pulled
    through Uh for r. With the input known (NAR, teacher-forced AR) the top
    layer's adjoint from the head is one product per chunk; free-running,
    each output's adjoint also collects the adjoint of the next step's
    fed-back input, so it is formed per step. The cache is only read.
    """
    params = cache["params"]
    spec = cache["spec"]
    Hs, HP, Rs = cache["H"], cache["HP"], cache["R"]
    OMZ, FZ, FC, FR = cache["omz"], cache["fz"], cache["fc"], cache["fr"]
    masks, mats = cache["masks"], cache["mats"]
    B, T, W = cache["shape"]
    H, L, O, I = spec.hidden, spec.depth, spec.output_dim, spec.input_dim
    feedback = W < spec.feed_dim
    w_y_t = params["head.W"].T
    # a copy, never a view of g_y: the feedback adjoint accumulates in place
    GY = g_y.transpose(1, 0, 2).copy()
    if not feedback:
        g_top = (GY.reshape(T * B, O) @ w_y_t).reshape(T, B, H)
    mats_t = [(w_cat.T, u_zr.T, u_h.T) for w_cat, _, u_zr, u_h in mats]
    GA = [np.empty((T, B, 3 * H)) for _ in range(L)]
    gh_carry = [np.zeros((B, H)) for _ in range(L)]
    gu = np.empty((T, B, I)) if need_input_grad else None
    g_fb = np.zeros((B, O))
    for t in range(T - 1, -1, -1):
        if feedback:
            GY[t] += g_fb
            g_above = GY[t] @ w_y_t
        else:
            g_above = g_top[t]
        for l in range(L - 1, -1, -1):
            w_t, u_zr_t, u_h_t = mats_t[l]
            ga = GA[l][t]
            g = gh_carry[l] + g_above
            g_rh = np.multiply(g, FC[l][t], out=ga[:, 2 * H :]) @ u_h_t
            np.multiply(g, FZ[l][t], out=ga[:, :H])
            np.multiply(g_rh, FR[l][t], out=ga[:, H : 2 * H])
            g *= OMZ[l][t]  # g is this step's own array, free once read
            g_rh *= Rs[l][t]
            g += g_rh
            g += ga[:, : 2 * H] @ u_zr_t
            gh_carry[l] = g
            if l > 0:
                gx = ga @ w_t
                g_above = gx * masks[l - 1] if masks else gx
        if feedback or need_input_grad:
            gx0 = GA[0][t] @ mats_t[0][0]
            if feedback:
                g_fb = gx0[:, I:]
            if need_input_grad:
                gu[t] = gx0[:, :I]
    grads = _gru_weight_grads(cache, GA, HP)
    gy_flat = GY.reshape(T * B, O)
    grads["head.W"] = Hs[L - 1].reshape(T * B, H).T @ gy_flat
    grads["head.b"] = gy_flat.sum(axis=0)
    if gu is not None:
        gu = np.ascontiguousarray(gu.transpose(1, 0, 2))
    return grads, gu


# ---------------------------------------------------------------------------
# TCN
# ---------------------------------------------------------------------------


def _tcn_layers(params: ParamStore, spec: ModelSpec) -> list:
    """(kernel, bias, proj or None, identity_skip) of every layer."""
    layers = []
    for l in range(spec.depth):
        proj = params.get(f"tcn.{l}.proj")
        layers.append((params[f"tcn.{l}.kernel"], params[f"tcn.{l}.bias"], proj,
                       spec.residual and proj is None))
    return layers


def _tcn_nar_forward(u: Array, conv: ConvCache, params: ParamStore, spec: ModelSpec,
                     record: bool):
    """Conv stack over one chunk of known input, each layer after its context.

    Layer l convolves its tail from conv (its inputs of the last
    (kernel-1)*2**l samples, none before the sequence start) and the chunk,
    so chunked processing equals one pass over the whole sequence at
    O(depth*T) per chunk. The returned state holds new tails; conv is only
    read. Each layer convolves into one pre-activation buffer (every shifted
    tap and the projection share one scratch array) and applies bias, ReLU
    and skip in place. With record set, the cache keeps what the backward
    reads: every layer's context and input and a bool pre > 0 mask per
    layer; otherwise two output buffers alternate.
    """
    B, T, _ = u.shape
    H = spec.hidden
    x = np.ascontiguousarray(u.transpose(0, 2, 1))  # (B, C, T)
    shape = (B, H, T)
    pre, scratch = np.empty(shape), np.empty(shape)
    tails = []
    if record:
        xs, ctxs, masks = [x], [], []
    else:
        outs = (np.empty(shape), np.empty(shape))
    for l, (k, bias, proj, identity_skip) in enumerate(_tcn_layers(params, spec)):
        tail = conv.tails[l]
        ctx = tail.transpose(1, 2, 0) if len(tail) else None  # (B, C, n)
        tails.append(_tail_after(tail, x.transpose(2, 0, 1), (spec.kernel - 1) * 2 ** l))
        nk.causal_conv1d(x, k, 2 ** l, ctx=ctx, out=pre, scratch=scratch)
        pre += bias[None, :, None]
        out = np.maximum(pre, ZERO, out=np.empty(shape) if record else outs[l % 2])
        if identity_skip:
            out += x
        elif proj is not None:
            out += nk.causal_conv1d(x, proj, 1, out=scratch)
        if record:
            ctxs.append(ctx)
            masks.append(pre > 0.0)
            xs.append(out)
        x = out
    w_y, b_y = params["head.W"], params["head.b"]
    y = (x.transpose(0, 2, 1).reshape(B * T, H) @ w_y + b_y).reshape(
        B, T, spec.output_dim
    )
    cache = None
    if record:
        cache = {"xs": xs, "ctxs": ctxs, "masks": masks, "spec": spec, "params": params,
                 "shape": u.shape}
    return y, HiddenState(conv=ConvCache(spec, tails)), cache


def _tcn_nar_backward(cache, g_y: Array, need_input_grad: bool):
    """The contexts' adjoints are not formed (a context is carried data, not
    part of the chunk's graph), but their share of each kernel gradient is;
    du is the first input_dim columns (teacher-forced AR: the rest is data).
    One g_pre buffer serves every layer, and the input adjoint alternates
    between two flat buffers viewed at each layer's input width; none of them
    aliases the cache."""
    spec = cache["spec"]
    params = cache["params"]
    xs, ctxs, masks = cache["xs"], cache["ctxs"], cache["masks"]
    B, H, T = xs[-1].shape
    w_y = params["head.W"]
    g_flat = g_y.reshape(B * T, -1)
    top_flat = xs[-1].transpose(0, 2, 1).reshape(B * T, H)
    grads: dict[str, Array] = {
        "head.W": top_flat.T @ g_flat,
        "head.b": g_flat.sum(axis=0),
    }
    size = B * max(H, spec.feed_dim) * T
    flats = [np.empty(size) for _ in range(3)]  # two adjoints and the scratch

    def view(i: int, x: Array) -> Array:
        return flats[i][: x.size].reshape(x.shape)

    g_x = view(0, xs[-1])
    g_x[...] = (g_flat @ w_y.T).reshape(B, T, H).transpose(0, 2, 1)
    g_pre = np.empty_like(xs[-1])
    layers = _tcn_layers(params, spec)
    for l in range(spec.depth - 1, -1, -1):
        k, _, proj, identity_skip = layers[l]
        x, g_out = xs[l], g_x
        scratch = view(2, x)
        np.multiply(g_out, masks[l], out=g_pre)
        dx, dk = nk.causal_conv1d_backward(g_pre, x, k, 2 ** l, ctx=ctxs[l],
                                           out=view((spec.depth - l) % 2, x), scratch=scratch)
        grads[f"tcn.{l}.kernel"] = dk
        grads[f"tcn.{l}.bias"] = g_pre.sum(axis=(0, 2))
        if identity_skip:
            dx += g_out
        elif proj is not None:
            dx_p, dp = nk.causal_conv1d_backward(g_out, x, proj, 1, out=scratch)
            dx += dx_p
            grads[f"tcn.{l}.proj"] = dp
        g_x = dx
    gu = g_x[:, : spec.input_dim].transpose(0, 2, 1).copy() if need_input_grad else None
    return grads, gu


def _tcn_step_layers(params: ParamStore, spec: ModelSpec, batch: int) -> list:
    """Per layer above layer 0, what a step of `_tcn_step` reads: the past
    taps as contiguous (H, H) matrices stacked oldest first, the bias, the
    current-tap matrix w, a (batch, H) product buffer allocated here, once per
    chunk, and whether the skip is the identity.

    Layers above layer 0 take H channels, so their skip is the identity or
    none. An identity skip is folded into the current tap as w_now + I, so a
    step accumulates q = pre + v and its output relu(pre) + v is max(q, v).
    """
    layers = []
    for k, bias, _, identity_skip in _tcn_layers(params, spec)[1:]:
        w = np.ascontiguousarray(k.T)  # (kernel, H, H)
        w_now = w[-1] + np.eye(len(bias)) if identity_skip else w[-1]
        layers.append((w[:-1], bias, w_now, np.empty((batch, len(bias))), identity_skip))
    return layers


def _tcn_step(layers: list, a_pad: list, outs: list, P: list, t: int, v: Array,
              tmp: Array) -> None:
    """Run the layers above layer 0 at step t of a chunk, v being layer 0's
    output at t.

    a_pad[l] holds layer l's inputs, its context and then the chunk's T
    rows; layer l (from 1) accumulates its pre-activation in P[l-1][t] and
    writes its output to outs[l][t]. Layer l reads tap j from
    (kernel-1-j)*2**l samples ago, so its past taps are at least 2**l samples
    old: at the first step of each 2**l-sample block from the chunk start, one
    matmul per past tap writes the past taps for the whole block into P[l-1]
    (the first through out=, the bias added after), and every row that reads
    is already written. Each step then adds its current tap through the
    layer's product buffer and takes the output as max(P, v) for an identity
    skip (w_now + I folded, see `_tcn_step_layers`) or max(P, 0) otherwise:
    three numpy calls. tmp is a (B, H) scratch for the second and later past
    taps of a one-row block. A kernel-1 layer has no past taps, and the
    caller fills its P with the bias.
    """
    T, B = len(outs[0]), len(v)
    for l, (w_past, bias, w, prod, identity_skip) in enumerate(layers, 1):
        d = 2 ** l
        pre = P[l - 1][t]
        if len(w_past) and t % d == 0:
            a = a_pad[l]
            lo = len(a) - T + t - len(w_past) * d
            m = min(d, T - t)
            if m == 1:  # one row: no reshapes
                np.dot(a[lo], w_past[0], out=pre)
                for j in range(1, len(w_past)):
                    pre += np.dot(a[lo + j * d], w_past[j], out=tmp)
                pre += bias
            else:
                blk = P[l - 1][t : t + m].reshape(m * B, -1)
                np.dot(a[lo : lo + m].reshape(m * B, -1), w_past[0], out=blk)
                for j in range(1, len(w_past)):
                    blk += np.dot(a[lo + j * d : lo + j * d + m].reshape(m * B, -1), w_past[j])
                blk += bias
        pre += np.dot(v, w, out=prod)
        v = np.maximum(pre, v if identity_skip else ZERO, out=outs[l][t])


def _tcn_skip0(params: ParamStore, spec: ModelSpec) -> Array | None:
    """Layer 0's skip as a (C_in, H) matrix: I, the projection, or None."""
    proj = params.get("tcn.0.proj")
    if proj is not None:
        return proj[:, :, 0].T
    return np.eye(spec.hidden) if spec.residual else None


def _tcn_fold(params: ParamStore, spec: ModelSpec):
    """Layer 0 and the head folded, as `_tcn_ar_forward` steps them; returns
    (A, G).

    A (kernel, C_in, 2H) holds layer 0's taps oldest first, each mapping an
    input row to its share of [q | s]: [W_j | 0] for a past tap and
    [W_now + S | S] for the current one, S being the skip (I, the
    projection, or 0), so that layer 0's output relu(pre) + s is max(q, s)
    with q = pre + s. G (kernel*H, 2H) stacks head.W @ A_j[input_dim:] over
    the taps: a window of the last kernel top outputs, oldest first, times G
    is the share of [q | s] that the fed-back outputs bring, less head.b's.
    """
    k = params["tcn.0.kernel"]
    H, C, K = k.shape
    A = np.zeros((K, C, 2 * H))
    A[:, :, :H] = k.transpose(2, 1, 0)
    skip = _tcn_skip0(params, spec)
    if skip is not None:
        A[-1, :, :H] += skip
        A[-1, :, H:] = skip
    G = (params["head.W"] @ A[:, spec.input_dim :]).reshape(K * H, 2 * H)
    return A, G


def _windows(tops: Array, kernel: int) -> Array:
    """(T, B, kernel*H) view of batch-major tops (B, kernel + T, H): row t
    is each sequence's kernel rows from t on, flattened, the window step t
    reads."""
    B, n, H = tops.shape
    s0, s1, s2 = tops.strides
    return as_strided(tops, (n - kernel, B, kernel * H), (s1, s0, s2))


def conv_cache_step(cache: ConvCache, params: ParamStore, x_t: Array) -> Array:
    """Advance the cached conv stack one step in place; cost independent of
    history.

    x_t is the full network input vector (B, feed_dim): concat(u_t, y_{t-1})
    in AR mode, u_t in NAR mode; returns the head output (B, output_dim).
    With the whole input known, a step is the NAR convolution over a
    one-sample chunk after the tails (`_tcn_nar_forward`), and the new tails
    replace the cache's. For streaming one sample at a time, in either mode;
    whole chunks go through `Model.forward`, which hands on the same cache.
    """
    spec = cache.spec
    if x_t.ndim != 2 or x_t.shape[1] != spec.feed_dim:
        raise DimensionError(f"step input shape {x_t.shape} != (B, {spec.feed_dim})")
    cache.check(spec, x_t.shape[0])
    y, state, _ = _tcn_nar_forward(x_t[:, None], cache, params, spec, False)
    cache.tails[:] = state.conv.tails
    return y[:, 0]


def _tcn_ar_forward(u, conv, last_output, params, spec, record):
    """Free-running AR TCN, one step at a time.

    Sequential generation with input concat(u_t, own previous output); equals
    a naive full-history recompute. Each layer's inputs, preceded by its
    context (zeros before the sequence start, then its tail), are kept in
    dense time-major arrays: each step reads its past taps from them and the
    new tails are their last rows.

    Layer 0 and the head are folded (`_tcn_fold`). Before the loop the known
    share of layer 0's [q | s] is convolved for the whole chunk: bias, every
    tap over u, head.b's share of each in-chunk feedback tap, and the carried
    last output and tail feedback. A step adds one product, the window of the
    last kernel top outputs times G, and takes max(q, s); the top layer
    writes straight into that batch-major window array, whose first kernel
    rows are zeros (their feedback is in the known share). After the loop one
    product gives y and X0's feedback column. With record set, the cache
    keeps the input arrays, the top outputs and a bool mask per layer, formed
    once after the loop: q > s for layer 0 and P > v above it for an
    identity skip (the accumulator holds q = pre + v, and q > v is pre > 0
    with a zero pre-activation sending the adjoint through the skip only),
    P > 0 otherwise.
    """
    B, T, I = u.shape
    H, K, L = spec.hidden, spec.kernel, spec.depth
    A, G = _tcn_fold(params, spec)
    layers = _tcn_step_layers(params, spec, B)
    w_y, b_y = params["head.W"], params["head.b"]
    lens = [(K - 1) * 2 ** l for l in range(L)]
    a_pad = []
    for n, tail in zip(lens, conv.tails):
        a = np.empty((n + T,) + tail.shape[1:])
        a[: n - len(tail)] = 0.0  # samples before the sequence start
        a[n - len(tail) : n] = tail
        a_pad.append(a)
    tops = np.empty((B, K + T, H))
    tops[:, :K] = 0.0
    wins = _windows(tops, K)
    outs = [a[n:] for a, n in zip(a_pad[1:], lens[1:])] + [tops[:, K:].transpose(1, 0, 2)]
    # layer-0 inputs [u_t | fb_t]: fb_0 is last_output, fb_t is head.b until
    # the loop is done
    X0 = a_pad[0][lens[0] :]
    X0[:, :, :I] = u.transpose(1, 0, 2)
    X0[0, :, I:] = last_output
    X0[1:, :, I:] = b_y
    C = X0.shape[2]
    QS = np.dot(a_pad[0][:T].reshape(T * B, C), A[0]).reshape(T, B, 2 * H)
    for j in range(1, K):
        QS += np.dot(a_pad[0][j : j + T].reshape(T * B, C), A[j]).reshape(T, B, 2 * H)
    Q, S = QS[:, :, :H], QS[:, :, H:]
    Q += params["tcn.0.bias"]
    P = [np.empty((T, B, H)) for _ in layers]  # pre-activations above layer 0
    if K == 1:  # no past taps: the bias starts every step's sum
        for p, (_, bias, *_) in zip(P, layers):
            p[...] = bias
    prod, tmp = np.empty((B, 2 * H)), np.empty((B, H))
    out0 = outs[0]
    for t in range(T):
        qs = QS[t]
        qs += np.dot(wins[t], G, out=prod)
        v = np.maximum(Q[t], S[t], out=out0[t])
        _tcn_step(layers, a_pad, outs, P, t, v, tmp)
    y = np.matmul(tops[:, K:], w_y)
    y += b_y
    X0[1:, :, I:] = y[:, :-1].transpose(1, 0, 2)
    tails = [_tail_after(tail, a[n:], n) for tail, n, a in zip(conv.tails, lens, a_pad)]
    cache = None
    if record:
        masks = [Q > S] + [p > (a[n:] if identity_skip else 0.0) for p, a, n, (*_, identity_skip)
                           in zip(P, a_pad[1:], lens[1:], layers)]
        cache = {"a_pad": a_pad, "tops": tops, "masks": masks, "lens": lens, "spec": spec,
                 "params": params, "shape": u.shape}
    return y, HiddenState(conv=ConvCache(spec, tails), last_output=y[:, -1].copy()), cache


def _tcn_ar_backward(cache, g_y: Array, need_input_grad: bool):
    """Reverse-time adjoint sweep through the cached AR-TCN chunk.

    Adjoints only ever flow from later to earlier time (conv taps and
    the output feedback both look backward), so one descending pass over t
    with a top-down layer loop visits every node after its dependents.
    Above layer 0 each step adds the current-tap and skip adjoints, g_in +=
    g_pre @ w_now.T + g_out for an identity skip: with the cached mask q > v
    this is the exact adjoint of the forward's max(q, v), q = pre + v @
    (w_now + I). A block's past-tap adjoints are added with one matmul per tap
    at its first step, which comes before any step those taps read (they lie
    at least 2**l samples back); blocks start at the chunk start, as in the
    forward. The transposed tap matrices are made contiguous once per chunk,
    and per-step products go through np.dot into one (B, H) buffer per
    layer.

    Layer 0 and the head mirror the forward's fold. The top outputs'
    adjoints, time-major after kernel rows for the context, start as
    g_y @ head.W.T, formed once per chunk. A step takes layer 0's g_pre =
    g_out * (q > s) and adds the fed-back outputs' share of its adjoint into
    the top-output adjoints it read: g_pre times the kernel's feedback rows
    through the head into the whole window, and g_out times the skip's into
    the latest row. Layer 0's input adjoint, and from it du, the fed-back
    outputs' adjoints and so the head's gradients, come from per-chunk
    products after the sweep, as do layer 0's kernel and projection
    gradients. Adjoints of the carried context are dropped, as the context is
    data, not graph.
    """
    spec = cache["spec"]
    params = cache["params"]
    a_pad, tops, masks, lens = cache["a_pad"], cache["tops"], cache["masks"], cache["lens"]
    B, T, _ = cache["shape"]
    I, O, H, K, L = spec.input_dim, spec.output_dim, spec.hidden, spec.kernel, spec.depth
    w_y = params["head.W"]
    k0, skip = params["tcn.0.kernel"], _tcn_skip0(params, spec)
    # (H, kernel*H): g_pre into the window; (H, H): g_out into its last row
    gk_t = np.ascontiguousarray((w_y @ k0[:, I:].transpose(2, 1, 0)).reshape(K * H, H).T)
    gs_t = None if skip is None else np.ascontiguousarray((w_y @ skip[I:]).T)
    layers = []
    for k, _, _, identity_skip in _tcn_layers(params, spec)[1:]:
        taps_t = np.ascontiguousarray(k.transpose(2, 0, 1))  # (kernel, H, H)
        layers.append((taps_t[:-1], taps_t[-1], identity_skip, np.empty((B, H))))
    g_top = np.empty((K + T, B, H))
    g_top[:K] = 0.0  # adjoints of the context's feedback: dropped
    gy_tm = g_y.transpose(1, 0, 2).reshape(T * B, O)
    np.dot(gy_tm, w_y.T, out=g_top[K:].reshape(T * B, H))
    g_a = [np.zeros_like(a) for a in a_pad[1:]]  # adjoints of layer l+1's inputs
    g_outs = [g[n:] for g, n in zip(g_a, lens[1:])] + [g_top[K:]]
    g_pres = [np.empty((T, B, H)) for _ in range(L)]
    g_win, g_row = np.empty((B, K * H)), np.empty((B, H))
    g_win_rows = g_win.reshape(B, K, H).transpose(1, 0, 2)  # as (kernel, B, H)
    for t in range(T - 1, -1, -1):
        for l in range(L - 1, 0, -1):
            past_t, now_t, identity_skip, prod = layers[l - 1]
            d = 2 ** l
            g_out = g_outs[l][t]
            g_pre = np.multiply(g_out, masks[l][t], out=g_pres[l][t])
            g_in = g_a[l - 1][lens[l] + t]
            g_in += np.dot(g_pre, now_t, out=prod)
            if identity_skip:
                g_in += g_out
            if len(past_t) and t % d == 0:
                m = min(d, T - t)
                lo = lens[l] + t - len(past_t) * d
                if m == 1:  # one row: no reshapes
                    for j, w in enumerate(past_t):
                        g_a[l - 1][lo + j * d] += np.dot(g_pre, w, out=prod)
                else:
                    G = g_pres[l][t : t + m].reshape(m * B, H)
                    for j, w in enumerate(past_t):
                        rows = g_a[l - 1][lo + j * d : lo + j * d + m].reshape(m * B, -1)
                        rows += np.dot(G, w)
        g_out = g_outs[0][t]
        g_pre = np.multiply(g_out, masks[0][t], out=g_pres[0][t])
        np.dot(g_pre, gk_t, out=g_win)
        g_top[t : t + K] += g_win_rows
        if gs_t is not None:
            g_top[K - 1 + t] += np.dot(g_out, gs_t, out=g_row)
    g_out0 = g_outs[0]
    del g_a, g_outs, g_top  # free before the per-chunk products
    # layer 0's input adjoint: its taps transposed over g_pre, its skip over g_out
    X0 = a_pad[0][lens[0] :]
    C = X0.shape[2]
    g_x0 = np.zeros((T, B, C)) if skip is None else np.dot(
        g_out0.reshape(T * B, H), skip.T).reshape(T, B, C)
    for j in range(K):
        n = T - (K - 1 - j)  # tap j of step t reads input t - (K-1-j)
        g_x0[:n] += np.dot(g_pres[0][T - n :].reshape(n * B, H), k0[:, :, j]).reshape(n, B, C)
    # fb_t is y_{t-1}: its adjoint joins g_y's (fb_0, last_output, is data)
    g_out_y = g_y.copy()
    g_out_y[:, :-1] += g_x0[1:, :, I:].transpose(1, 0, 2)
    grads: dict[str, Array] = {}
    for l in range(L):
        d = 2 ** l
        dk = np.empty_like(params[f"tcn.{l}.kernel"])
        for j in range(K):
            lo = lens[l] - (K - 1 - j) * d
            dk[:, :, j] = np.tensordot(g_pres[l], a_pad[l][lo : lo + T],
                                       axes=([0, 1], [0, 1]))
        grads[f"tcn.{l}.kernel"] = dk
        grads[f"tcn.{l}.bias"] = g_pres[l].sum(axis=(0, 1))
    if "tcn.0.proj" in params:
        dp = np.tensordot(g_out0, X0, axes=([0, 1], [0, 1]))
        grads["tcn.0.proj"] = dp[:, :, None]
    grads["head.W"] = np.matmul(tops[:, K:].transpose(0, 2, 1), g_out_y).sum(axis=0)
    grads["head.b"] = g_out_y.sum(axis=(0, 1))
    gu = None
    if need_input_grad:
        gu = np.ascontiguousarray(g_x0[:, :, :I].transpose(1, 0, 2))
    return grads, gu


# ---------------------------------------------------------------------------
# unified model handle
# ---------------------------------------------------------------------------


@dataclass
class Model:
    """A spec plus its parameters: the only entry for running a chunk.

    forward checks every chunk (input, teacher, carried state) against the
    spec and routes it to its architecture's core; backward checks g_y
    against the cache and runs the backward of the core that built it.
    """

    spec: ModelSpec
    params: ParamStore

    @classmethod
    def create(cls, spec: ModelSpec, seed: int = 0) -> "Model":
        return cls(spec=spec, params=init_params(spec, seed))

    def initial_state(self, batch: int) -> HiddenState:
        return initial_state(self.spec, batch)

    def clone(self) -> "Model":
        return Model(spec=self.spec, params=self.params.copy())

    def forward(
        self,
        u: Array,
        state: HiddenState | None = None,
        *,
        training: bool = False,
        rng=None,
        teacher: Array | None = None,
        return_cache: bool = False,
    ):
        """Run one chunk u (B, T, input_dim) from state (fresh when None);
        returns (y, new_state[, cache]). The given state is not written.

        An AR model given a teacher (B, T, output_dim), standardized ground
        truth, runs on the known input [u_t | y_{t-1}] with y_{-1} the
        carried last output, and carries the teacher's last sample on;
        without one it feeds back its own output. Dropout (GRU) draws its
        masks from rng when training.
        """
        spec = self.spec
        if u.ndim != 3:
            raise DimensionError(f"expected (batch, time, channels) input, got shape {u.shape}")
        if u.shape[2] != spec.input_dim:
            raise DimensionError(f"input has {u.shape[2]} channels, spec expects {spec.input_dim}")
        B, T, _ = u.shape
        if B < 1 or T < 1:
            raise InputError(f"input must hold at least one sequence and one time step, "
                             f"got shape {u.shape}")
        if state is None:
            state = initial_state(spec, B)
        else:
            state.check(spec, B)
        x = u
        if teacher is not None:
            if spec.mode != "ar":
                raise UsageError("a teacher replaces fed-back outputs; a NAR model has none")
            if np.shape(teacher) != (B, T, spec.output_dim):
                raise DimensionError(f"teacher has shape {np.shape(teacher)}, "
                                     f"expected {(B, T, spec.output_dim)}")
            fb = np.concatenate([state.last_output[:, None], teacher[:, :-1]], axis=1)
            x = np.concatenate([u, fb], axis=2)
        if spec.arch == "gru":
            y, new_state, cache = _gru_forward(x, state, self.params, spec, training, rng,
                                               return_cache)
        elif x.shape[2] == spec.feed_dim:
            y, new_state, cache = _tcn_nar_forward(x, state.conv, self.params, spec,
                                                   return_cache)
        else:
            y, new_state, cache = _tcn_ar_forward(x, state.conv, state.last_output,
                                                  self.params, spec, return_cache)
        if teacher is not None:
            new_state.last_output = teacher[:, -1].copy()
        if return_cache:
            return y, new_state, cache
        return y, new_state

    def backward(self, cache, g_y: Array, *, need_input_grad: bool = False):
        """Gradients for a cached forward chunk, g_y being the adjoint of its
        y; returns (grads, du), du being None unless need_input_grad."""
        B, T, width = cache["shape"]
        if np.shape(g_y) != (B, T, self.spec.output_dim):
            raise DimensionError(f"g_y has shape {np.shape(g_y)}, "
                                 f"expected {(B, T, self.spec.output_dim)}")
        if self.spec.arch == "gru":
            return _gru_backward(cache, g_y, need_input_grad)
        if width == self.spec.feed_dim:
            return _tcn_nar_backward(cache, g_y, need_input_grad)
        return _tcn_ar_backward(cache, g_y, need_input_grad)
