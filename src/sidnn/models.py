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
feedback to the model's own output. Each cache records the spec, the input's
shape and the backward of the core that made it; `Model.backward` refuses a
cache of another spec, checks g_y against the shape and calls that backward.

The GRU runs one recurrence for both modes (NAR carries a zero-width
feedback). Its core is feature-major: a step's state and scratch are
(features, B) and every per-chunk array is (T, features, B), so each gate
block a step touches is contiguous; the carried state is (B, H), transposed
once per chunk on entry and exit. Every GRU chunk builds its layer-0 inputs
X0 = [u_t | fb_t] and projects them in one matmul. With the input known fb
is given (none in NAR); free-running AR starts from fb_0 = the carried last
output and fb_t = head.b, and adds the rest of its feedback per step as
F @ h_top, F = (head.W @ W0_fb)^T (W0_fb: the feedback rows of the layer-0
input weights); the head runs once per chunk and fills in X0's fed-back
outputs. The backward reads X0 from the cache and is unchanged by the fold;
it forms the input adjoint once per chunk in every mode, and with the input
known the head adjoint too. A GRU step forms both gates
with one tanh, as sig(a) = 1/2 + tanh(a/2)/2 on z/r weight rows halved once
per chunk; a cached forward then forms the backward's per-step factors for
the whole chunk at once, so a backward step is a few multiplies and two
matmuls. Every product that NAR and AR share, forward and backward, goes
through np.dot into a buffer allocated once per call, with a projection or
bias added after it (x + y == y + x bitwise); a recorded step writes its
gates and candidate straight into the cache. The AR-only feedback products
(F @ h_top, and the backward's output and feedback adjoints) stay plain
matmuls. Both TCN modes carry the same state, each layer's
last (kernel-1)*2**l inputs as a plain tail, oldest first (`ConvCache`). A
TCN whose input is known (NAR; AR given a teacher, over [u_t | y_{t-1}];
`conv_cache_step` streaming a sample) convolves the chunk layer by layer into
reused buffers, each layer after its tail, so a chunk costs O(depth*T) however
long the history; its cache keeps each layer's tail and input and a bool
pre-activation sign mask, and a forward without a cache keeps nothing. Only
the free-running AR-TCN steps, feature-major like the GRU: every per-step
operand is one contiguous (features, B) block. Each layer above layer 0 keeps
one array of [pre; v] rows, its inputs v after its tail, which the layer
below writes one step at a time. Layer l's past taps are at least 2**l
samples old, so they are summed with the bias into pre once per
2**l-sample block with one matmul per tap; a step is then two numpy calls
per layer, q = [I | W_now] @ row (an identity skip folded in as W_now + I)
and max(q, v) or max(q, 0).
Layer 0 and the head are folded together (`_tcn_fold`): layer 0's output is
max(q, s) with s its skip (I, the projection or 0) and q = pre + s; the known
share of [q; s] (bias, the u taps, head.b's share of the feedback, the
carried context) is convolved once per chunk, and a step adds one product,
G = (the feedback rows of layer 0's taps) @ head.W.T times a contiguous
window of the last kernel top outputs, then takes max(q, s): three calls.
The head runs once after the loop. The backward mirrors this on
[g_pre; g_out] rows: three calls per layer and step (mask, one product,
one add into the layer below), a float mask formed once per chunk from
the cached inputs and outputs (q > v is max(q, v) > v, so a zero
pre-activation sends the adjoint through the skip only), and every weight
and head gradient one product over the chunk.
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


def _step_mats(mats, H: int, B: int):
    """Layer matrices as a feature-major `_gru_step` reads them: the
    transposes of w_cat, u_zr and Uh, contiguous, and the bias repeated
    over the batch as a contiguous (3H, B), each with its z/r rows halved.
    Halving is exact, and the given matrices are not written: w is a copy
    even where w_cat.T is already contiguous (one input column)."""
    w_cat, b_cat, u_zr, u_h = mats
    w = w_cat.T.copy()
    b = np.repeat(b_cat[:, None], B, axis=1)
    w[: 2 * H] *= HALF
    b[: 2 * H] *= HALF
    return w, b, np.ascontiguousarray(u_zr.T) * HALF, np.ascontiguousarray(u_h.T)


def _chunk_product(a: Array, X: Array) -> Array:
    """a (M, K) times every (K, B) block of a chunk X (T, K, B): (T, M, B).
    At B 1 the chunk is (T, K) in memory, and one product over it costs a
    fifth of T matrix-vector products. At K 1 and B > 1 a broadcast multiply
    gives the same bits as the batched matmul, in less time at short
    chunks."""
    T, K, B = X.shape
    if B == 1:
        return np.dot(X.reshape(T, K), a.T).reshape(T, -1, 1)
    if K == 1:
        return a[None] * X
    return np.matmul(a, X)


def _sum_outer(a: Array, b: Array) -> Array:
    """The sum over t of a[t] @ b[t].T for chunks a (T, M, B) and b (T, N, B):
    a weight gradient summed over time and batch, (M, N)."""
    return np.matmul(a, b.transpose(0, 2, 1)).sum(axis=0)


def _gru_step(p_zr: Array, p_h: Array, h: Array, u_zr: Array, u_h: Array, buf,
              c: Array, h_out: Array) -> None:
    """One gated update from precomputed input projections, feature-major:
    every operand is a contiguous (features, B) block.

    The gates are logistic in tanh form, sig(a) = 1/2 + tanh(a/2)/2, with
    the halving folded into the weights: p_zr is [Wz|Wr]^T/2 @ x +
    [bz|br]/2 (2H, B), u_zr is [Uz|Ur]^T/2, and p_h is Wh^T @ x + bh (H, B),
    blocks the caller takes from a (3H, B) projection. z, r =
    tanh(u_zr @ h + p_zr)/2 + 1/2, c = tanh(Uh^T @ (r*h) + p_h), h' =
    h + z*(c - h). buf is the caller's (zr, z, r, rh): a (2H, B) block, its
    z/r row blocks and an (H, B) buffer for r*h, written here; both
    products go through np.dot into them, and each projection is added
    after its product (x + y == y + x bitwise). c goes to c (H, B) and h'
    to h_out, which must not alias h. z and r lie in [0, 1] for any
    pre-activation, infinities included, and a step makes two tanh calls and
    no Python-float operand: each numpy call costs more in dispatch than in
    arithmetic at these sizes.
    """
    zr, z, r, rh = buf
    np.dot(u_zr, h, out=zr)
    zr += p_zr
    np.tanh(zr, out=zr)
    zr *= HALF
    zr += HALF
    np.multiply(r, h, out=rh)
    np.dot(u_h, rh, out=c)
    c += p_h
    np.tanh(c, out=c)
    np.subtract(c, h, out=h_out)
    h_out *= z
    h_out += h


def _dropout_masks(spec: ModelSpec, batch: int, training: bool, rng):
    """Per layer below the top, its output's dropout mask, feature-major
    (H, B): drawn as (B, H) from rng, keep probability 1 - dropout, scaled
    by 1/keep. None outside training, without dropout or at depth 1."""
    if not training or spec.dropout == 0.0 or spec.depth < 2:
        return None
    if rng is None:
        raise UsageError("dropout requires an rng during training")
    keep = 1.0 - spec.dropout
    return [
        np.ascontiguousarray((rng.random((batch, spec.hidden)) < keep).T, dtype=np.float64)
        / keep
        for _ in range(spec.depth - 1)
    ]


def _gru_weight_grads(cache, GA):
    """Weight and bias gradients from the gate adjoints GA[l] (T, 3H, B),
    each a sum over the chunk of per-step outer products (`_sum_outer`)."""
    spec = cache["spec"]
    Hs, HP, Rs = cache["H"], cache["HP"], cache["R"]
    masks = cache["masks"]
    H = spec.hidden
    grads: dict[str, Array] = {}
    for l in range(spec.depth):
        if l == 0:
            # the layer-0 input is u plus the fed-back outputs (none in NAR)
            x = cache["X0"]
        else:
            x = Hs[l - 1] * masks[l - 1] if masks else Hs[l - 1]
        ga = GA[l]
        gw = _sum_outer(x, ga)
        gu_zr = _sum_outer(HP[l], ga[:, : 2 * H])
        gu_h = _sum_outer(Rs[l] * HP[l], ga[:, 2 * H :])
        gb = ga.sum(axis=(0, 2))
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
    when AR runs free, its layer-0 input at t being X0[t] = [u_t | fb_t]
    with fb_t its own previous standardized output. Every mode projects X0
    for the whole chunk in one matmul before the time loop. Free-running,
    fb_0 is state.last_output and fb_t (t >= 1) is head.b in that
    projection; the rest of fb_t = head.W^T @ h_top(t-1) + head.b enters
    through F = (head.W @ W0_fb)^T, so a step adds one F @ h_top. The head
    runs once after the loop and writes the fed-back outputs into X0, which
    the cache keeps. The z/r rows of every transposed weight, bias and F are
    halved once per chunk for `_gru_step`, in copies; params is not written.

    The core is feature-major: a step's state and scratch are (features, B)
    and every per-chunk array is time-major (T, features, B), so each block a
    step reads or writes is contiguous. The carried state is (B, H) and is
    transposed once on entry and once on exit. A recording step writes its
    gates straight into the cache's (T, 2H, B) gate array, whose z and r
    halves are the Z and R caches, and its candidate into C. The cache keeps
    the unhalved matrices and, formed after the loop over the whole chunk,
    the factors the backward multiplies by.
    """
    B, T, W = u.shape
    H, L, I = spec.hidden, spec.depth, spec.input_dim
    free = W < spec.feed_dim  # AR feeding back its own output
    mats = [_gru_layer_mats(params, l) for l in range(L)]
    steps = [_step_mats(m, H, B) for m in mats]
    masks = _dropout_masks(spec, B, training, rng)
    w_y, b_y = params["head.W"], params["head.b"]
    w0, b0, _, _ = steps[0]
    X0 = np.empty((T, spec.feed_dim, B))  # layer-0 inputs
    X0[:, :W] = u.transpose(1, 2, 0)
    if free:
        # fb_0 is last_output and fb_t is b_y until the loop's outputs fill
        # in Y[t-1]: fb_t = head.W^T @ h_top(t-1) + b_y, so a step adds the
        # rest as F @ h_top(t-1)
        X0[0, I:] = state.last_output.T
        X0[1:, I:] = b_y[:, None]
        F = w0[:, I:] @ w_y.T  # (3H, H)
    proj0 = _chunk_product(w0, X0)
    proj0 += b0
    P_zr, P_h = proj0[:, : 2 * H], proj0[:, 2 * H :]
    # S[l][0] is the carried state and S[l][t+1] the state after step t, so
    # the previous states are the view S[l][:-1]
    S = [np.empty((T + 1, H, B)) for _ in range(L)]
    for s, h in zip(S, state.gru_h):
        s[0] = h.T
    hs = [s[0] for s in S]  # read only: each step writes its h' into S
    # per-step scratch, shared by the layers: gates, r*h, the candidate,
    # above layer 0 the input projection, and with dropout the masked input
    # of the layer above; a recording step writes gates and candidate into
    # the cache instead
    zr = np.empty((2 * H, B))
    rh = np.empty((H, B))
    buf = (zr, zr[:H], zr[H:], rh)
    c = np.empty((H, B))
    proj = np.empty((3 * H, B))
    p_zr_l, p_h_l = proj[: 2 * H], proj[2 * H :]
    dropped = np.empty((H, B))
    if record:
        ZR = [np.empty((T, 2 * H, B)) for _ in range(L)]
        Zs, Rs = [a[:, :H] for a in ZR], [a[:, H:] for a in ZR]
        Cs = [np.empty((T, H, B)) for _ in range(L)]
    for t in range(T):
        if free and t:
            proj_t = proj0[t]  # `proj0[t] += ...` would also write the view back
            proj_t += F @ hs[L - 1]
        p_zr, p_h = P_zr[t], P_h[t]
        for l in range(L):
            w, b, u_zr, u_h = steps[l]
            if l > 0:
                np.dot(w, x, out=proj)
                proj += b
                p_zr, p_h = p_zr_l, p_h_l
            h = S[l][t + 1]
            if record:
                _gru_step(p_zr, p_h, hs[l], u_zr, u_h, (ZR[l][t], Zs[l][t], Rs[l][t], rh),
                          Cs[l][t], h)
            else:
                _gru_step(p_zr, p_h, hs[l], u_zr, u_h, buf, c, h)
            hs[l] = h
            if l < L - 1:
                x = np.multiply(h, masks[l], out=dropped) if masks else h
    Hs = [s[1:] for s in S]
    Y = _chunk_product(w_y.T, Hs[L - 1])  # (T, O, B)
    Y += b_y[:, None]
    y = Y.transpose(2, 0, 1).copy()
    last_output = None
    if free:
        last_output = Y[T - 1].T.copy()
        X0[1:, I:] = Y[:-1]
    new_state = HiddenState(gru_h=[h.T.copy() for h in hs], last_output=last_output)
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
                 "shape": u.shape, "backward": _gru_backward}
    return y, new_state, cache


def _gru_backward(cache, g_y: Array, need_input_grad: bool):
    """Reverse sweep through a cached GRU chunk; returns (grads, du).

    Feature-major like the forward: a step's adjoints are (features, B)
    blocks and the gate adjoints GA[l] are (T, 3H, B), so every block a step
    touches is contiguous, and the unhalved layer matrices multiply from the
    left untransposed (Uh @ g, [Uz|Ur] @ g, w_cat @ g). A step's gate
    adjoints are g times the factors the forward cached: 1-z for the carried
    state, (c - h_prev)*z*(1-z) for z, z*(1-c**2) for the candidate, and
    h_prev*r*(1-r) times the candidate's adjoint pulled through Uh for r.
    In every mode the input's adjoint (du) is one product per chunk. With
    the input known (NAR, teacher-forced AR) so is the top layer's adjoint
    from the head; free-running, each output's adjoint also collects the
    adjoint of the next step's fed-back input, W0_fb @ GA[0][t], so a step
    forms that and the head adjoint. Each layer's carried adjoint is one
    (H, B) buffer that a step updates in place, and the products through Uh,
    [Uz|Ur] and (above layer 0) the input weights go through np.dot into
    buffers allocated once per call, where the dropout mask is applied in
    place; the feedback's per-step products stay matmuls. The cache is only
    read.
    """
    params = cache["params"]
    spec = cache["spec"]
    Hs, HP, Rs = cache["H"], cache["HP"], cache["R"]
    OMZ, FZ, FC, FR = cache["omz"], cache["fz"], cache["fc"], cache["fr"]
    masks, mats = cache["masks"], cache["mats"]
    B, T, W = cache["shape"]
    H, L, O, I = spec.hidden, spec.depth, spec.output_dim, spec.input_dim
    feedback = W < spec.feed_dim
    w_y = params["head.W"]
    # a copy, never a view of g_y: the feedback adjoint accumulates in place
    GY = g_y.transpose(1, 2, 0).copy()  # (T, O, B)
    if not feedback:
        g_top = _chunk_product(w_y, GY)
    GA = [np.empty((T, 3 * H, B)) for _ in range(L)]
    # each layer's carried adjoint accumulates in place: g_h is read and
    # written element by element, so `g += g_above` is gh_carry + g_above
    gh_carry = [np.zeros((H, B)) for _ in range(L)]
    g_rh, g_zr = np.empty((H, B)), np.empty((H, B))
    gx = np.empty((H, B))
    w0_fb = mats[0][0][I:]  # the feedback rows of w_cat, (O, 3H)
    g_fb = np.zeros((O, B))
    for t in range(T - 1, -1, -1):
        if feedback:
            GY[t] += g_fb
            g_above = w_y @ GY[t]
        else:
            g_above = g_top[t]
        for l in range(L - 1, -1, -1):
            w, _, u_zr, u_h = mats[l]
            ga = GA[l][t]
            g = gh_carry[l]
            g += g_above
            np.dot(u_h, np.multiply(g, FC[l][t], out=ga[2 * H :]), out=g_rh)
            np.multiply(g, FZ[l][t], out=ga[:H])
            np.multiply(g_rh, FR[l][t], out=ga[H : 2 * H])
            g *= OMZ[l][t]
            g_rh *= Rs[l][t]
            g += g_rh
            g += np.dot(u_zr, ga[: 2 * H], out=g_zr)
            if l > 0:
                g_above = np.dot(w, ga, out=gx)
                if masks:
                    g_above *= masks[l - 1]
        if feedback:
            g_fb = w0_fb @ GA[0][t]
    grads = _gru_weight_grads(cache, GA)
    grads["head.W"] = _sum_outer(Hs[L - 1], GY)
    grads["head.b"] = GY.sum(axis=(0, 2))
    gu = np.matmul(mats[0][0], GA[0])[:, :I].transpose(2, 0, 1).copy() if need_input_grad else None
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
                 "shape": u.shape, "backward": _tcn_nar_backward}
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


def _tcn_skip0(params: ParamStore, spec: ModelSpec) -> Array | None:
    """Layer 0's skip as a (C_in, H) matrix: I, the projection, or None."""
    proj = params.get("tcn.0.proj")
    if proj is not None:
        return proj[:, :, 0].T
    return np.eye(spec.hidden) if spec.residual else None


def _tcn_fold(params: ParamStore, spec: ModelSpec):
    """Layer 0 and the head folded, feature-major, as `_tcn_ar_forward`
    steps them; returns (A, G).

    A (kernel, 2H, C_in) holds layer 0's taps oldest first, each mapping an
    input column to its share of [q; s]: [W_j; 0] for a past tap and
    [W_now + S; S] for the current one, S being the skip (I, the
    projection, or 0), so that layer 0's output relu(pre) + s is max(q, s)
    with q = pre + s. G (2H, kernel*H) holds A_j[:, input_dim:] @ head.W.T
    side by side over the taps: G times a window of the last kernel top
    outputs, oldest first, stacked as one (kernel*H, B) block, is the share
    of [q; s] that the fed-back outputs bring, less head.b's.
    """
    k = params["tcn.0.kernel"]
    H = k.shape[0]
    A = np.zeros((k.shape[2], 2 * H, k.shape[1]))
    A[:, :H] = k.transpose(2, 0, 1)
    skip = _tcn_skip0(params, spec)
    if skip is not None:
        A[-1, :H] += skip.T
        A[-1, H:] = skip.T
    G = np.concatenate(A[:, :, spec.input_dim :] @ params["head.W"].T, axis=1)
    return A, G


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


def _tcn_ar_steps(u, conv, last_output, pads, ins, tops, params, spec, record):
    """Fill `_tcn_ar_forward`'s arrays and run its time loop; returns layer
    0's q > s mask when recording, else None.

    Layer l's past taps are at least 2**l samples old, so at the first step
    of each 2**l-sample block from the chunk start they are summed with the
    bias into the block's pre rows (capped at the chunk's end), before the
    layers step: per tap a matmul into scratch, then np.add of the bias (the
    first tap) or of pre into pre. They read only inputs older than the step.
    Without past taps (kernel 1) pre is the bias throughout. A step is then
    two numpy calls per layer above layer 0, q = [I | W_now] @ [pre; v] (an
    identity skip folded in as W_now + I) and max(q, v), or max(q, 0)
    without a skip, into the next layer's v rows; layer 0 adds G @ window
    to its [q; s] and takes max(q, s). The known share of [q; s] is one
    product over the windows of kernel layer-0 input rows, each a
    contiguous (kernel*C_in, B) block.
    """
    B, T, I = u.shape
    H, K = spec.hidden, spec.kernel
    for x, tail in zip(ins, conv.tails):
        n = len(x) - T
        x[: n - len(tail)] = 0.0  # samples before the sequence start
        x[n - len(tail) : n] = tail.transpose(0, 2, 1)
    # layer-0 inputs [u_t; fb_t]: fb_0 is last_output, fb_t is head.b until
    # the caller fills in y
    X0 = ins[0][-T:]
    X0[:, :I] = u.transpose(1, 2, 0)
    X0[0, I:] = last_output.T
    X0[1:, I:] = params["head.b"][:, None]
    A, G = _tcn_fold(params, spec)
    rows0 = as_strided(ins[0], (T, K * spec.feed_dim, B), ins[0].strides)  # ins[0][t : t + K]
    QS = _chunk_product(np.concatenate(A, axis=1), rows0)
    Q, S = QS[:, :H], QS[:, H:]
    Q += params["tcn.0.bias"][:, None]
    tops[:K] = 0.0
    wins = as_strided(tops, (T, K * H, B), tops.strides)  # wins[t] is tops[t : t + K]
    outs = [x[-T:] for x in ins[1:]] + [tops[K:]]  # each layer's outputs
    steps, blocks = [], []
    for l, (k, bias, _, identity_skip) in enumerate(_tcn_layers(params, spec)[1:], 1):
        w_now = k[:, :, -1] + np.eye(H) if identity_skip else k[:, :, -1]
        steps.append((np.concatenate([np.eye(H), w_now], axis=1), pads[l][-T:], outs[l],
                      identity_skip))
        if K == 1:  # no past taps
            pads[l][:, :H] = bias[:, None]
        else:
            blocks.append((pads[l], [np.ascontiguousarray(k[:, :, j]) for j in range(K - 1)],
                           bias[:, None], 2 ** l))
    prod, q = np.empty((2 * H, B)), np.empty((H, B))
    scratch = np.empty((min(T, 2 ** (spec.depth - 1)), H, B))
    for t in range(T):
        # the blocks starting at t: the dilations double, so the first layer
        # whose block does not start here ends the search
        for pad, past, bias, d in blocks:
            if t % d:
                break
            m = min(d, T - t)
            r = len(pad) - T + t  # step t's row
            pre = pad[r : r + m, :H]
            for j, w in enumerate(past):
                lo = r - (len(past) - j) * d  # the rows tap j reads
                np.matmul(w, pad[lo : lo + m, H:], out=scratch[:m])
                np.add(scratch[:m], pre if j else bias, out=pre)
        qs = QS[t]
        qs += np.dot(G, wins[t], out=prod)
        v = np.maximum(Q[t], S[t], out=outs[0][t])
        for M, rows, out, identity_skip in steps:
            v = np.maximum(np.dot(M, rows[t], out=q), v if identity_skip else ZERO, out=out[t])
    return Q > S if record else None


def _tcn_ar_forward(u, conv, last_output, params, spec, record):
    """Free-running AR TCN, one step at a time, feature-major: every
    per-step operand is one contiguous (features, B) block. Equals a naive
    full-history recompute.

    Layer 0's inputs [u_t; fb_t] follow its context in one (n_0 + T, C_in, B)
    array; each layer l above it keeps one (n_l + T, 2H, B) array of
    [pre; v] rows, v its context and then its chunk inputs, which the
    layer below writes as it goes (`_tcn_ar_steps`). Layer 0 and the head
    are folded (`_tcn_fold`): the known share of layer 0's [q; s] (bias,
    every tap over u, head.b's share of each in-chunk feedback tap, the
    carried last output and tail feedback) is convolved once per chunk, and
    a step adds G times the window of the last kernel top outputs, a
    contiguous (kernel*H, B) view of the (kernel + T, H, B) top-output array
    whose first kernel rows are zeros (their feedback is in the known share).
    After the loop one product gives y and layer 0's fed-back column; the new
    tails are the inputs' last rows, transposed back to (n, B, C_in).

    Recording runs the same loop, so the training forward gives the
    cache-free forward's bits. The cache keeps each layer's inputs as a
    channel-major (C_in, n_l + T, B) copy (each layer's rows are released
    once copied), the top outputs and layer 0's q > s mask; the backward
    forms the other masks from the kept outputs.
    """
    B, T, I = u.shape
    H, K, L = spec.hidden, spec.kernel, spec.depth
    lens = [(K - 1) * 2 ** l for l in range(L)]
    pads = [np.empty((lens[0] + T, spec.feed_dim, B))]
    pads += [np.empty((n + T, 2 * H, B)) for n in lens[1:]]
    ins = pads[:1] + [pad[:, H:] for pad in pads[1:]]  # each layer's inputs
    tops = np.empty((K + T, H, B))
    mask0 = _tcn_ar_steps(u, conv, last_output, pads, ins, tops, params, spec, record)
    w_y, b_y = params["head.W"], params["head.b"]
    Y = _chunk_product(w_y.T, tops[K:])  # (T, O, B)
    Y += b_y[:, None]
    pads[0][lens[0] + 1 :, I:] = Y[:-1]
    tails = [x[max(n - len(tail), T) :].transpose(0, 2, 1).copy()
             for x, n, tail in zip(ins, lens, conv.tails)]
    cache = None
    if record:
        xs = []
        for l in range(L):
            xs.append(np.ascontiguousarray(ins[l].transpose(1, 0, 2)))
            pads[l] = ins[l] = None
        cache = {"xs": xs, "tops": tops, "mask0": mask0, "spec": spec, "params": params,
                 "shape": u.shape, "backward": _tcn_ar_backward}
    state = HiddenState(conv=ConvCache(spec, tails), last_output=Y[T - 1].T.copy())
    return Y.transpose(2, 0, 1).copy(), state, cache


def _tcn_ar_sweep(GR: list, steps: list, M0: Array, T: int) -> None:
    """The descending time loop of `_tcn_ar_backward` over its [g_pre; g_out]
    row arrays GR, each g_pre half holding its layer's mask; steps[l - 1] is
    layer l's [W_now^T | I or 0], its past taps transposed and its dilation.
    After the layers' steps at t, each block that starts at t, its g_pre
    rows now complete, adds its past taps' adjoints into the g_out rows the
    taps read.
    """
    L, H, B = len(GR), GR[0].shape[1] // 2, GR[0].shape[2]
    K = len(M0) // H
    rows = [g[len(g) - T :] for g in GR]
    layers = [(steps[l - 1][0], rows[l], rows[l - 1]) for l in range(L - 1, 0, -1)]
    blocks = [(rows[l], GR[l - 1], past, d) for l, (_, past, d) in enumerate(steps, 1) if past]
    g_tops = GR[L - 1]
    buf, gwin = np.empty((H, B)), np.empty((K * H, B))
    gwin_rows = gwin.reshape(K, H, B)
    scratch = np.empty((min(T, 2 ** (L - 1)), H, B))
    for t in range(T - 1, -1, -1):
        for Mb, R, R_below in layers:
            row = R[t]
            g_pre = row[:H]
            np.multiply(row[H:], g_pre, out=g_pre)
            below = R_below[t, H:]
            below += np.dot(Mb, row, out=buf)
        row = rows[0][t]
        g_pre = row[:H]
        np.multiply(row[H:], g_pre, out=g_pre)
        win = g_tops[t : t + K, H:]
        np.dot(M0, row, out=gwin)
        win += gwin_rows
        for R, G_below, past, d in blocks:
            if t % d:
                break
            m = min(d, T - t)
            g_pres = R[t : t + m, :H]
            r = len(G_below) - T + t  # step t's row in the layer below's g_out
            for j, w in enumerate(past):
                lo = r - (len(past) - j) * d  # the rows tap j read
                g_in = G_below[lo : lo + m, H:]
                g_in += np.matmul(w, g_pres, out=scratch[:m])


def _tcn_ar_backward(cache, g_y: Array, need_input_grad: bool):
    """Reverse-time adjoint sweep through the cached AR-TCN chunk,
    feature-major like the forward.

    Adjoints only flow from later to earlier time (conv taps and the output
    feedback both look backward), so one descending pass over t with a
    top-down layer loop visits every node after its dependents
    (`_tcn_ar_sweep`). Each layer keeps one array of [g_pre; g_out] rows:
    g_out, its outputs' adjoint, after rows for the context those outputs
    feed (the layer above's, or the top layer's kernel window), whose
    adjoints are dropped as the context is data, not graph; g_pre starts as
    the layer's float mask, formed once per chunk from the cache: out > v
    for an identity skip (max(q, v) > v is the forward's q > v, so a zero
    pre-activation sends the adjoint through the skip only), out > 0
    without one, and layer 0's cached q > s. A step above layer 0 is three
    numpy calls: the mask times g_out into g_pre, one product by
    [W_now^T | I] ([W_now^T | 0] without a skip), one add into the layer
    below's g_out; a block's past-tap adjoints take one matmul per tap once
    the block's g_pre rows are complete, before any step those taps read
    (they lie at least 2**l samples back).

    Layer 0 and the head mirror the forward's fold. The top outputs'
    adjoints start as head.W @ g_y. A layer-0 step masks its row and adds
    M0 @ row into the window of top-output adjoints it read: g_pre through
    the kernel's feedback rows and the head, g_out through the skip's.
    After the sweep every kernel, bias and projection gradient, layer 0's
    input adjoint, and from it du and the fed-back outputs' adjoints (so the
    head's gradients), is one product over the chunk on channel-major
    operands; each layer's rows are dropped once its gradients are formed.
    """
    spec, params = cache["spec"], cache["params"]
    xs, tops = cache["xs"], cache["tops"]
    B, T, _ = cache["shape"]
    I, O, H, K, L = spec.input_dim, spec.output_dim, spec.hidden, spec.kernel, spec.depth
    w_y = params["head.W"]
    k0, skip = params["tcn.0.kernel"], _tcn_skip0(params, spec)
    layers = _tcn_layers(params, spec)
    lens = [(K - 1) * 2 ** l for l in range(L)]
    GR = [np.zeros((c + T, 2 * H, B)) for c in lens[1:] + [K]]
    GR[0][-T:, :H] = cache["mask0"]
    for l in range(1, L):
        out = xs[l + 1][:, lens[l + 1] :].transpose(1, 0, 2) if l < L - 1 else tops[K:]
        v = xs[l][:, lens[l] :].transpose(1, 0, 2) if layers[l][3] else ZERO
        np.greater(out, v, out=GR[l][-T:, :H])
    # channel-major (O, T, B); the fed-back outputs' adjoints join it
    GY = g_y.transpose(2, 1, 0).copy()
    GR[L - 1][K:, H:] = np.dot(w_y, GY.reshape(O, T * B)).reshape(H, T, B).transpose(1, 0, 2)
    steps = []
    for l, (k, _, _, identity_skip) in enumerate(layers[1:], 1):
        Mb = np.concatenate([k[:, :, -1].T, np.eye(H) if identity_skip else np.zeros((H, H))],
                            axis=1)
        steps.append((Mb, [np.ascontiguousarray(k[:, :, j].T) for j in range(K - 1)], 2 ** l))
    M0 = np.zeros((K * H, 2 * H))
    M0[:, :H] = (w_y @ k0[:, I:].transpose(2, 1, 0)).reshape(K * H, H)
    if skip is not None:
        M0[(K - 1) * H :, H:] = w_y @ skip[I:]
    _tcn_ar_sweep(GR, steps, M0, T)
    grads: dict[str, Array] = {}
    for l in range(L - 1, -1, -1):
        g = GR.pop()
        gp = np.ascontiguousarray(g[-T:, :H].transpose(1, 0, 2)).reshape(H, T * B)
        if l == 0:
            g_out0 = np.ascontiguousarray(g[-T:, H:].transpose(1, 0, 2)).reshape(H, T * B)
        del g
        x, d = xs[l], 2 ** l
        dk = np.empty((H, len(x), K))
        for j in range(K):
            lo = lens[l] - (K - 1 - j) * d
            dk[:, :, j] = gp @ x[:, lo : lo + T].reshape(len(x), T * B).T
        grads[f"tcn.{l}.kernel"] = dk
        grads[f"tcn.{l}.bias"] = gp.sum(axis=1)
    # layer 0's input adjoint (C_in, T, B): its skip over g_out, its taps
    # transposed over g_pre, tap j of step t reading input t - (K-1-j)
    X0 = xs[0][:, lens[0] :].reshape(len(xs[0]), T * B)
    g_x0 = (np.zeros(X0.shape) if skip is None else np.dot(skip, g_out0)).reshape(-1, T, B)
    gp0 = gp.reshape(H, T, B)
    for j in range(K):
        n = T - (K - 1 - j)
        g_x0[:, :n] += np.dot(k0[:, :, j].T, gp0[:, T - n :].reshape(H, n * B)).reshape(-1, n, B)
    if "tcn.0.proj" in params:
        grads["tcn.0.proj"] = np.dot(g_out0, X0.T)[:, :, None]
    # fb_t is y_{t-1}: its adjoint joins g_y's (fb_0, last_output, is data)
    GY[:, :-1] += g_x0[I:, 1:]
    grads["head.W"] = np.tensordot(tops[K:], GY, axes=([0, 2], [1, 2]))
    grads["head.b"] = GY.sum(axis=(1, 2))
    gu = g_x0[:I].transpose(2, 1, 0).copy() if need_input_grad else None
    return grads, gu


# ---------------------------------------------------------------------------
# unified model handle
# ---------------------------------------------------------------------------


@dataclass
class Model:
    """A spec plus its parameters: the only entry for running a chunk.

    forward checks every chunk (input, teacher, carried state) against the
    spec and routes it to its architecture's core; backward refuses a cache
    of another spec, checks g_y against the cache and runs the backward of
    the core that built it.
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
        y; returns (grads, du), du being None unless need_input_grad. The
        cache must come from a forward of a model with this spec."""
        if cache["spec"] != self.spec:
            raise UsageError(f"the cache is from a forward of {cache['spec']}, "
                             f"not of this model's {self.spec}")
        B, T, _ = cache["shape"]
        if np.shape(g_y) != (B, T, self.spec.output_dim):
            raise DimensionError(f"g_y has shape {np.shape(g_y)}, "
                                 f"expected {(B, T, self.spec.output_dim)}")
        return cache["backward"](cache, g_y, need_input_grad)
