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
values). The GRU runs one recurrence for both modes (NAR carries a
zero-width feedback). Every GRU mode computes its layer-0 input projection
for the whole chunk in one matmul; free-running AR adds its feedback per step
as the top layer's previous state times F = head.W @ W0_fb (W0_fb: the
feedback rows of the layer-0 input weights), and the head runs once per
chunk. The backward reads the fed-back outputs from the cache and is
unchanged by the fold. A GRU step forms both gates with one tanh, as
sig(a) = 1/2 + tanh(a/2)/2 on z/r weight columns halved once per chunk; a
cached forward then forms the backward's per-step factors for the whole
chunk at once, so a backward step is a few multiplies and two matmuls. The
carried state is checked against the spec and batch before a chunk runs
(`HiddenState.check`). Both TCN modes carry the same state, each layer's
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
matmul per layer, and the backward mirrors this. An identity skip is folded
into the current tap as w_now + I, once per chunk, so a step accumulates
q = pre + v and outputs max(q, v): three numpy calls per layer, every product
through np.dot into a buffer allocated once per chunk. Its cached mask is
q > v, which keeps pre > 0's rule that a zero pre-activation sends the
adjoint through the skip only.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

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
    cache is state only: the weights are passed to each call.
    """

    spec: ModelSpec
    tails: list[Array]

    @classmethod
    def init(cls, spec: ModelSpec, batch: int) -> "ConvCache":
        return cls(spec=spec, tails=[np.empty((0, batch, spec.feed_dim if l == 0 else spec.hidden))
                                     for l in range(spec.depth)])

    def check(self, batch: int) -> None:
        spec = self.spec
        if len(self.tails) != spec.depth:
            raise StateError(f"cache holds {len(self.tails)} layer tails, expected {spec.depth}")
        for l, tail in enumerate(self.tails):
            n, c_in = (spec.kernel - 1) * 2 ** l, spec.feed_dim if l == 0 else spec.hidden
            if tail.ndim != 3 or tail.shape[1:] != (batch, c_in) or len(tail) > n:
                raise StateError(
                    f"layer {l} tail has shape {tail.shape}, expected (<= {n}, {batch}, {c_in})"
                )

    def advanced(self, l: int, rows: Array) -> Array:
        """Layer l's tail after rows (T, B, C_in), its inputs of the T samples
        after the tail: the last (kernel-1)*2**l rows of tail + rows, as
        a new array."""
        keep = (self.spec.kernel - 1) * 2 ** l - len(rows)  # rows of the old tail kept
        if keep <= 0:
            return rows[-keep:].copy()
        return np.concatenate([self.tails[l][-keep:], rows])


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
        """Raise StateError unless every carried array fits spec and batch;
        an unset gru_h or conv is left to the caller."""
        if self.gru_h is not None:
            if len(self.gru_h) != spec.depth:
                raise StateError(
                    f"state holds {len(self.gru_h)} GRU layers, expected {spec.depth}")
            for l, h in enumerate(self.gru_h):
                if np.shape(h) != (batch, spec.hidden):
                    raise StateError(f"layer {l} GRU state has shape {np.shape(h)}, "
                                     f"expected {(batch, spec.hidden)}")
        if self.conv is not None:
            self.conv.check(batch)
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
    B, T = cache["shape"]
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


def _check_seq_input(u: Array, spec: ModelSpec, teacher: Array | None) -> None:
    if u.ndim != 3:
        raise DimensionError(f"expected (batch, time, channels) input, got shape {u.shape}")
    if u.shape[2] != spec.input_dim:
        raise DimensionError(
            f"input has {u.shape[2]} channels, spec expects {spec.input_dim}"
        )
    if u.shape[1] < 1:
        raise InputError("input must contain at least one time step")
    if teacher is not None and np.shape(teacher) != u.shape[:2] + (spec.output_dim,):
        raise DimensionError(f"teacher has shape {np.shape(teacher)}, "
                             f"expected {u.shape[:2] + (spec.output_dim,)}")


def gru_forward(
    u: Array,
    state: HiddenState | None,
    params: ParamStore,
    spec: ModelSpec,
    *,
    teacher: Array | None = None,
    training: bool = False,
    rng=None,
    return_cache: bool = False,
):
    """Stacked GRU over one chunk; returns (y, final state[, cache]).

    In AR mode the layer-0 input at t is concat(u_t, fb), where fb is the
    model's own previous standardized output, or the teacher sample
    (standardized ground truth) when a teacher sequence is supplied. Every
    mode computes the known part of the layer-0 projection for the whole
    chunk in one matmul before the time loop: all of it in NAR and
    teacher-forced AR. Free-running AR hoists the u part, and folds the
    feedback fb = h @ head.W + head.b through F = head.W @ W0_fb, so a step
    adds one h_top @ F; its first step uses state.last_output instead. The
    head runs once after the loop. The z/r columns of every weight, bias and
    F are halved once per chunk for `_gru_step`, in copies; params is not
    written. The cache keeps the unhalved matrices and, formed after the
    loop over the whole chunk, the factors the backward multiplies by.
    """
    _check_seq_input(u, spec, teacher)
    B, T, I = u.shape
    H, L, O = spec.hidden, spec.depth, spec.output_dim
    ar = spec.mode == "ar"
    if state is None:
        state = initial_state(spec, B)
    state.check(spec, B)
    mats = [_gru_layer_mats(params, l) for l in range(L)]
    steps = [_halved_zr(m, H) for m in mats]
    masks = _dropout_masks(spec, B, training, rng)
    w_y, b_y = params["head.W"], params["head.b"]
    w0, b0, _, _ = steps[0]
    free = ar and teacher is None
    # scratch arrays are time-major (T, B, .) so each step touches one
    # contiguous block; (B, T, .) slicing thrashes caches for long chunks
    X0 = U = np.ascontiguousarray(u.transpose(1, 0, 2))
    if ar and (return_cache or not free):
        # layer-0 inputs [u_t | fb_t]: fb_0 is last_output, fb_t the teacher
        # sample t-1 or, free-running, Y[t-1], filled in after the loop
        X0 = np.empty((T, B, I + O))
        X0[:, :, :I] = U
        X0[0, :, I:] = state.last_output
        if not free:
            X0[1:, :, I:] = teacher[:, :-1].transpose(1, 0, 2)
    if free:
        # fb_t = h_top(t-1) @ w_y + b_y enters layer 0 as h_top(t-1) @ F plus
        # b_y @ w0_fb, so only the matmul by F stays in the loop
        w0_fb = w0[I:]
        F = w_y @ w0_fb  # (H, 3H)
        proj0 = (U.reshape(T * B, I) @ w0[:I] + b0).reshape(T, B, 3 * H)
        proj0[0] += state.last_output @ w0_fb
        proj0[1:] += b_y @ w0_fb
    else:
        proj0 = (X0.reshape(T * B, -1) @ w0 + b0).reshape(T, B, 3 * H)
    P_zr, P_h = proj0[:, :, : 2 * H], proj0[:, :, 2 * H :]
    # S[l][0] is the carried state and S[l][t+1] the state after step t, so
    # the previous states are the view S[l][:-1]
    S = [np.empty((T + 1, B, H)) for _ in range(L)]
    for s, h in zip(S, state.gru_h or [ZERO] * L):
        s[0] = h
    hs = [s[0] for s in S]  # read only: each step writes its h' into S
    if return_cache:
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
            if return_cache:
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
    if ar:
        last_output = (Y[T - 1] if free else teacher[:, T - 1]).copy()
        if free and return_cache:
            X0[1:, :, I:] = Y[:-1]
    new_state = HiddenState(gru_h=[h.copy() for h in hs], last_output=last_output)
    if return_cache:
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
                 "shape": (B, T), "teacher_forced": ar and teacher is not None}
        return y, new_state, cache
    return y, new_state


def gru_backward(cache, g_y: Array, *, need_input_grad: bool = False):
    """Reverse sweep through a cached gru_forward chunk; returns (grads, du).

    A step's gate adjoints are g times the factors the forward cached:
    1-z for the carried state, (c - h_prev)*z*(1-z) for z, z*(1-c**2) for
    the candidate, and h_prev*r*(1-r) times the candidate's adjoint pulled
    through Uh for r. In AR mode each output's adjoint also collects the
    adjoint of the next step's fed-back input, unless that input was
    teacher-forced. The cache is only read.
    """
    params = cache["params"]
    spec = cache["spec"]
    Hs, HP, Rs = cache["H"], cache["HP"], cache["R"]
    OMZ, FZ, FC, FR = cache["omz"], cache["fz"], cache["fc"], cache["fr"]
    masks, mats = cache["masks"], cache["mats"]
    B, T = cache["shape"]
    H, L, O, I = spec.hidden, spec.depth, spec.output_dim, spec.input_dim
    ar = spec.mode == "ar"
    feedback = ar and not cache["teacher_forced"]
    w_y_t = params["head.W"].T
    # a copy, never a view of g_y: the feedback adjoint accumulates in place
    GY = g_y.transpose(1, 0, 2).copy()
    if not ar:
        g_top = (GY.reshape(T * B, O) @ w_y_t).reshape(T, B, H)
    mats_t = [(w_cat.T, u_zr.T, u_h.T) for w_cat, _, u_zr, u_h in mats]
    GA = [np.empty((T, B, 3 * H)) for _ in range(L)]
    gh_carry = [np.zeros((B, H)) for _ in range(L)]
    gu = np.empty((T, B, I)) if need_input_grad else None
    g_fb = np.zeros((B, O))
    for t in range(T - 1, -1, -1):
        if ar:
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
        tails.append(conv.advanced(l, x.transpose(2, 0, 1)))
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
        cache = {"xs": xs, "ctxs": ctxs, "masks": masks, "spec": spec, "params": params}
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
    """Per layer, what a step of `_tcn_step` reads: the past taps as
    contiguous (C_in, H) matrices stacked oldest first, the bias, the
    current-tap matrix w, a (batch, w columns) product buffer and its views
    `now` (the pre-activation's share) and `side` (the projection's share, or
    None), and whether the skip is the identity.

    An identity skip is folded into the current tap as w_now + I, so a step
    accumulates q = pre + v and its output relu(pre) + v is max(q, v). A
    projection is appended to the current tap's columns, [w_now | proj], so
    one product serves both. The buffers are allocated here, once per chunk.
    """
    layers = []
    for k, bias, proj, identity_skip in _tcn_layers(params, spec):
        w = np.ascontiguousarray(k.T)  # (kernel, C_in, H)
        w_now = w[-1]
        if identity_skip:
            w_now = w_now + np.eye(len(w_now))
        elif proj is not None:
            w_now = np.concatenate([w_now, proj[:, :, 0].T], axis=1)
        H = len(bias)
        prod = np.empty((batch, w_now.shape[1]))
        now, side = (prod, None) if proj is None else (prod[:, :H], prod[:, H:])
        layers.append((w[:-1], bias, w_now, prod, now, side, identity_skip))
    return layers


def _tcn_step(layers: list, a_pad: list, P: list, t: int, tmp: Array) -> Array:
    """Run every layer at step t of a chunk of T = len(P[0]) samples; returns
    the top output.

    a_pad[l] holds layer l's inputs, its context and then the chunk's T
    rows; layer l accumulates its pre-activation in P[l][t] and writes its
    output to chunk row t of a_pad[l+1]. Layer l reads tap j from
    (kernel-1-j)*2**l samples ago, so its past taps are at least 2**l samples
    old: at the first step of each 2**l-sample block from the chunk start, one
    matmul per past tap writes the past taps for the whole block into P[l]
    (the first through out=, the bias added after), and every row that reads
    is already written. Each step then adds its current tap through the
    layer's product buffer and takes the output as max(P, v) for an identity
    skip (w_now + I folded, see `_tcn_step_layers`) or max(P, 0) plus the
    projection's share otherwise: three numpy calls for an identity or no
    skip, four with a projection. tmp is a (B, H) scratch for the second and
    later past taps of a one-row block. A kernel-1 layer has no past taps,
    and the caller fills its P with the bias.
    """
    T = len(P[0])
    v = a_pad[0][t - T]
    B = len(v)
    for l, (w_past, bias, w, prod, now, side, identity_skip) in enumerate(layers):
        d = 2 ** l
        pre = P[l][t]
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
                blk = P[l][t : t + m].reshape(m * B, -1)
                np.dot(a[lo : lo + m].reshape(m * B, -1), w_past[0], out=blk)
                for j in range(1, len(w_past)):
                    blk += np.dot(a[lo + j * d : lo + j * d + m].reshape(m * B, -1), w_past[j])
                blk += bias
        row = a_pad[l + 1][t - T]
        np.dot(v, w, out=prod)
        pre += now
        np.maximum(pre, v if identity_skip else ZERO, out=row)
        if side is not None:
            row += side
        v = row
    return v


def conv_cache_step(cache: ConvCache, params: ParamStore, x_t: Array) -> Array:
    """Advance the cached conv stack one step in place; cost independent of
    history.

    x_t is the full network input vector (B, feed_dim): concat(u_t, y_{t-1})
    in AR mode, u_t in NAR mode; returns the head output (B, output_dim).
    With the whole input known, a step is the NAR convolution over a
    one-sample chunk after the tails (`_tcn_nar_forward`), and the new tails
    replace the cache's. For streaming one sample at a time, in either mode;
    whole chunks go through tcn_forward, which hands on the same cache.
    """
    spec = cache.spec
    if x_t.ndim != 2 or x_t.shape[1] != spec.feed_dim:
        raise DimensionError(f"step input shape {x_t.shape} != (B, {spec.feed_dim})")
    cache.check(x_t.shape[0])
    y, state, _ = _tcn_nar_forward(x_t[:, None], cache, params, spec, False)
    cache.tails[:] = state.conv.tails
    return y[:, 0]


def _tcn_ar_forward(u, conv, last_output, params, spec, record):
    """Free-running AR TCN, one step at a time.

    Sequential generation with input concat(u_t, own previous output); equals
    a naive full-history recompute. Each layer's inputs, preceded by its
    context (zeros before the sequence start, then its tail), and its
    accumulated pre-activations are kept in dense time-major arrays: each step
    reads its past taps from them and the new tails are their last rows. With
    record set, the cache keeps the input arrays and a bool mask per layer,
    formed once after the time loop: P > v for an identity skip (the
    accumulator holds q = pre + v, and q > v is pre > 0 with a zero
    pre-activation sending the adjoint through the skip only), P > 0
    otherwise.
    """
    B, T, I = u.shape
    H = spec.hidden
    layers = _tcn_step_layers(params, spec, B)
    w_y, b_y = params["head.W"], params["head.b"]
    lens = [(spec.kernel - 1) * 2 ** l for l in range(spec.depth)]
    a_pad = []
    for n, tail in zip(lens, conv.tails):
        a = np.empty((n + T,) + tail.shape[1:])
        a[: n - len(tail)] = 0.0  # samples before the sequence start
        a[n - len(tail) : n] = tail
        a_pad.append(a)
    a_pad.append(np.empty((T, B, H)))  # top-layer outputs, no context
    P = [np.empty((T, B, H)) for _ in range(spec.depth)]  # pre-activations
    if spec.kernel == 1:  # no past taps: the bias starts every step's sum
        for p, (_, bias, *_) in zip(P, layers):
            p[...] = bias
    tmp = np.empty((B, H))
    # layer-0 inputs [u_t | fb]; fb is written in as the loop reaches t
    X0 = a_pad[0][lens[0] :]
    X0[:, :, :I] = u.transpose(1, 0, 2)
    Y = np.empty((T, B, spec.output_dim))
    fb = last_output
    for t in range(T):
        x0 = X0[t]
        x0[:, I:] = fb
        v = _tcn_step(layers, a_pad, P, t, tmp)
        fb = Y[t]
        np.dot(v, w_y, out=fb)
        fb += b_y
    y = np.ascontiguousarray(Y.transpose(1, 0, 2))
    tails = [conv.advanced(l, a[n:]) for l, (n, a) in enumerate(zip(lens, a_pad))]
    cache = None
    if record:
        masks = [p > (a[n:] if identity_skip else 0.0)
                 for p, a, n, (*_, identity_skip) in zip(P, a_pad, lens, layers)]
        cache = {"a_pad": a_pad, "masks": masks, "lens": lens, "spec": spec,
                 "params": params, "shape": (B, T)}
    return y, HiddenState(conv=ConvCache(spec, tails), last_output=fb.copy()), cache


def _tcn_ar_backward(cache, g_y: Array, need_input_grad: bool):
    """Reverse-time adjoint sweep through the cached AR-TCN chunk.

    Adjoints only ever flow from later to earlier time (conv taps and
    the output feedback both look backward), so one descending pass over t
    with a top-down layer loop visits every node after its dependents. Each
    step adds the current-tap and skip adjoints, g_in += g_pre @ w_now.T +
    g_out for an identity skip: with the cached mask q > v this is the exact
    adjoint of the forward's max(q, v), q = pre + v @ (w_now + I). A block's
    past-tap adjoints are added with one matmul per tap at its first step,
    which comes before any step those taps read (they lie at least 2**l
    samples back); blocks start at the chunk start, as in the forward. The
    transposed tap and projection matrices are made contiguous once per
    chunk, and per-step products go through np.dot into one (B, C_in)
    buffer per layer. Adjoints of the carried context are dropped, as the
    context is data, not graph.
    """
    spec = cache["spec"]
    params = cache["params"]
    a_pad, masks, lens = cache["a_pad"], cache["masks"], cache["lens"]
    B, T = cache["shape"]
    I, O, H = spec.input_dim, spec.output_dim, spec.hidden
    depth = spec.depth
    layers = []
    for k, _, proj, identity_skip in _tcn_layers(params, spec):
        taps_t = np.ascontiguousarray(k.transpose(2, 0, 1))  # (kernel, H, C_in)
        proj_t = None if proj is None else np.ascontiguousarray(proj[:, :, 0])
        layers.append((taps_t[:-1], taps_t[-1], proj_t, identity_skip,
                       np.empty((B, k.shape[1]))))
    w_y_t = np.ascontiguousarray(params["head.W"].T)
    g_head = np.empty((B, H))
    # a copy, never a view of g_y: the feedback adjoint accumulates in place
    GY = g_y.transpose(1, 0, 2).copy()
    g_a = [np.zeros_like(a) for a in a_pad]
    g_outs = [a[len(a) - T :] for a in g_a[1:]]  # adjoint of layer l's outputs
    g_pres = [np.empty((T, B, H)) for _ in range(depth)]
    g_fb = np.zeros((B, O))
    gu = np.empty((T, B, I)) if need_input_grad else None
    for t in range(T - 1, -1, -1):
        GY[t] += g_fb
        g_outs[-1][t] += np.dot(GY[t], w_y_t, out=g_head)
        for l in range(depth - 1, -1, -1):
            past_t, now_t, proj_t, identity_skip, prod = layers[l]
            d = 2 ** l
            g_out = g_outs[l][t]
            g_pre = np.multiply(g_out, masks[l][t], out=g_pres[l][t])
            g_in = g_a[l][lens[l] + t]
            g_in += np.dot(g_pre, now_t, out=prod)
            if identity_skip:
                g_in += g_out
            elif proj_t is not None:
                g_in += np.dot(g_out, proj_t, out=prod)
            if len(past_t) and t % d == 0:
                m = min(d, T - t)
                lo = lens[l] + t - len(past_t) * d
                if m == 1:  # one row: no reshapes
                    for j, w in enumerate(past_t):
                        g_a[l][lo + j * d] += np.dot(g_pre, w, out=prod)
                else:
                    G = g_pres[l][t : t + m].reshape(m * B, H)
                    for j, w in enumerate(past_t):
                        rows = g_a[l][lo + j * d : lo + j * d + m].reshape(m * B, -1)
                        rows += np.dot(G, w)
        gx0 = g_a[0][lens[0] + t]  # final: the rest of the sweep adds to earlier rows only
        g_fb = gx0[:, I:]
        if need_input_grad:
            gu[t] = gx0[:, :I]
    grads: dict[str, Array] = {}
    for l, (_, _, proj_t, _, _) in enumerate(layers):
        d = 2 ** l
        dk = np.empty_like(params[f"tcn.{l}.kernel"])
        for j in range(spec.kernel):
            lo = lens[l] - (spec.kernel - 1 - j) * d
            dk[:, :, j] = np.tensordot(g_pres[l], a_pad[l][lo : lo + T],
                                       axes=([0, 1], [0, 1]))
        grads[f"tcn.{l}.kernel"] = dk
        grads[f"tcn.{l}.bias"] = g_pres[l].sum(axis=(0, 1))
        if proj_t is not None:
            dp = np.tensordot(g_outs[l], a_pad[l][lens[l] :], axes=([0, 1], [0, 1]))
            grads[f"tcn.{l}.proj"] = dp[:, :, None]
    gy_flat = GY.reshape(T * B, O)
    top_flat = a_pad[depth].reshape(T * B, H)
    grads["head.W"] = top_flat.T @ gy_flat
    grads["head.b"] = gy_flat.sum(axis=0)
    if gu is not None:
        gu = np.ascontiguousarray(gu.transpose(1, 0, 2))
    return grads, gu


def tcn_forward(
    u: Array,
    state: HiddenState | None,
    params: ParamStore,
    spec: ModelSpec,
    *,
    teacher: Array | None = None,
    return_cache: bool = False,
):
    """TCN over one chunk: dilation 2**l at layer l, ReLU, optional residual;
    returns (y, new state[, cache]).

    Both modes carry per-layer input tails (state.conv, never modified).
    NAR convolves the whole chunk at once, each layer after its tail, and so
    does AR given a teacher, over [u_t | y_{t-1}] with y_{-1} = last_output.
    Free-running AR generates step by step, each layer's past taps read from
    its tail and the chunk's earlier samples.
    """
    _check_seq_input(u, spec, teacher)
    if state is None:
        state = initial_state(spec, u.shape[0])
    elif state.conv is None:
        raise StateError("TCN forward needs state.conv tails")
    else:
        state.check(spec, u.shape[0])
    if spec.mode == "nar":
        y, new_state, cache = _tcn_nar_forward(u, state.conv, params, spec, return_cache)
    elif teacher is None:
        y, new_state, cache = _tcn_ar_forward(u, state.conv, state.last_output, params, spec,
                                              return_cache)
    else:
        fb = np.concatenate([state.last_output[:, None], teacher[:, :-1]], axis=1)
        y, new_state, cache = _tcn_nar_forward(np.concatenate([u, fb], axis=2), state.conv,
                                               params, spec, return_cache)
        new_state.last_output = teacher[:, -1].copy()
    if return_cache:
        return y, new_state, cache
    return y, new_state


def tcn_backward(cache, g_y: Array, *, need_input_grad: bool = False):
    """Gradients of a cached tcn_forward chunk; returns (grads, du)."""
    if "xs" in cache:  # built by the convolution
        return _tcn_nar_backward(cache, g_y, need_input_grad)
    return _tcn_ar_backward(cache, g_y, need_input_grad)


# ---------------------------------------------------------------------------
# unified model handle
# ---------------------------------------------------------------------------


@dataclass
class Model:
    """A spec plus its parameters, with arch-dispatched forward/backward."""

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
        """Run one chunk; returns (y, new_state[, cache])."""
        if self.spec.arch == "gru":
            return gru_forward(u, state, self.params, self.spec, teacher=teacher,
                               training=training, rng=rng, return_cache=return_cache)
        return tcn_forward(u, state, self.params, self.spec, teacher=teacher,
                           return_cache=return_cache)

    def backward(self, cache, g_y: Array, *, need_input_grad: bool = False):
        """Gradients for a cached forward chunk; returns (grads, du)."""
        backward = gru_backward if self.spec.arch == "gru" else tcn_backward
        return backward(cache, g_y, need_input_grad=need_input_grad)
