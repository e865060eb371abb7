"""Print one sha256 over what all four model variants compute on a fixed grid,
then one sha256 per variant (GRU-NAR, GRU-AR, TCN-NAR, TCN-AR).

    python tools/identity_hash.py

A refactor that must not change a single bit (buffer reuse, a different
loop order with the same arithmetic) prints the same hash before and after.
Per case it hashes the outputs, final states, every parameter gradient and
the input gradient of a cached training forward/backward, and the outputs
and final states of the cache-free inference forward; each for one
monolithic call and for the same sequence split into two chunks with the
state carried. A change meant to alter one variant shows the other three
unchanged in their own lines. The grid is fixed:

    GRU: NAR/AR x depth 1-3 x B 1/3 x dropout 0/0.3 (x teacher forcing in AR)
    TCN: NAR/AR x depth 1-3 x kernel 1-3 x residual identity/off/projection
         x B 1/3 (x teacher forcing in AR)

Parameters are drawn at random (biases non-zero), so ReLU patterns mix.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sidnn.models import Model, ModelSpec, ParamStore, param_shapes  # noqa: E402

T1, T2 = 7, 13  # the split chunk; T1 + T2 exceeds the receptive field of depth 3, kernel 3
INPUT_DIM = 2


def _specs():
    for mode, depth, dropout, teacher in itertools.product(
            ("nar", "ar"), (1, 2, 3), (0.0, 0.3), (False, True)):
        if teacher and mode == "nar":
            continue
        spec = ModelSpec(arch="gru", mode=mode, input_dim=INPUT_DIM, hidden=4,
                         depth=depth, dropout=dropout)
        yield spec, teacher
    for mode, depth, kernel, skip, teacher in itertools.product(
            ("nar", "ar"), (1, 2, 3), (1, 2, 3), ("identity", "off", "proj"),
            (False, True)):
        if teacher and mode == "nar":
            continue
        feed = INPUT_DIM + (1 if mode == "ar" else 0)
        spec = ModelSpec(arch="tcn", mode=mode, input_dim=INPUT_DIM,
                         hidden=feed if skip == "identity" else 4, depth=depth,
                         kernel=kernel, residual=skip != "off")
        yield spec, teacher


def _state_arrays(state):
    arrays = list(state.gru_h or [])
    if state.conv is not None:
        arrays += state.conv.tails
    return arrays + ([] if state.last_output is None else [state.last_output])


def _case_arrays(spec: ModelSpec, teacher_forced: bool, batch: int, seed: int):
    rng = np.random.default_rng(seed)
    params = ParamStore({name: 0.5 * rng.standard_normal(shape)
                         for name, shape in param_shapes(spec).items()})
    model = Model(spec=spec, params=params)
    T = T1 + T2
    u = rng.standard_normal((batch, T, spec.input_dim))
    teacher = rng.standard_normal((batch, T, spec.output_dim)) if teacher_forced else None
    g_y = rng.standard_normal((batch, T, spec.output_dim))
    for bounds in (((0, T),), ((0, T1), (T1, T))):
        for cached in (True, False):
            state = model.initial_state(batch)
            drop_rng = np.random.default_rng(seed + 1)
            for lo, hi in bounds:
                kw = {} if teacher is None else {"teacher": teacher[:, lo:hi]}
                if cached:
                    y, state, cache = model.forward(u[:, lo:hi], state, training=True,
                                                    rng=drop_rng, return_cache=True, **kw)
                    grads, du = model.backward(cache, g_y[:, lo:hi], need_input_grad=True)
                    yield from (grads[name] for name in sorted(grads))
                    yield du
                else:
                    y, state = model.forward(u[:, lo:hi], state, **kw)
                yield y
                yield from _state_arrays(state)


def main() -> None:
    digest = hashlib.sha256()
    families: dict[str, list] = {}  # variant -> [sha256, cases, arrays]
    cases = arrays = 0
    for spec, teacher_forced in _specs():
        family = families.setdefault(f"{spec.arch}-{spec.mode}".upper(),
                                     [hashlib.sha256(), 0, 0])
        for batch in (1, 3):
            for a in _case_arrays(spec, teacher_forced, batch, seed=cases):
                a = np.ascontiguousarray(a)
                for h in (digest, family[0]):
                    h.update(f"{a.dtype}{a.shape}".encode())
                    h.update(a.tobytes())
                arrays += 1
                family[2] += 1
            cases += 1
            family[1] += 1
    print(f"{cases} cases, {arrays} arrays, sha256 {digest.hexdigest()}")
    for name, (h, n_cases, n_arrays) in families.items():
        print(f"{name}: {n_cases} cases, {n_arrays} arrays, sha256 {h.hexdigest()}")


if __name__ == "__main__":
    main()
