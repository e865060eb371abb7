"""Print one sha256 over what all four model variants compute on a fixed grid,
and what a fixed-seed `fit` trains, then one sha256 per variant (GRU-NAR,
GRU-AR, TCN-NAR, TCN-AR) and one for the fits (FIT).

    python tools/identity_hash.py [--parent REV]

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
    and per arch one AR spec with output_dim 2 x B 1/3 x teacher forcing,
    where the head's products have more than one column;
    and the benchmark's GRU shape: hidden 32, depth 1 x NAR/AR x B 1/16
    (x teacher forcing in AR), the path of its train and evaluate phases;
    and the benchmark's TCN shape: hidden 4, depth 10, kernel 2, input_dim
    1 x NAR/free-running AR x B 1/16, over 2,130 samples split 1,030 +
    1,100, so that blocks of up to 512 rows and carried tails of up to 512
    rows are hashed (the other cases run 7 + 13 samples).

Parameters are drawn at random (biases non-zero), so ReLU patterns mix; the
depth-10 cases draw them at 0.2 standard deviations, the others at 0.5.

The fit cases train GRU-NAR, GRU-AR, teacher-forced GRU-AR (hidden 4, depth
2), TCN-NAR, TCN-AR and teacher-forced TCN-AR (hidden 4, depth 6) from seed
0 for 2 epochs, the lr finder choosing lr_max, on 2,000 synthetic
Wiener-Hammerstein samples in windows of 128 cut into chunks of 32. Each
window's first chunk lies wholly in the warm-up mask (40 samples for the
GRU, the TCN's receptive field of 63) and the second partly. A case hashes
its history rows (wall_seconds left out), its lr_max and its final
parameters.

With --parent, REV is exported with `git archive` into a temporary directory
(as `bench_pairs.py` does) and its package imported as `sidnn_parent`, beside
the checkout's; both run the grid, and each family's line gives both hashes
and the largest difference of any array between the sides, relative to the
largest magnitude of the parent's array. A change that moves numbers in the
last bits reports that figure. There the teacher-forced AR cases get their
own line per arch ("GRU-AR teacher-forced"), apart from the free-running ones,
since the two run different code, and so do the output_dim 2 cases
("GRU-AR teacher-forced output_dim 2") and the depth-10 TCN cases
("TCN-AR depth 10"), and each fit variant ("fit TCN-AR teacher-forced depth 6").
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import sys
import tempfile
from pathlib import Path

import numpy as np
from bench_pairs import ROOT, export, load_models, rel_diff

sys.path.insert(0, str(ROOT / "src"))

from sidnn import models as checkout_models  # noqa: E402

# (chunk lengths, parameter scale): 7 + 13 exceeds the receptive field of
# depth 3, kernel 3; each deep chunk exceeds depth 10's, 1023, and the
# smaller scale keeps its free-running feedback bounded over 2,130 steps
SPLIT = ((7, 13), 0.5)
DEEP_SPLIT = ((1030, 1100), 0.2)
INPUT_DIM = 2
BATCHES = (1, 3)


def _specs(models):
    """(spec, teacher forced, batch sizes, (split, scale)) of every spec of the grid."""
    ModelSpec = models.ModelSpec
    for mode, depth, dropout, teacher in itertools.product(
            ("nar", "ar"), (1, 2, 3), (0.0, 0.3), (False, True)):
        if teacher and mode == "nar":
            continue
        spec = ModelSpec(arch="gru", mode=mode, input_dim=INPUT_DIM, hidden=4,
                         depth=depth, dropout=dropout)
        yield spec, teacher, BATCHES, SPLIT
    for mode, depth, kernel, skip, teacher in itertools.product(
            ("nar", "ar"), (1, 2, 3), (1, 2, 3), ("identity", "off", "proj"),
            (False, True)):
        if teacher and mode == "nar":
            continue
        feed = INPUT_DIM + (1 if mode == "ar" else 0)
        spec = ModelSpec(arch="tcn", mode=mode, input_dim=INPUT_DIM,
                         hidden=feed if skip == "identity" else 4, depth=depth,
                         kernel=kernel, residual=skip != "off")
        yield spec, teacher, BATCHES, SPLIT
    for arch, teacher in itertools.product(("gru", "tcn"), (False, True)):
        yield ModelSpec(arch=arch, mode="ar", input_dim=INPUT_DIM, hidden=4, depth=2,
                        output_dim=2), teacher, BATCHES, SPLIT
    for mode, teacher in (("nar", False), ("ar", False), ("ar", True)):
        yield ModelSpec(arch="gru", mode=mode, input_dim=INPUT_DIM, hidden=32,
                        depth=1), teacher, (1, 16), SPLIT
    for mode in ("nar", "ar"):
        yield ModelSpec(arch="tcn", mode=mode, input_dim=1, hidden=4, depth=10,
                        kernel=2), False, (1, 16), DEEP_SPLIT


def _state_arrays(state):
    arrays = list(state.gru_h or [])
    if state.conv is not None:
        arrays += state.conv.tails
    return arrays + ([] if state.last_output is None else [state.last_output])


def _case_arrays(models, spec, teacher_forced: bool, batch: int, run, seed: int):
    split, scale = run
    rng = np.random.default_rng(seed)
    params = models.ParamStore({name: scale * rng.standard_normal(shape)
                                for name, shape in models.param_shapes(spec).items()})
    model = models.Model(spec=spec, params=params)
    T1, T = split[0], sum(split)
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


def _fit_arrays(models, spec, teacher_forced: bool):
    package = models.__package__
    data = importlib.import_module(f"{package}.data").synth_wiener_hammerstein(2000, seed=0)
    training = importlib.import_module(f"{package}.training")
    config = training.TrainConfig(max_epochs=2, window_len=128, chunk_len=32, batch_size=4,
                                  teacher_forcing=teacher_forced, warmup_mask_n=40)
    result = training.fit(models.Model.create(spec, 0), data, config)
    yield np.array([(r.epoch, r.train_rmse, r.valid_rmse, r.lr) for r in result.history])
    yield np.array([result.lr_max])
    yield from (result.params[name] for name in result.params.names())


def _family(spec) -> str:
    return f"{spec.arch}-{spec.mode}".upper()


def _detail(spec, teacher_forced: bool) -> str:
    """The family name with what runs different code: teacher forcing, an
    output_dim above 1 and a depth above 3."""
    name = _family(spec) + (" teacher-forced" if teacher_forced else "")
    name += f" output_dim {spec.output_dim}" if spec.output_dim > 1 else ""
    return name + (f" depth {spec.depth}" if spec.depth > 3 else "")


def _grid(models):
    """(family, detailed family, case arrays) of every case, in order: the
    model grid, then the fits."""
    seed = 0
    for spec, teacher_forced, batches, run in _specs(models):
        for batch in batches:
            yield (_family(spec), _detail(spec, teacher_forced),
                   [np.array(a, order="C")
                    for a in _case_arrays(models, spec, teacher_forced, batch, run, seed)])
            seed += 1
    for arch, mode, teacher_forced in (("gru", "nar", False), ("gru", "ar", False),
                                       ("gru", "ar", True), ("tcn", "nar", False),
                                       ("tcn", "ar", False), ("tcn", "ar", True)):
        spec = models.ModelSpec(arch=arch, mode=mode, input_dim=1, hidden=4,
                                depth=2 if arch == "gru" else 6)
        yield ("FIT", "fit " + _detail(spec, teacher_forced),
               [np.array(a, order="C") for a in _fit_arrays(models, spec, teacher_forced)])


def _update(h, a: np.ndarray) -> None:
    h.update(f"{a.dtype}{a.shape}".encode())
    h.update(a.tobytes())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="git revision to compare the checkout with")
    args = parser.parse_args()
    if args.parent is None:
        report(checkout_models)
        return
    with tempfile.TemporaryDirectory() as scratch:
        parent_dir = Path(scratch) / "parent"
        export(args.parent, parent_dir)
        compare(load_models("sidnn_parent", parent_dir / "src" / "sidnn"), checkout_models,
                args.parent)


def report(models) -> None:
    digest = hashlib.sha256()
    families: dict[str, list] = {}  # variant -> [sha256, cases, arrays]
    cases = arrays = 0
    for name, _, case in _grid(models):
        family = families.setdefault(name, [hashlib.sha256(), 0, 0])
        for a in case:
            for h in (digest, family[0]):
                _update(h, a)
        arrays += len(case)
        family[2] += len(case)
        cases += 1
        family[1] += 1
    print(f"{cases} cases, {arrays} arrays, sha256 {digest.hexdigest()}")
    for name, (h, n_cases, n_arrays) in families.items():
        print(f"{name}: {n_cases} cases, {n_arrays} arrays, sha256 {h.hexdigest()}")


def compare(parent, change, rev: str) -> None:
    families: dict[str, list] = {}  # variant -> [parent sha256, change sha256, largest diff]
    for (_, name, case_p), (_, _, case_c) in zip(_grid(parent), _grid(change), strict=True):
        family = families.setdefault(name, [hashlib.sha256(), hashlib.sha256(), 0.0])
        for a, b in zip(case_p, case_c, strict=True):
            _update(family[0], a)
            _update(family[1], b)
            diff = rel_diff(a, b) if a.shape == b.shape else float("inf")
            family[2] = max(family[2], diff)
    print(f"parent {rev} vs checkout")
    for name, (h_p, h_c, diff) in families.items():
        same = "unchanged" if h_p.digest() == h_c.digest() else "moved"
        print(f"{name}: {same}, parent sha256 {h_p.hexdigest()}, "
              f"checkout sha256 {h_c.hexdigest()}, largest relative difference {diff:.3g}")


if __name__ == "__main__":
    main()
