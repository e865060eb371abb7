"""Time the model kernels of a parent commit against the current checkout, in
one process and in alternating blocks.

    python tools/kernel_pairs.py SCRATCH_DIR [--parent HEAD~1] [--hidden 32]
        [--batch 16] [--time 64] [--depth 1] [--output-dim 1]

The parent revision is exported with `git archive` into SCRATCH_DIR/parent
(replaced if it exists), as `bench_pairs.py` does, and its `src/sidnn` is
imported as the package `sidnn_parent`; the checkout's `src/sidnn`,
uncommitted edits included, is imported as `sidnn`. The package uses only
relative imports, so the two live side by side. BLAS runs on one thread
(`OPENBLAS_NUM_THREADS=1`, set before numpy loads).

For each of the four variants (GRU and TCN, NAR and AR, at --depth; the
benchmark's TCNs run depth 10; with --output-dim outputs, fed back in AR) both
sides get the same parameters and inputs,
and three kernels are timed: the training forward (`return_cache=True`) and
the backward of one (batch, time) chunk, and a simulation, a cache-free
forward of one sequence of SIM_LEN samples at batch 1 (what
`inference.simulate` runs). Each of BLOCKS blocks times REPS
calls of one side and then of the other, the side that goes first switching
from block to block. It prints per kernel the median seconds per call of
each side, the change's relative difference, and the blocks the change won,
then per variant the largest difference between the sides of the outputs and
of the parameter and input gradients, each relative to the largest magnitude
of the parent's array.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from bench_pairs import ROOT, export, load_models, rel_diff  # noqa: E402

SIM_LEN = 1023
BLOCKS = 40
REPS = 5


def kernels(models, arch: str, mode: str, arrays: dict, args, u, g, u_sim):
    """The three timed calls of one side, each returning what it computes."""
    spec = models.ModelSpec(arch=arch, mode=mode, input_dim=u.shape[2], hidden=args.hidden,
                            depth=args.depth, output_dim=args.output_dim)
    model = models.Model(spec=spec, params=models.ParamStore(arrays))
    _, _, cache = model.forward(u, None, training=True, return_cache=True)

    def train_fwd():
        return model.forward(u, None, training=True, return_cache=True)[0]

    def bwd():
        return model.backward(cache, g, need_input_grad=True)

    def sim():
        return model.forward(u_sim, None)[0]

    return {"train_fwd": train_fwd, "bwd": bwd, "sim": sim}


def per_call(fn) -> float:
    start = time.perf_counter()
    for _ in range(REPS):
        fn()
    return (time.perf_counter() - start) / REPS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("scratch", type=Path, help="directory for the parent's package")
    parser.add_argument("--parent", default="HEAD~1", help="git revision of the parent")
    parser.add_argument("--hidden", type=int, default=32)
    parser.add_argument("--batch", type=int, default=16)
    parser.add_argument("--time", type=int, default=64)
    parser.add_argument("--depth", type=int, default=1)
    parser.add_argument("--output-dim", type=int, default=1)
    args = parser.parse_args()
    if min(args.hidden, args.batch, args.time, args.depth, args.output_dim) < 1:
        parser.error("sizes must be >= 1")
    parent_dir = args.scratch.resolve() / "parent"
    export(args.parent, parent_dir)
    sides = {"parent": load_models("sidnn_parent", parent_dir / "src" / "sidnn"),
             "change": load_models("sidnn", ROOT / "src" / "sidnn")}
    outputs = f" output_dim {args.output_dim}" if args.output_dim > 1 else ""
    print(f"parent {args.parent} vs checkout; H{args.hidden} depth {args.depth}{outputs} "
          f"B{args.batch} T{args.time}, simulation B1 T{SIM_LEN}; "
          f"{BLOCKS} blocks of {REPS} calls")
    print(f"{'kernel':22s} {'parent s':>10s} {'change s':>10s} {'diff':>8s} {'won':>7s}")
    rng = np.random.default_rng(0)
    for arch in ("gru", "tcn"):
        for mode in ("nar", "ar"):
            variant = f"{arch}_{mode}"
            models = sides["change"]
            spec = models.ModelSpec(arch=arch, mode=mode, input_dim=1, hidden=args.hidden,
                                    depth=args.depth, output_dim=args.output_dim)
            arrays = dict(models.init_params(spec, 0))
            u = rng.standard_normal((args.batch, args.time, 1))
            g = rng.standard_normal((args.batch, args.time, args.output_dim))
            u_sim = rng.standard_normal((1, SIM_LEN, 1))
            calls = {side: kernels(m, arch, mode, arrays, args, u, g, u_sim)
                     for side, m in sides.items()}
            for name in calls["parent"]:
                times = {"parent": [], "change": []}
                for block in range(BLOCKS):
                    order = ("parent", "change") if block % 2 == 0 else ("change", "parent")
                    for side in order:
                        times[side].append(per_call(calls[side][name]))
                p, c = (statistics.median(times[s]) for s in ("parent", "change"))
                won = sum(b < a for a, b in zip(times["parent"], times["change"]))
                print(f"{variant + '.' + name:22s} {p:10.3e} {c:10.3e} {(c - p) / p:+8.1%} "
                      f"{won:>3d}/{BLOCKS:<3d}")
            p, c = ({name: fn() for name, fn in calls[side].items()} for side in sides)
            out_diff = max(rel_diff(p[k], c[k]) for k in ("train_fwd", "sim"))
            (grads_p, du_p), (grads_c, du_c) = p["bwd"], c["bwd"]
            grad_diff = max([rel_diff(grads_p[k], grads_c[k]) for k in grads_p]
                            + [rel_diff(du_p, du_c)])
            print(f"{variant}: largest relative difference, outputs {out_diff:.2e}, "
                  f"gradients {grad_diff:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
