"""sidnn benchmark: one run of one workload.

    python3 perfbench/run.py --workload len1023 --seed 0 --seconds 60 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory. --seconds bounds the whole run, set-up included, unless
the machine is too slow for its fixed work (see workloads.measure). With
--trace 0 the run times every end-to-end metric; with --trace 1 it runs the
same measurement twice, untraced and then traced, and reports the per-layer
metrics and the tracing overhead. Human-readable lines
and one JSON report (environment, sample counts, percentiles, AR/NAR ratios,
checks) come first; the last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}.

Claims measured on one seed must also hold on the confirmation seed below.
"""

import os
import time

T_LAUNCH = time.perf_counter()

# One BLAS thread: the machine has two cores and the search runs two workers.
# Set before numpy is first imported, as OpenBLAS reads it when it loads.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

CONFIRM_SEED = 1
SETUP_REPEATS = 3
# a traced run measures twice, so each pass is shorter, and it runs a fixed
# number of sweep rounds so that its counts repeat exactly
TRACE_CYCLES = 2
TRACE_ROUNDS_PER_CYCLE = 2


def load_program():
    """Import sidnn from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import sidnn
        from sidnn import checkpoint, cli, data, hpo, inference, models, numkit, training
    except ImportError as exc:
        print(f"cannot import sidnn from {SRC}: {exc}", file=sys.stderr)
        return None
    if not Path(sidnn.__file__).resolve().is_relative_to(SRC):
        print(f"sidnn resolved to {sidnn.__file__}, outside {SRC}", file=sys.stderr)
        return None
    return SimpleNamespace(checkpoint=checkpoint, cli=cli, data=data, hpo=hpo,
                           inference=inference, models=models, numkit=numkit,
                           training=training)


def timing_stats(samples: list[float]) -> dict:
    """Sample count, minimum, median, and the highest of a few percentiles
    with at least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    out = {"n": n, "min": xs[0] if xs else None,
           "median": statistics.median(xs) if xs else None}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = -(-p * n // 100)  # 1-based rank of the p-th percentile
        if n - rank >= 10:
            out[f"p{p:g}"] = xs[int(rank) - 1]
            break
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sk = load_program()
    if sk is None:
        return 2
    import envinfo
    import layers
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.LENGTHS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.LENGTHS)}", file=sys.stderr)
        return 2

    (HERE / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=HERE / "_work"))
    checks = workloads.Checks()
    ref = workloads.Reference()
    tracer = None
    try:
        import_s = time.perf_counter() - T_LAUNCH
        setups = []
        for _ in range(SETUP_REPEATS):
            ref()
            t0 = time.perf_counter()
            ctx = workloads.setup(args.workload, args.seed, work, checks, ref)
            # the imports ran once, before the first set-up; each sample counts them
            setups.append((t0, import_s + time.perf_counter() - t0))
            ref()
        setup_s = workloads.normalized(setups, ref)

        if not args.trace:
            m = workloads.measure(ctx, checks, end=T_LAUNCH + args.seconds)
            values = e2e = workloads.end_to_end(m)
            values["setup_s"] = setup_s
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = workloads.UNITS
        else:
            plan = dict(cycles=TRACE_CYCLES, rounds_per_cycle=TRACE_ROUNDS_PER_CYCLE)
            base = workloads.measure(ctx, checks, **plan)
            tracer = Tracer()
            layers.install(tracer, sk)
            try:
                m = workloads.measure(ctx, checks, **plan)
            finally:
                tracer.restore()
            checks.op(m.train_eval["rmse"] == base.train_eval["rmse"],
                      "tracing changed test_rmse")
            values = layers.layer_metrics(tracer, eval_sequences=1)
            units = dict(layers.PER_LAYER)
            untraced, traced = workloads.end_to_end(base), workloads.end_to_end(m)
            e2e = traced
            for name in layers.OVERHEAD:
                key = f"trace.overhead.{name}"
                if traced[name] is not None and untraced[name] is not None:
                    values[key] = traced[name] - untraced[name]
                units[key] = {**workloads.UNITS, **workloads.INFO_UNITS}[name]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name in units:
        if values.get(name) is None:
            checks.op(False, f"{name} was not measured")
            values[name] = 0.0

    raw = {f"{kind}.{variant}": times for (kind, variant), times in m.cells.items()}
    raw["train_s"] = m.train_eval["train_s"]
    raw["eval_s"] = m.train_eval["eval_s"]
    raw["setup_s"] = setups
    series = {name: timing_stats([t for _, t in pairs]) for name, pairs in raw.items()}
    series["search_s"] = timing_stats(m.search["wall_s"])
    report = {
        "workload": args.workload, "seed": args.seed, "confirm_seed": CONFIRM_SEED,
        "trace": args.trace, "seconds": args.seconds, "sweep_length": ctx.length,
        "sweep_rounds": m.rounds, "environment": envinfo.environment(ROOT, args.seed, BLAS_PIN),
        "import_s": import_s, "timings": series, "search": m.search,
        "ar_over_nar": workloads.ar_nar_ratios(m),
        "informational": {name: {"value": e2e[name], "unit": unit}
                          for name, unit in workloads.INFO_UNITS.items()},
        "checks": {"attempted": checks.attempted, "failed": checks.failed,
                   "fail_frac": checks.failed / max(checks.attempted, 1),
                   "problems": checks.problems[:50]},
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**report, "samples": raw, "reference": list(zip(ref.starts, ref.times)),
                   **({"spans": tracer.dump()} if tracer else {})}, fh)

    for name, unit in units.items():
        print(f"{name:36s} {values[name]:14.6g} {unit}")
    for name, info in report["informational"].items():
        print(f"{name:36s} {info['value']!s:>14.8} {info['unit']} (informational, no bound)")
    for name, ratio in report["ar_over_nar"].items():
        print(f"{'ratio.' + name:36s} {ratio:14.4g} (informational, no bound)")
    print(f"{'fail_frac':36s} {report['checks']['fail_frac']:14.4g} "
          f"({checks.failed} of {checks.attempted})")
    for problem in checks.problems[:20]:
        print(f"FAILED: {problem}")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
