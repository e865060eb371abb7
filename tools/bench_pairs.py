"""Compare a parent commit with the current checkout on the benchmark, in
alternating pairs of runs.

    python tools/bench_pairs.py SCRATCH_DIR [--parent HEAD~1] [--pairs 10] [--seeds 0 1]

The parent revision is exported with `git archive` into SCRATCH_DIR/parent
(replaced if it exists); the change is this checkout, uncommitted edits
included. For every seed and pair, each workload of `BENCHMARK.json` runs
`perfbench/run.py` once per side for the benchmark's `run_seconds`, each in
its own process and its own checkout; the side that runs first switches from
pair to pair, so a slow spell of the machine falls on both sides alike.
Nothing under `perfbench/` is written except its output directories.

For every seed, workload and end-to-end metric of `BENCHMARK.json` it prints
the median of each side, the parent's interquartile range (IQR), the pairs
the change won, the relative difference of the medians, and whether that
difference exceeds the parent's IQR. A metric whose parent IQR over median
exceeds its bound is marked unresolved: the runs spread too widely to judge
it. Below that table it prints each side's median of the AR/NAR time ratios
from each run's report line (`ar_over_nar`: `train.gru`, `train.tcn`,
`sim.gru`, `sim.tcn`), the quantities criterion 6 of the acceptance suite
orders; they are informational and have no bound. Every run's metrics and
ratios are also written to SCRATCH_DIR/pairs.json.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def export(rev: str, dest: Path) -> None:
    """Write the tree of rev into dest, which is replaced."""
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    archive = dest.with_suffix(".tar")
    subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", "-o", str(archive), rev],
                   check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def load_models(name: str, package: Path):
    """Import the package directory under name; returns its models module.
    The package uses only relative imports, so an exported parent's package
    lives beside the checkout's `sidnn`."""
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.models")


def rel_diff(parent, change) -> float:
    """Largest absolute difference of two arrays over the largest magnitude
    of the parent's (the plain difference when that is zero)."""
    scale = float(abs(parent).max()) if parent.size else 0.0
    diff = float(abs(change - parent).max()) if parent.size else 0.0
    return diff / scale if scale else diff


def run(checkout: Path, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """One benchmark run; returns ({metric: value}, {ratio: value}) from its
    result and report lines, both empty when the run failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else {}
    if not result.get("correct") or result.get("failed"):
        print(f"  FAILED in {checkout}: {' '.join(cmd[1:])} (exit {done.returncode})",
              file=sys.stderr)
        return {}, {}
    report = json.loads(lines[-2])["report"]
    return ({name: m["value"] for name, m in result["metrics"].items()},
            dict(report["ar_over_nar"]))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(runs: list[dict], metrics: list[dict]) -> None:
    keys = sorted({(r["seed"], r["workload"]) for r in runs})
    for seed, workload in keys:
        pairs: dict[int, dict] = {}
        ratios: dict[int, dict] = {}
        for r in runs:
            if (r["seed"], r["workload"]) == (seed, workload) and r["metrics"]:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
                ratios.setdefault(r["pair"], {})[r["side"]] = r["ratios"]
        pairs = {i: p for i, p in pairs.items() if len(p) == 2}
        print(f"\nseed {seed}, {workload}: {len(pairs)} complete pairs")
        print(f"{'metric':20s} {'parent':>11s} {'change':>11s} {'diff':>8s} {'IQR':>9s} "
              f"{'won':>6s}  verdict")
        for m in metrics:
            name, higher = m["name"], m["better"] == "higher"
            both = [(p["parent"][name], p["change"][name]) for p in pairs.values()
                    if name in p["parent"] and name in p["change"]]
            if not both:
                continue
            parent = [a for a, _ in both]
            change = [b for _, b in both]
            q1, med_p, q3 = quartiles(parent)
            med_c = statistics.median(change)
            iqr = q3 - q1
            won = sum((b > a) if higher else (b < a) for a, b in both)
            diff = (med_c - med_p) / med_p if med_p else 0.0
            if med_p and iqr / abs(med_p) > m["bound"]:
                verdict = "unresolved (parent IQR exceeds the bound)"
            elif abs(med_c - med_p) > iqr:
                better = (med_c > med_p) == higher
                verdict = ("better" if better else "worse") + " beyond the parent's IQR"
            else:
                verdict = "within the parent's IQR"
            print(f"{name:20s} {med_p:11.5g} {med_c:11.5g} {diff:+8.1%} {iqr:9.3g} "
                  f"{won:>3d}/{len(both):<2d}  {verdict}")
        print(f"{'AR/NAR time ratio':20s} {'parent':>11s} {'change':>11s}  "
              f"(informational: median of each side's runs)")
        names = sorted({n for i in pairs for side in ratios[i].values() for n in side})
        for name in names:
            sides = [[ratios[i][side][name] for i in pairs if name in ratios[i][side]]
                     for side in ("parent", "change")]
            if all(sides):
                print(f"{name:20s} {statistics.median(sides[0]):11.4g} "
                      f"{statistics.median(sides[1]):11.4g}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("scratch", type=Path, help="directory for the parent's checkout")
    parser.add_argument("--parent", default="HEAD~1", help="git revision of the parent")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    scratch = args.scratch.resolve()
    parent_dir = scratch / "parent"
    export(args.parent, parent_dir)
    sides = {"parent": parent_dir, "change": ROOT}
    runs = []
    for seed in args.seeds:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    print(f"seed {seed} pair {pair + 1}/{args.pairs} {workload} {side}",
                          file=sys.stderr, flush=True)
                    metrics, ratios = run(sides[side], workload, seed, bench["run_seconds"])
                    runs.append({"seed": seed, "pair": pair, "workload": workload, "side": side,
                                 "metrics": metrics, "ratios": ratios})
                    (scratch / "pairs.json").write_text(json.dumps(
                        {"parent": args.parent, "runs": runs}, indent=1) + "\n")
    report(runs, bench["end_to_end"])
    return 1 if any(not r["metrics"] for r in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
