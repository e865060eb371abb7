"""Record one benchmark point as BENCH_<n>.json at the root of the checkout.

    python tools/bench_record.py

It only drives the benchmark, `perfbench/run.py`, each run in its own
process: `len1023` and `len4096` at seeds 0 and 1 with `--trace 0`, then one
`--trace 1` run on `len1023` (seed 0), each with `--seconds 60`, so a record
takes about five minutes. n is the next free index. The file holds:

* the environment block of the first run (its per-run seed left out) and
  the git HEAD, whether the tree was dirty, and a sha256 over `src/`;
* per workload, each end-to-end metric's median and min over the seeds,
  with the per-seed values;
* the per-layer metrics of the traced run;
* every run's command, exit code and operation counts (`attempted`,
  `failed`).

Two records are compared metric by metric; a change claims a gain only with
the record made at its parent beside it.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("len1023", "len4096")
SEEDS = (0, 1)
SECONDS = 60


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict | None]:
    """One benchmark run; returns its summary and its parsed report."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    print("running", " ".join(cmd[1:]), file=sys.stderr, flush=True)
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else {}
    report = json.loads(lines[-2])["report"] if len(lines) > 1 and result else None
    summary = {"command": " ".join(cmd[1:]), "exit_code": done.returncode,
               "correct": result.get("correct", False),
               "attempted": result.get("attempted"), "failed": result.get("failed")}
    return {**summary, "metrics": result.get("metrics", {})}, report


def git(*args: str) -> str | None:
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main() -> int:
    runs, environment = [], None
    end_to_end: dict[str, dict] = {}
    for workload in WORKLOADS:
        values: dict[str, list] = {}
        units: dict[str, str] = {}
        for seed in SEEDS:
            summary, report = run(workload, seed, 0)
            if environment is None and report is not None:
                environment = {k: v for k, v in report["environment"].items() if k != "seed"}
            for name, m in summary.pop("metrics").items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            runs.append(summary)
        end_to_end[workload] = {
            name: {"median": statistics.median(v), "min": min(v), "values": v,
                   "unit": units[name]}
            for name, v in values.items()}
    traced, _ = run(WORKLOADS[0], SEEDS[0], 1)
    per_layer = {WORKLOADS[0]: traced.pop("metrics")}
    runs.append(traced)

    n = 0
    while (ROOT / f"BENCH_{n}.json").exists():
        n += 1
    record = {
        "git": {"head": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--", "src", "perfbench")),
                "src_sha256": src_digest()},
        "environment": environment,
        "seeds": list(SEEDS), "seconds": SECONDS,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "runs": runs,
    }
    path = ROOT / f"BENCH_{n}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    failed = sum(r["failed"] or 0 for r in runs)
    bad = [r["command"] for r in runs if r["exit_code"] != 0 or not r["correct"]]
    print(f"wrote {path.name}: {len(runs)} runs, {failed} failed operations")
    for command in bad:
        print(f"FAILED: {command}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
