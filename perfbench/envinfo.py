"""The environment block recorded with every result."""

from __future__ import annotations

import importlib.util
import os
import platform
import subprocess
from pathlib import Path


def _run(cmd: list[str]) -> str | None:
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        return {"name": None, "version": None}


def environment(root: Path, seed: int, pinned: dict[str, str]) -> dict:
    import numpy as np

    caches = {}
    for name in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        value = _run(["getconf", name])
        caches[name] = int(value) if value and value.isdigit() else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cache_bytes": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "threadpoolctl_importable": importlib.util.find_spec("threadpoolctl") is not None,
        "blas_thread_pin": {k: os.environ.get(k) for k in pinned},
        "git_commit": (_run(["git", "-C", str(root), "rev-parse", "HEAD"])
                       if (root / ".git").exists() else None),
        "seed": seed,
    }
