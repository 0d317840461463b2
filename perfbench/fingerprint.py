"""The environment a benchmark result was measured in.

Reads what the machine and the interpreter report; it sets nothing.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    """The runner's environment with BLAS thread counts capped at nproc."""
    env = dict(os.environ)
    cap = nproc()
    for var in BLAS_THREAD_VARS:
        try:
            given = int(env.get(var, ""))
        except ValueError:
            given = cap
        env[var] = str(min(max(given, 1), cap))
    return env


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git(root: Path, *args: str) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def machine(root: Path) -> dict:
    """Machine, interpreter and source-tree facts, read by the runner."""
    status = _git(root, "status", "--porcelain")
    env = child_env()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas_thread_env": {v: env[v] for v in BLAS_THREAD_VARS},
        "git_commit": (_git(root, "rev-parse", "HEAD") or "").strip() or None,
        "git_dirty": None if status is None else bool(status),
        "git_dirty_paths": None if status is None else
            [line[3:] for line in status.splitlines()][:20],
    }


def libraries() -> dict:
    """numpy, scipy and OpenBLAS versions and thread counts of this process.

    Call it in the child after the workload ran, so the BLAS libraries that
    numpy and scipy load are mapped.
    """
    import numpy
    import scipy

    blas = []
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        paths = []
    for path in paths:
        entry = {"library": os.path.basename(path)}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            blas.append(entry)
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.restype = ctypes.c_int
                get_threads.argtypes = []
                get_config.restype = ctypes.c_char_p
                get_config.argtypes = []
                entry["threads"] = get_threads()
                entry["config"] = get_config().decode(errors="replace")
                break
            if "threads" in entry:
                break
        blas.append(entry)
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": blas}
