"""One machine/commit stamp per run, and the append-only local ledger."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from typing import Optional

import numpy as np

from bench import spec


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ("git", *args), cwd=spec.ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        return "unknown"


def make_stamp(workload: str, seed: int, smoke: bool, allocator_tuned: bool) -> dict:
    nproc = len(os.sched_getaffinity(0))
    status = _git("status", "--porcelain")
    return {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_pins": {name: os.environ.get(name) for name in spec.THREAD_PINS},
        "serving_allocator": allocator_tuned,
        "nproc": nproc,
        "core_bound": nproc < 2,
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
        "smoke": smoke,
        "sizes": (spec.SMOKE_SIZES if smoke else spec.SIZES)[workload],
    }


def append_ledger(out, entry: dict) -> None:
    """One line per run; never rewritten, so the trajectory survives reruns."""
    with open(out / "history.jsonl", "a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
