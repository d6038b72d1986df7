"""Machine and provenance block printed with every run (read-only probes)."""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        level, kind = _read(index / "level"), _read(index / "type")
        out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = _read(index / "size")
    return out


def _git_commit(root: Path) -> str:
    head = _read(root / ".git" / "HEAD")
    if head.startswith("ref: "):
        return _read(root / ".git" / head[5:]) or "unknown"
    return head or "unknown (not a git checkout)"


def _numpy_info(env: dict) -> dict:
    """numpy version and BLAS build, asked of a child with the runner's caps."""
    code = ("import json, numpy as np; c = np.show_config(mode='dicts');"
            "b = c.get('Build Dependencies', {}).get('blas', {});"
            "print(json.dumps({'numpy': np.__version__, 'blas': b.get('name', '?'),"
            " 'blas_version': b.get('version', '?')}))")
    try:
        got = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60)
        return json.loads(got.stdout)
    except (subprocess.SubprocessError, ValueError):
        return {"numpy": "unknown"}


def describe(root: Path, seed: int, caps: dict) -> dict:
    env = dict(os.environ, **caps)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        **_numpy_info(env),
        "numba": importlib.util.find_spec("numba") is not None,
        "thread_caps": caps,
        "seed": seed,
        "commit": _git_commit(root),
    }
