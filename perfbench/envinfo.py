"""Machine and software record attached to every benchmark result."""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes() -> dict:
    """Per-level cache sizes of CPU 0, as sysfs reports them."""
    root = Path("/sys/devices/system/cpu/cpu0/cache")
    out = {}
    for index in sorted(root.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        out[f"L{level}_{kind.lower()}"] = size
    return out


def _blas() -> dict | None:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        return None
    blas = deps.get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version"),
            "config": blas.get("openblas configuration")}


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest(src: Path) -> str:
    """sha256 over the package sources, identifying the code measured."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path, src: Path) -> dict:
    import numpy
    import scipy
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": usable,
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(src),
    }
