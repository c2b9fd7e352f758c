"""Process memory and the host/version stamp every benchmark result carries."""

from __future__ import annotations

import os
import platform
from pathlib import Path

__all__ = ["git_commit", "host_stamp", "peak_rss_mb", "reset_peak_rss"]


def reset_peak_rss() -> float:
    """Reset the process's RSS high-water mark to its current RSS.

    Writing ``5`` to ``/proc/self/clear_refs`` resets ``VmHWM`` (Linux), so
    a peak read afterwards belongs to the code run since, not to whatever an
    earlier phase of the process allocated.  Returns the RSS after the reset
    in MB.
    """
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")
    return peak_rss_mb()


def peak_rss_mb() -> float:
    """``VmHWM`` of this process in MB: its peak RSS since the last reset."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def git_commit(root: Path) -> str:
    """The commit checked out at ``root``, read from ``root/.git`` only
    (never a repository above it); ``"unknown"`` outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _mem_total_mb() -> float:
    with open("/proc/meminfo", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("MemTotal missing from /proc/meminfo")


def host_stamp(root: Path, seed: int) -> dict:
    """Seed, commit, host and library versions behind a result."""
    import importlib.util

    import numpy
    import scipy

    from repro.core.kernels import active_backend

    return {
        "seed": seed,
        "commit": git_commit(root),
        "cores": os.cpu_count(),
        "ram_mb": round(_mem_total_mb()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "kernel_backend": active_backend(),
    }
