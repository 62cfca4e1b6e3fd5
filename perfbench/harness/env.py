"""Environment record and memory measurement.

Every result carries the environment it was measured in, so numbers
from different kernel tiers, interpreters or machines are never compared
by accident.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import threading
from pathlib import Path
from typing import Dict, Optional

_PAGE = os.sysconf("SC_PAGE_SIZE")


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def source_digest(src: Path) -> str:
    """Content hash of every ``.py`` file under *src* (path + bytes)."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment(root: Path) -> Dict[str, object]:
    import numpy

    from repro.schedule.backend import kernel_tier

    return {
        "commit": git_commit(root),
        "src_digest": source_digest(root / "src"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": cpu_count(),
        "kernel_tier": {
            net: kernel_tier(net) for net in ("contention-free", "nic")
        },
        "REPRO_KERNEL": os.environ.get("REPRO_KERNEL"),
        "REPRO_PACK_CACHE": os.environ.get("REPRO_PACK_CACHE"),
        "machine": platform.machine(),
    }


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _children_map() -> Dict[int, list]:
    kids: Dict[int, list] = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue  # exited between listing and reading
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        kids.setdefault(ppid, []).append(int(entry.name))
    return kids


def tree_rss_bytes(pid: int) -> int:
    """Resident memory of *pid* plus all its descendants, right now."""
    kids = _children_map()
    total, todo = 0, [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/statm") as fh:
                total += int(fh.read().split()[1]) * _PAGE
        except OSError:
            pass
        todo.extend(kids.get(p, ()))
    return total


class TreeRssSampler:
    """Samples this process tree's summed RSS on a background thread.

    Used where requests start worker processes: ``ru_maxrss`` covers one
    process only, and children's peaks do not add up to the peak of
    their sum.
    """

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _run(self) -> None:
        pid = os.getpid()
        while not self._stop.is_set():
            self.peak_bytes = max(self.peak_bytes, tree_rss_bytes(pid))
            self._stop.wait(self.interval)

    def __enter__(self) -> "TreeRssSampler":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    @property
    def peak_mb(self) -> float:
        return self.peak_bytes / (1024.0 * 1024.0)
