"""What the benchmark scripts record about the host they ran on.

A timing, and above all a thread-vs-process comparison, means nothing
without the number of cores behind it; inside a container the cores the
kernel shows and the CPU time the cgroup grants differ, so both are
recorded.
"""

from __future__ import annotations

import os
import platform
from typing import Dict, Optional

__all__ = ["cpu_quota", "machine_record"]


def _read(path: str) -> Optional[str]:
    try:
        with open(path, encoding="ascii") as handle:
            return handle.read().strip()
    except (OSError, ValueError):
        return None


def cpu_quota(cgroup_root: str = "/sys/fs/cgroup") -> Optional[float]:
    """CPUs' worth of time the cgroup grants (quota / period).

    Reads cgroup v2 ``cpu.max`` (``"<quota|max> <period>"``), else cgroup
    v1 ``cpu/cpu.cfs_quota_us`` and ``cpu.cfs_period_us`` (quota ``-1`` is
    unlimited).  ``None`` when there is no limit or nothing readable.
    """

    text = _read(os.path.join(cgroup_root, "cpu.max"))
    if text is not None:
        quota, _, period = text.partition(" ")
    else:
        quota = _read(os.path.join(cgroup_root, "cpu", "cpu.cfs_quota_us"))
        period = _read(os.path.join(cgroup_root, "cpu", "cpu.cfs_period_us"))
    try:
        quota_us, period_us = int(quota), int(period)
    except (TypeError, ValueError):  # "max", missing or malformed
        return None
    if quota_us <= 0 or period_us <= 0:
        return None
    return quota_us / period_us


def machine_record() -> Dict[str, object]:
    """The ``machine`` / ``cpus`` / ``cpu_quota`` keys of a ``BENCH_*.json``."""

    return {
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "cpu_quota": cpu_quota(),
    }
