"""CPU time and peak memory of the benchmark process and its workers.

Read from ``/proc``, so worker processes are measured by pid without
their cooperation. CPU time is user + system; peak memory is ``VmHWM``,
the resident-set high-water mark.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable

_TICK = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of ``pid`` so far (0.0 once it is gone)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    # the command name may hold spaces: fields resume after its ')'
    fields = stat[stat.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def peak_rss_mib(pid: int) -> float:
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def total_cpu(pids: Iterable[int]) -> float:
    return sum(cpu_seconds(pid) for pid in pids)


def total_peak_rss(pids: Iterable[int]) -> float:
    return sum(peak_rss_mib(pid) for pid in pids)
