"""Process-level measurements and the result line shared by workloads."""

from __future__ import annotations

import os
import resource
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from harness.metrics import unit_of

#: checkout root (the directory holding ``perfbench/`` and ``src/``)
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
#: everything a run leaves behind (stores, span files) goes here
RUNS_DIR = os.path.join(ROOT, ".perfbench-runs")


def process_age() -> float:
    """Seconds since this process started (kernel start time, 10 ms
    resolution), so set-up includes interpreter start and imports."""
    with open("/proc/self/stat", "r", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def peak_rss_mb(pid: int = 0) -> float:
    """Peak resident set size in MB: this process, or ``pid``'s."""
    if not pid:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def run_dir(tag: str) -> str:
    """A fresh private directory for one run's files."""
    path = os.path.join(RUNS_DIR, f"{tag}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


@dataclass
class Outcome:
    """What one workload run measured and how its outputs checked."""

    attempted: int = 0
    #: failed operation -> why (an operation fails once however many
    #: checks it breaks)
    failures: Dict[str, str] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    detail: List[str] = field(default_factory=list)
    #: per-layer metrics of a traced run
    layer: Dict[str, float] = field(default_factory=dict)

    def fail(self, operation: str, messages: List[str]) -> None:
        if messages:
            self.failures.setdefault(operation, "; ".join(messages))

    def put(self, name: str, value: float) -> None:
        self.metrics[name] = value

    def result(self, names: Iterable[str]) -> Dict:
        """The result line, reporting ``names`` in order."""
        failed = len(self.failures)
        return {
            "correct": failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": {name: {"value": self.metrics[name],
                               "unit": unit_of(name)} for name in names},
        }
