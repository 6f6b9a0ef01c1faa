"""Shared infrastructure for the benchmark harness.

Everything here exists so that ``pytest benchmarks/ --benchmark-only``
regenerates the paper's tables and figures in bounded time:

* ``REPRO_FULL_TABLE1=1`` switches from the representative subset to
  the full 32-circuit suite;
* all artifacts (state graphs, initial synthesis, mapping results per
  (circuit, library, mode)) are shared through one
  :class:`repro.pipeline.SynthesisContext` per circuit backed by a
  harness-wide :class:`repro.pipeline.ArtifactCache`, so the several
  Table-1 benchmarks do not redo each other's work;
* ``SI_MAPPER_CACHE=DIR`` additionally backs that cache with the
  persistent :class:`repro.pipeline.DiskArtifactCache` at ``DIR`` —
  a second harness run then warm-starts every reach/synthesize/map
  stage from disk; ``SI_MAPPER_CACHE_URL=URL`` does the same against
  a ``si-mapper serve`` daemon (both together tier disk in front of
  the server).  Cache telemetry (memory hits, disk hits, remote
  hits, bytes) is printed at the end of the session either way.
"""

import os
import time
from typing import Dict, Optional, Set

import pytest

from repro.bench_suite import SUBSET, benchmark_names
from repro.dist.base import make_store
from repro.mapping.decompose import MappingResult
from repro.pipeline import ArtifactCache, SynthesisContext
from repro.pipeline.store import traffic_stats

_CACHE_DIR = os.environ.get("SI_MAPPER_CACHE")
_CACHE_URL = os.environ.get("SI_MAPPER_CACHE_URL")
_CACHE = ArtifactCache(disk=make_store(_CACHE_DIR, _CACHE_URL))
_CONTEXTS: Dict[str, SynthesisContext] = {}
#: circuit -> stage -> wall-clock seconds spent computing artifacts
#: through this harness (feeds the SI_MAPPER_BENCH_OUT snapshot)
_TIMINGS: Dict[str, Dict[str, float]] = {}
#: nodeid of the test currently running (None between tests)
_CURRENT_NODE: Optional[str] = None
#: nodeid -> circuits that test touched through the helpers below
_TOUCHED: Dict[str, Set[str]] = {}
#: circuits touched by at least one failed/errored test; their
#: snapshot entries get ok=False so compare() skips their timings
_FAILED_CIRCUITS: Set[str] = set()


def _record_seconds(name: str, stage: str, seconds: float) -> None:
    per_stage = _TIMINGS.setdefault(name, {})
    per_stage[stage] = per_stage.get(stage, 0.0) + seconds


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    global _CURRENT_NODE
    _CURRENT_NODE = item.nodeid
    yield
    _CURRENT_NODE = None


def pytest_runtest_logreport(report):
    """A failure in any phase (setup/call/teardown) marks every
    circuit that test touched as not-ok in the snapshot."""
    if report.failed:
        _FAILED_CIRCUITS.update(_TOUCHED.get(report.nodeid, ()))


def pytest_terminal_summary(terminalreporter):
    """Surface the session's cache telemetry (the process registry's
    counts) in the benchmark output, and emit a perf snapshot when
    ``SI_MAPPER_BENCH_OUT`` names one."""
    telemetry = traffic_stats()
    store = " / ".join(filter(None, [_CACHE_DIR, _CACHE_URL]))
    terminalreporter.write_line(
        f"artifact cache: {len(_CACHE)} entries, "
        f"{telemetry['cache_hits']} memory hits, "
        f"{telemetry['disk_hits']} disk hits, "
        f"{telemetry['remote_hits']} remote hits, "
        f"{telemetry['cache_misses']} computed, "
        f"{telemetry['disk_bytes_read']} bytes read, "
        f"{telemetry['disk_bytes_written']} bytes written"
        + (f" (store: {store})" if store else ""))
    out = os.environ.get("SI_MAPPER_BENCH_OUT")
    if out and _CONTEXTS:
        from repro import perf
        circuits = []
        for name, context in _CONTEXTS.items():
            stages = dict(_TIMINGS.get(name, {}))
            circuits.append({
                "name": name,
                "ok": name not in _FAILED_CIRCUITS,
                "seconds": sum(stages.values()),
                "stages": stages,
                "stats": {key: value for key, value
                          in context.stats.items()
                          if isinstance(value, int)},
            })
        snapshot = perf.build_snapshot(
            suite={"names": sorted(_CONTEXTS),
                   "producer": "benchmarks/conftest.py"},
            circuits=circuits,
            cache={key: value for key, value in telemetry.items()
                   if isinstance(value, int)},
            total_seconds=sum(entry["seconds"] for entry in circuits))
        perf.write_snapshot(snapshot, out)
        terminalreporter.write_line(f"bench snapshot written to {out}")


def selected_names():
    if os.environ.get("REPRO_FULL_TABLE1"):
        return benchmark_names()
    return list(SUBSET)


def circuit_context(name: str) -> SynthesisContext:
    if _CURRENT_NODE is not None:
        _TOUCHED.setdefault(_CURRENT_NODE, set()).add(name)
    if name not in _CONTEXTS:
        _CONTEXTS[name] = SynthesisContext.from_benchmark(name,
                                                          cache=_CACHE)
    return _CONTEXTS[name]


def circuit_sg(name: str):
    context = circuit_context(name)
    start = time.perf_counter()
    sg = context.state_graph()
    _record_seconds(name, "reach", time.perf_counter() - start)
    return sg


def mapping_result(name: str, literals: int,
                   mode: str = "global") -> MappingResult:
    context = circuit_context(name)
    start = time.perf_counter()
    result = context.mapping(literals, mode)
    _record_seconds(name, f"map[{literals},{mode}]",
                    time.perf_counter() - start)
    return result


@pytest.fixture(scope="session")
def names():
    return selected_names()
