"""The staged synthesis pipeline and its run telemetry.

One :class:`Pipeline` run executes the paper's flow for one circuit —

    load → reach → csc → synthesize → map → verify → report

— through a :class:`~repro.pipeline.context.SynthesisContext`, timing
every stage into a :class:`RunRecord`.  The ``map`` stage runs the
whole Table-1 battery (each configured library size plus the
local-acknowledgment baseline); thanks to the context's artifact cache
the battery shares a single reachability pass and a single initial
synthesis.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.boolean.minimize import minimize_memo
from repro.mapping.decompose import MapperConfig, MappingResult
from repro.mapping.progress import emit_progress
from repro.obs.metrics import default_registry
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.context import SynthesisContext
from repro.stg.stg import Stg

#: stage names, in execution order
STAGES = ("load", "reach", "csc", "synthesize", "map", "verify",
          "report")

#: a circuit source: benchmark name, ``.g`` path, (name, g_text) pair,
#: parsed Stg, or a ready context
Source = Union[str, Tuple[str, str], Stg, SynthesisContext]


@dataclass
class StageTiming:
    """Wall-clock seconds spent in one pipeline stage."""

    stage: str
    seconds: float


@dataclass
class RunRecord:
    """Telemetry and results of one pipeline run.

    Records are designed to cross process boundaries: with
    ``keep_artifacts=False`` they carry only plain data (timings,
    counters, the Table-1 row), so a :class:`~repro.pipeline.batch.
    BatchRunner` worker can return one cheaply.
    """

    name: str
    timings: List[StageTiming] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)
    row: Optional[Any] = None                # repro.report.Table1Row
    verified: Optional[bool] = None
    mappings: Optional[Dict[Tuple[int, str], MappingResult]] = None
    context: Optional[SynthesisContext] = None   # keep_artifacts only

    @property
    def stg(self) -> Optional[Stg]:
        return self.context.stg if self.context is not None else None

    @property
    def total_seconds(self) -> float:
        return sum(timing.seconds for timing in self.timings)

    def seconds(self, stage: str) -> float:
        return sum(timing.seconds for timing in self.timings
                   if timing.stage == stage)

    def timing_summary(self) -> str:
        """One line per stage, e.g. for ``si-mapper ... --timings``."""
        lines = [f"{timing.stage:>12}  {timing.seconds * 1e3:9.1f} ms"
                 for timing in self.timings]
        lines.append(f"{'total':>12}  {self.total_seconds * 1e3:9.1f} ms")
        return "\n".join(lines)

    def cache_summary(self) -> str:
        """One line of cache telemetry (``si-mapper ... --timings``).

        The remote clause appears only when the run actually talked to
        (or failed to reach) a cache server, so local-only output is
        unchanged."""
        line = (f"cache: {self.stats.get('cache_hits', 0)} memory hits, "
                f"{self.stats.get('disk_hits', 0)} disk hits, "
                f"{self.stats.get('cache_misses', 0)} computed; "
                f"{self.stats.get('disk_bytes_read', 0)} bytes read, "
                f"{self.stats.get('disk_bytes_written', 0)} bytes "
                f"written")
        remote_traffic = sum(
            self.stats.get(counter, 0) for counter in
            ("remote_hits", "remote_misses", "remote_stale",
             "remote_errors", "remote_writes", "remote_write_skips"))
        if remote_traffic:
            line += (f"; remote: {self.stats.get('remote_hits', 0)} "
                     f"hits, {self.stats.get('remote_misses', 0)} "
                     f"misses, {self.stats.get('remote_writes', 0)} "
                     f"writes, {self.stats.get('remote_errors', 0)} "
                     f"errors")
        return line

    def minimizer_summary(self) -> str:
        """One line of minimizer telemetry: distinct problems solved,
        and calls answered from the run's memo."""
        return (f"minimizer: {self.stats.get('minimize_solved', 0)} "
                f"solved, {self.stats.get('minimize_reused', 0)} reused")

    def csc_summary(self) -> str:
        """One line of CSC-solver telemetry (only meaningful when the
        run solved CSC — the counters ride on the csc artifact)."""
        return (f"csc: {self.stats.get('signals_inserted', 0)} state "
                f"signals inserted, "
                f"{self.stats.get('candidates_evaluated', 0)} "
                "candidates evaluated")

    def artifact_summary(self) -> str:
        """Per-kind compute counts — ``sg=0`` on a warm run means the
        reachability pass was served from the store, not redone."""
        from repro.pipeline.context import ARTIFACTS
        counts = " ".join(f"{kind}={self.stats.get(kind, 0)}"
                          for kind in ARTIFACTS if kind != "stg")
        return f"computed artifacts: {counts}"


@dataclass
class PipelineConfig:
    """What a pipeline run computes.

    ``libraries`` are the gate sizes of the mapping battery;
    ``with_siegel`` adds the local-acknowledgment baseline at 2
    literals (the paper's ``[12]`` column); ``mapper`` tunes the
    mapping loop (including CSC solving); ``verify`` runs the
    speed-independence checker on the smallest successful mapping;
    ``keep_artifacts`` retains the full (heavy, unpicklable-across-
    workers-for-free) :class:`MappingResult` objects on the record;
    ``cache_dir`` backs the artifact cache with a persistent
    :class:`~repro.pipeline.store.DiskArtifactCache` at that path, so
    runs — and :class:`~repro.pipeline.batch.BatchRunner` workers —
    warm-start from previously computed artifacts; ``cache_url``
    points at a ``si-mapper serve`` daemon instead (a
    :class:`~repro.dist.remote.RemoteArtifactCache`) and ``cache_s3``
    at an S3-compatible bucket spec (a :class:`~repro.dist.
    objectstore.ObjectStoreArtifactCache` — serverless workers share
    a cache with no daemon); a directory *plus* one shared backend
    tiers a local disk write-through in front of the shared store
    (:class:`~repro.dist.remote.TieredStore`) — the layout for
    sharded multi-machine runs.
    """

    libraries: Tuple[int, ...] = (2, 3, 4)
    with_siegel: bool = True
    mapper: Optional[MapperConfig] = None
    verify: bool = False
    keep_artifacts: bool = True
    local_mode: bool = False     # battery runs in "local" mode instead
    cache_dir: Optional[str] = None
    cache_url: Optional[str] = None
    cache_s3: Optional[str] = None

    @property
    def modes(self) -> List[Tuple[int, str]]:
        """The (library, mode) battery of the ``map`` stage."""
        mode = "local" if self.local_mode else "global"
        battery = [(k, mode) for k in self.libraries]
        if self.with_siegel and not self.local_mode:
            battery.append((2, "local"))
        return battery


@contextmanager
def _timed(record: RunRecord, stage: str):
    emit_progress(stage, "start")
    start = time.perf_counter()
    try:
        yield
    finally:
        seconds = time.perf_counter() - start
        record.timings.append(StageTiming(stage, seconds))
        default_registry().histogram(
            "si_stage_seconds",
            "Wall-clock seconds per pipeline stage.",
            ("stage",)).observe(seconds, stage=stage)
        emit_progress(stage, "done", seconds=seconds)


class Pipeline:
    """Run the staged synthesis flow for one circuit at a time."""

    def __init__(self, config: Optional[PipelineConfig] = None,
                 cache: Optional[ArtifactCache] = None):
        self.config = config or PipelineConfig()
        if cache is None and (self.config.cache_dir
                              or self.config.cache_url
                              or self.config.cache_s3):
            from repro.dist.base import make_store
            cache = ArtifactCache(disk=make_store(
                self.config.cache_dir, self.config.cache_url,
                self.config.cache_s3))
        self.cache = cache

    def context_of(self, source: Source) -> SynthesisContext:
        """Resolve a circuit source into a synthesis context."""
        if isinstance(source, tuple):
            name, text = source
            return SynthesisContext.from_g(text, name, cache=self.cache)
        return SynthesisContext.of(source, cache=self.cache)

    def run(self, source: Source) -> RunRecord:
        """Execute every stage for one circuit; errors propagate (the
        batch runner adds per-circuit fault isolation on top).

        All stages share one minimization memo (:func:`repro.boolean.
        minimize.minimize_memo`), so a problem the initial synthesis,
        the CSC solve or any mapping of the battery has solved is not
        solved again for this circuit.  The memo dies with the run;
        its counts land in ``stats`` as ``minimize_solved`` and
        ``minimize_reused``."""
        with minimize_memo() as memo:
            record = self._run(source)
        record.stats["minimize_solved"] = memo.solved
        record.stats["minimize_reused"] = memo.reused
        return record

    def _run(self, source: Source) -> RunRecord:
        config = self.config
        mapper_config = config.mapper or MapperConfig()
        record = RunRecord(name="?")

        with _timed(record, "load"):
            context = self.context_of(source)
        record.name = context.name
        cache_before = context.cache.telemetry()

        with _timed(record, "reach"):
            context.state_graph()

        # When CSC solving is requested, every later stage must work on
        # the conflict-free graph — the raw one may not even be
        # synthesizable (overlapping ON/OFF sets).
        csc = mapper_config.solve_csc
        method = mapper_config.csc_method
        csc_result = None
        if csc:
            with _timed(record, "csc"):
                csc_result = context.csc_result(method=method)

        with _timed(record, "synthesize"):
            context.implementations(csc, method)

        mappings: Dict[Tuple[int, str], MappingResult] = {}
        with _timed(record, "map"):
            for literals, mode in config.modes:
                mappings[(literals, mode)] = context.mapping(
                    literals, mode, mapper_config)

        if config.verify:
            with _timed(record, "verify"):
                record.verified = self._verify(mappings)

        with _timed(record, "report"):
            record.row = self._report(context, mappings, csc, method,
                                      csc_result)

        record.stats = dict(context.stats)
        if csc_result is not None:
            # CSC telemetry rides on the artifact, so a warm cache hit
            # still reports how the solve went.
            record.stats.update(csc_result.stats())
        for counter, value in context.cache.telemetry().items():
            # attribute only this run's cache traffic (the cache may
            # be shared across many runs in one process); a counter
            # absent from the "before" snapshot is new traffic that
            # belongs to this run in full
            record.stats[counter] = value - cache_before.get(counter, 0)
        if config.keep_artifacts:
            record.mappings = mappings
            record.context = context
        return record

    # ------------------------------------------------------------------
    # Stage bodies
    # ------------------------------------------------------------------

    def _verify(self, mappings) -> Optional[bool]:
        """Check SI of the smallest successful mapping of the battery."""
        from repro.verify import verify_implementation
        for (literals, mode) in sorted(mappings):
            result = mappings[(literals, mode)]
            if result.success:
                verify_implementation(result.sg, result.implementations)
                return True
        return None

    def _report(self, context: SynthesisContext, mappings,
                csc: bool = False, method: str = "blocks",
                csc_result=None):
        """Assemble the Table-1 row from the battery results.

        With CSC solving on, the histogram / non-SI columns describe
        the conflict-free graph (the raw one may not be synthesizable);
        for CSC-clean circuits the two are identical.  ``csc_result``
        feeds the auxiliary inserted-state-signals column (absent on
        runs without CSC solving, keeping legacy rows byte-identical).
        """
        from repro.baselines.tech_decomp import tech_decomp_cost
        from repro.mapping.cost import implementation_cost
        from repro.report import Table1Row

        inserted: Dict[int, Optional[int]] = {}
        si_cost: Optional[Tuple[int, int]] = None
        mode = "local" if self.config.local_mode else "global"
        # cost columns compare SI vs non-SI decomposition at the
        # smallest configured library (the paper's k = 2 column)
        smallest = min(self.config.libraries,
                       default=2)
        for literals in self.config.libraries:
            result = mappings[(literals, mode)]
            inserted[literals] = (result.inserted_signals
                                  if result.success else None)
            if literals == smallest and result.success:
                si_cost = implementation_cost(result.implementations)

        siegel: Optional[int] = None
        siegel_ran = ((2, "local") in mappings
                      and not self.config.local_mode)
        if siegel_ran:
            local = mappings[(2, "local")]
            siegel = local.inserted_signals if local.success else None

        implementations = context.implementations(csc, method)
        return Table1Row(
            name=context.name,
            histogram=context.initial_netlist(csc, method).stats()
            .histogram_row(7),
            inserted=inserted,
            siegel_2lit=siegel,
            non_si_cost=tech_decomp_cost(implementations, smallest),
            si_cost=si_cost,
            siegel_ran=siegel_ran,
            csc_signals=(csc_result.inserted_signals
                         if csc_result is not None else None),
        )
