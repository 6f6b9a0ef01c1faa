"""Unified synthesis pipeline: shared artifacts + parallel batches.

This package is the single engine behind ``si-mapper``, the Table-1
report, the benchmark harness and the examples.  It replaces four
hand-wired copies of the DATE'97 flow with one staged pipeline::

    load → reach → csc → synthesize → map → verify → report

Layers
------

:class:`~repro.pipeline.cache.ArtifactCache`
    A content-keyed memo table.  Cache keys are
    ``(kind, content_key, *params)`` where ``content_key`` is the
    SHA-256 of the circuit's canonical ``.g`` serialization and
    ``kind`` names the artifact (``"sg"``, ``"csc"``,
    ``"implementations"``, ``"netlist"``, ``"map"``).  Parameters
    carry whatever distinguishes variants — e.g. a ``"map"`` entry is
    keyed by ``(library size, acknowledgment mode, mapper config)``.

:class:`~repro.pipeline.store.DiskArtifactCache`
    A persistent, content-addressed on-disk layer under the in-memory
    cache (``PipelineConfig.cache_dir`` / ``--cache-dir`` /
    ``SI_MAPPER_CACHE``).  Entries are versioned per artifact kind and
    written atomically, so concurrent worker processes share one store
    safely and schema bumps degrade to recompute, never to a crash.
    It is one backend of the :class:`~repro.dist.base.ArtifactStore`
    protocol — ``PipelineConfig.cache_url`` / ``--cache-url`` /
    ``SI_MAPPER_CACHE_URL`` swaps in (or tiers with) the remote HTTP
    backend of :mod:`repro.dist`, which is how sharded multi-machine
    reports share one store through ``si-mapper serve``.

:class:`~repro.pipeline.context.SynthesisContext`
    Owns the memoized artifacts of *one* circuit: the parsed
    :class:`~repro.stg.stg.Stg`, the encoded state graph (exactly one
    reachability pass), the CSC-resolved state graph, the per-signal
    monotonous covers, and every mapping result.  Mapping the same
    circuit at k = 2, 3, 4 plus the local-acknowledgment baseline
    shares one reachability pass and one initial synthesis instead of
    re-deriving them five times.

:class:`~repro.pipeline.run.Pipeline` / :class:`~repro.pipeline.run.RunRecord`
    The staged driver.  Each run executes the stages above for one
    circuit and collects per-stage wall-clock timings, artifact
    counters and the finished Table-1 row into a :class:`RunRecord`
    (``si-mapper report --timings`` prints them).

:class:`~repro.pipeline.batch.BatchRunner`
    Fans a circuit list out over ``ProcessPoolExecutor`` with
    deterministic result ordering and per-circuit fault isolation —
    one crash or ``n.i.`` never kills the batch; a dying worker only
    fails its own circuit.

Map a whole suite in parallel::

    from repro.pipeline import BatchRunner, PipelineConfig
    from repro.bench_suite import benchmark_names

    runner = BatchRunner(PipelineConfig(libraries=(2, 3, 4)), jobs=8)
    for item in runner.run(benchmark_names()):
        print(item.name, item.record.row.cells() if item.ok
              else item.error)
"""

from repro.pipeline.batch import BatchItem, BatchRunner
from repro.pipeline.cache import ArtifactCache, content_key_of
from repro.pipeline.context import SynthesisContext
from repro.pipeline.run import (Pipeline, PipelineConfig, RunRecord,
                                StageTiming, STAGES)
from repro.pipeline.store import (ARTIFACT_FORMATS, DiskArtifactCache,
                                  StoreReport)

__all__ = [
    "ARTIFACT_FORMATS", "ArtifactCache", "BatchItem", "BatchRunner",
    "DiskArtifactCache", "Pipeline", "PipelineConfig", "RunRecord",
    "STAGES", "StageTiming", "StoreReport", "SynthesisContext",
    "content_key_of",
]
