"""The synthesis job service behind the ``si-mapper serve`` API.

Where :mod:`repro.dist.server` started as a passive artifact cache,
this module makes the daemon an *online synthesis service*: a client
POSTs an STG (``.g`` text) and polls a job through the paper's whole
flow — STG → state graph → CSC → speed-independent netlist — executed
by a bounded worker pool inside the server process, off the server's
shared artifact store.

Three pieces:

* :class:`Job` — one synthesis request: a stable content-derived id,
  a state machine ``queued → running → done/failed`` (plus
  ``cancelled`` for jobs pulled from the queue before a worker took
  them), per-stage progress events from the pipeline's ``on_stage``
  callback, and the finished Table-1 row as
  *canonical bytes* so every fetch — and every replica — returns the
  byte-identical document;
* :class:`JobService` — the queue, the worker pool, per-tenant quotas
  and the latency/depth counters exported on ``/stats``;
* :class:`ClaimPool` — the work-stealing counter behind ``POST
  /claim``: ``report --shard --claim`` workers pull benchmark names
  one at a time instead of trusting the static hash partition, so a
  slow machine claims less and a fast one more.

Job identity is *content-addressed*: ``sha256`` over the canonical
``.g`` serialization plus the battery configuration.  Submitting the
same circuit twice — including two tenants racing — returns the same
job, computed once; that is the service-level analogue of the artifact
store's content keys.
"""

from __future__ import annotations

import hashlib
import json
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.mapping.decompose import MapperConfig
from repro.obs.metrics import default_registry
from repro.obs.trace import Tracer
from repro.stg.parser import parse_g
from repro.stg.writer import write_g

#: job states; a job only ever moves forward along this list (cancel
#: applies to queued jobs, the terminal states never change again)
QUEUED, RUNNING, DONE, FAILED, CANCELLED = (
    "queued", "running", "done", "failed", "cancelled")

#: states still consuming (or about to consume) a worker — what the
#: per-tenant quota counts
ACTIVE_STATES = (QUEUED, RUNNING)

#: bump when job-id derivation or the status document changes shape
JOB_SCHEMA = "si-job/1"

#: schema stamp of a spilled job row (the ``jobrow`` artifact kind)
JOBROW_SCHEMA = "si-jobrow/1"

#: how many finished jobs the service keeps resident by default once
#: their rows are spilled to the artifact store; 0 = keep everything
DEFAULT_RETAIN = 512


def _jobs_event(event: str, amount: int = 1) -> None:
    """Count one job-service lifecycle event on the process registry."""
    default_registry().counter(
        "si_jobs_total", "Job service lifecycle events.",
        ("event",)).inc(amount, event=event)


class QuotaExceeded(ReproError):
    """The tenant already has its full quota of active jobs."""


class JobRequestError(ReproError):
    """A submission is malformed (unparseable ``.g``, bad battery
    parameters) — an HTTP 400, not a server fault."""


@dataclass(frozen=True)
class JobParams:
    """The battery configuration of one job — the part of job identity
    that is not the circuit itself."""

    libraries: Tuple[int, ...] = (2, 3, 4)
    with_siegel: bool = True
    solve_csc: bool = False
    csc_method: str = "blocks"

    def fingerprint(self) -> str:
        return json.dumps({
            "csc_method": self.csc_method,
            "libraries": list(self.libraries),
            "solve_csc": self.solve_csc,
            "with_siegel": self.with_siegel,
        }, sort_keys=True)

    @classmethod
    def from_query(cls, query: Dict[str, List[str]]) -> "JobParams":
        """Build params from parsed query-string values (``parse_qs``
        shape); unknown keys are ignored, malformed values raise
        :class:`JobRequestError`."""
        try:
            libraries: Tuple[int, ...] = (2, 3, 4)
            if "k" in query:
                libraries = tuple(int(part)
                                  for chunk in query["k"]
                                  for part in chunk.split(",") if part)
                if not libraries or any(k < 2 for k in libraries):
                    raise ValueError(f"bad literal counts {libraries}")
            with_siegel = query.get("siegel", ["1"])[-1] not in ("0",
                                                                 "false")
            solve_csc = query.get("solve_csc", ["0"])[-1] in ("1",
                                                              "true")
            csc_method = query.get("csc_method", ["blocks"])[-1]
            if csc_method not in ("blocks", "regions"):
                raise ValueError(f"bad csc_method {csc_method!r}")
        except ValueError as error:
            raise JobRequestError(f"bad job parameters: {error}") \
                from error
        if csc_method != "blocks":
            solve_csc = True
        return cls(libraries=libraries, with_siegel=with_siegel,
                   solve_csc=solve_csc, csc_method=csc_method)

    @classmethod
    def from_fingerprint(cls, payload: "Dict[str, Any]"
                         ) -> "JobParams":
        """Rebuild params from a parsed :meth:`fingerprint` document
        (what a spilled job row stores)."""
        libraries = payload.get("libraries")
        if not isinstance(libraries, (list, tuple)):
            raise ReproError(f"bad job params payload: {payload!r}")
        return cls(
            libraries=tuple(int(k) for k in libraries),
            with_siegel=bool(payload.get("with_siegel")),
            solve_csc=bool(payload.get("solve_csc")),
            csc_method=str(payload.get("csc_method", "blocks")))

    def to_query(self) -> str:
        """The query string a client sends to request these params."""
        parts = [f"k={','.join(str(k) for k in self.libraries)}"]
        if not self.with_siegel:
            parts.append("siegel=0")
        if self.solve_csc:
            parts.append("solve_csc=1")
        if self.csc_method != "blocks":
            parts.append(f"csc_method={self.csc_method}")
        return "&".join(parts)


def job_id_of(canonical_g: str, params: JobParams) -> str:
    """The stable, content-derived job id.

    Derived from the canonical ``.g`` serialization (not the submitted
    bytes — whitespace or comment differences must not fork jobs) and
    the battery fingerprint; no timestamps, no randomness, so replicas
    and retries agree."""
    digest = hashlib.sha256()
    digest.update(JOB_SCHEMA.encode("utf-8"))
    digest.update(b"\n")
    digest.update(params.fingerprint().encode("utf-8"))
    digest.update(b"\n")
    digest.update(canonical_g.encode("utf-8"))
    return digest.hexdigest()[:32]


def canonical_row_bytes(row) -> bytes:
    """The one true serialization of a Table-1 row: the bytes every
    ``GET /jobs/<id>/result`` returns, and the bytes the acceptance
    check diffs against a local run."""
    return (json.dumps(row.to_json(), sort_keys=True) + "\n") \
        .encode("utf-8")


@dataclass
class Job:
    """One synthesis request moving through the service."""

    id: str
    name: str
    g_text: str                       # canonical serialization
    params: JobParams
    key: str                          # quota bucket (tenant)
    state: str = QUEUED
    created: float = 0.0              # wall-clock, informational
    error: Optional[str] = None
    result: Optional[bytes] = None    # canonical row bytes when DONE
    events: List[Dict[str, object]] = field(default_factory=list)
    trace: Optional[List[Dict[str, object]]] = None  # keep_trace spans
    _enqueued_at: float = 0.0         # monotonic, for latency counters
    _started_at: float = 0.0
    _finished_at: float = 0.0
    _spilled: bool = False            # row persisted under ``jobrow``
    _restored: bool = False           # rebuilt from a spilled row

    def timings(self) -> Dict[str, float]:
        """Per-stage wall-clock seconds, from the ``done`` events."""
        # ordered by stage completion, which is deterministic (the
        # pipeline stage order), not by dict-iteration accident
        return {str(event["stage"]): float(event["seconds"])  # type: ignore[arg-type]
                for event in self.events
                if event.get("status") == "done"
                and event.get("seconds") is not None}

    def status_payload(self) -> Dict[str, object]:
        """The ``GET /jobs/<id>`` document."""
        payload: Dict[str, object] = {
            "id": self.id,
            "name": self.name,
            "state": self.state,
            "created": self.created,
            "params": json.loads(self.params.fingerprint()),
            "events": list(self.events),
            "timings": self.timings(),
        }
        if self.state == RUNNING and self._started_at:
            payload["running_seconds"] = round(
                time.monotonic() - self._started_at, 6)
        if self.state in (DONE, FAILED):
            payload["wait_seconds"] = round(
                self._started_at - self._enqueued_at, 6)
            payload["run_seconds"] = round(
                self._finished_at - self._started_at, 6)
        if self.error is not None:
            payload["error"] = self.error
        return payload


class JobService:
    """Queue + bounded worker pool executing synthesis jobs.

    Each job runs the full :class:`~repro.pipeline.run.Pipeline` over
    its own :class:`~repro.pipeline.cache.ArtifactCache`, layered over
    ``store`` (typically the server's disk store, optionally tiered in
    front of an upstream remote): two jobs over the same circuit — or
    a job over a circuit some worker already mapped — warm-start from
    the store exactly like CLI runs do, and a finished job's artifacts
    leave memory with it, so a long-lived daemon's memory does not
    grow with the jobs it has run.
    """

    def __init__(self, store=None, workers: int = 2, quota: int = 0,
                 retain: int = DEFAULT_RETAIN,
                 keep_trace: bool = False):
        if workers < 1:
            raise ValueError("a job service needs at least one worker")
        self._store = store               # ArtifactStore or None
        self.quota = quota                # 0 = unlimited
        self.retain = max(0, retain)      # resident DONE jobs; 0 = all
        self.keep_trace = keep_trace
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._counters = {
            "submitted": 0, "deduplicated": 0, "quota_rejections": 0,
            "completed": 0, "failed": 0, "cancelled": 0,
            "evicted": 0, "restored": 0,
            "wait_seconds": 0.0, "run_seconds": 0.0,
        }
        self._threads = [
            threading.Thread(target=self._worker_loop, daemon=True,
                             name=f"si-job-worker-{index}")
            for index in range(workers)]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "JobService":
        for thread in self._threads:
            thread.start()
        return self

    def stop(self) -> None:
        """Stop the workers; queued jobs stay queued (a restart with a
        persistent store would recompute them cheaply)."""
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            if thread.is_alive():
                thread.join(timeout=5.0)

    # ------------------------------------------------------------------
    # Client-facing operations (called from HTTP handler threads)
    # ------------------------------------------------------------------

    def submit(self, g_text: str, key: str,
               params: Optional[JobParams] = None
               ) -> Tuple[Job, bool]:
        """Accept one ``.g`` submission; returns ``(job, created)``.

        Parsing happens here, in the handler thread, so a malformed
        body is a synchronous 400 — it never occupies a worker.
        Submissions deduplicate on the content-derived id: while an
        identical job is queued, running, or done, the same record is
        returned (``created=False``) and no quota is charged — the
        second tenant rides the first one's computation.  A failed or
        cancelled job resubmits as a fresh run.
        """
        params = params or JobParams()
        stg = parse_g(g_text)           # ParseError propagates (400)
        canonical = write_g(stg)
        job_id = job_id_of(canonical, params)
        # a finished row spilled by a previous daemon incarnation
        # deduplicates exactly like a resident DONE job
        self.get(job_id)
        with self._lock:
            existing = self._jobs.get(job_id)
            if existing is not None and existing.state in (
                    QUEUED, RUNNING, DONE):
                self._counters["deduplicated"] += 1
                _jobs_event("deduplicated")
                return existing, False
            if self.quota:
                active = sum(1 for job in self._jobs.values()
                             if job.key == key
                             and job.state in ACTIVE_STATES)
                if active >= self.quota:
                    self._counters["quota_rejections"] += 1
                    _jobs_event("quota_rejected")
                    raise QuotaExceeded(
                        f"tenant already has {active} active job(s) "
                        f"(quota {self.quota})")
            job = Job(id=job_id, name=stg.name, g_text=canonical,
                      params=params, key=key, created=time.time(),
                      _enqueued_at=time.monotonic())
            self._jobs[job_id] = job
            self._counters["submitted"] += 1
            _jobs_event("submitted")
            self._queue.put(job_id)
            return job, True

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            job = self._restore(job_id)
        return job

    def cancel(self, job_id: str) -> Tuple[Optional[Job], bool]:
        """Cancel a queued job; returns ``(job, cancelled)``.

        Only queued jobs cancel — a running pipeline is not
        interrupted mid-stage (the worker re-checks the state before
        starting, so a cancelled job never begins), and finished jobs
        are immutable history.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None, False
            if job.state != QUEUED:
                return job, False
            job.state = CANCELLED
            self._counters["cancelled"] += 1
            _jobs_event("cancelled")
            return job, True

    def stats_payload(self) -> Dict[str, object]:
        """Queue depth and latency counters for ``/stats``."""
        with self._lock:
            by_state: Dict[str, int] = {}
            for job in self._jobs.values():
                by_state[job.state] = by_state.get(job.state, 0) + 1
            counters = dict(self._counters)
        completed = counters["completed"] or 1
        return {
            "workers": len(self._threads),
            "quota": self.quota,
            "queue_depth": by_state.get(QUEUED, 0),
            "running": by_state.get(RUNNING, 0),
            "by_state": {state: by_state[state]
                         for state in sorted(by_state)},
            "submitted": counters["submitted"],
            "deduplicated": counters["deduplicated"],
            "quota_rejections": counters["quota_rejections"],
            "completed": counters["completed"],
            "failed": counters["failed"],
            "cancelled": counters["cancelled"],
            "evicted": counters["evicted"],
            "restored": counters["restored"],
            "wait_seconds_total": round(counters["wait_seconds"], 6),
            "run_seconds_total": round(counters["run_seconds"], 6),
            "wait_seconds_mean": round(
                counters["wait_seconds"] / completed, 6),
            "run_seconds_mean": round(
                counters["run_seconds"] / completed, 6),
        }

    # ------------------------------------------------------------------
    # Result retention: spill / evict / restore
    # ------------------------------------------------------------------

    def _spill(self, job: Job) -> None:
        """Persist a finished job's row so memory eviction and daemon
        restarts cannot lose it.  Best-effort: a store-less service
        (or an unwritable store) simply keeps everything resident."""
        store = self._store
        if store is None or job.result is None:
            return
        payload = {
            "schema": JOBROW_SCHEMA,
            "id": job.id,
            "name": job.name,
            "g_text": job.g_text,
            "params": json.loads(job.params.fingerprint()),
            "key": job.key,
            "created": job.created,
            "result": job.result,
            "events": list(job.events),
            "wait_seconds": job._started_at - job._enqueued_at,
            "run_seconds": job._finished_at - job._started_at,
        }
        store.put(("jobrow", job.id), payload)
        with self._lock:
            job._spilled = True
        self._evict_excess()

    def _evict_excess(self) -> None:
        """Drop the oldest spilled DONE jobs beyond the retention
        bound; their rows stay fetchable through :meth:`_restore`."""
        if not self.retain:
            return
        with self._lock:
            spilled = sorted(
                (job for job in self._jobs.values()
                 if job.state == DONE and job._spilled),
                key=lambda job: job._finished_at)
            excess = spilled[:max(0, len(spilled) - self.retain)]
            for job in excess:
                del self._jobs[job.id]
                self._counters["evicted"] += 1
        if excess:
            _jobs_event("evicted", len(excess))

    def _restore(self, job_id: str) -> Optional[Job]:
        """Rebuild an evicted (or pre-restart) job from its spilled
        row; returns ``None`` when no row exists."""
        store = self._store
        if store is None:
            return None
        from repro.pipeline.store import MISS
        payload = store.get(("jobrow", job_id))
        if payload is MISS or not isinstance(payload, dict):
            return None
        if payload.get("schema") != JOBROW_SCHEMA \
                or payload.get("id") != job_id:
            return None
        try:
            params = JobParams.from_fingerprint(payload["params"])
            job = Job(
                id=job_id,
                name=str(payload["name"]),
                g_text=str(payload["g_text"]),
                params=params,
                key=str(payload.get("key", "")),
                state=DONE,
                created=float(payload.get("created", 0.0)),
                result=bytes(payload["result"]),
                events=list(payload.get("events", [])),
                _spilled=True,
                _restored=True,
            )
        except (KeyError, TypeError, ValueError, ReproError):
            return None                   # alien or torn row: a miss
        with self._lock:
            existing = self._jobs.get(job_id)
            if existing is not None:
                return existing
            self._jobs[job_id] = job
            self._counters["restored"] += 1
        _jobs_event("restored")
        self._evict_excess()
        return job

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            with self._lock:
                job = self._jobs.get(job_id)
                # resubmission may have replaced the record; only run
                # what is still the queued incarnation of this id
                if job is None or job.state != QUEUED:
                    continue
                job.state = RUNNING
                job._started_at = time.monotonic()
            self._run(job)

    def _row_of(self, job: Job) -> bytes:
        """The job's canonical Table-1 row, computed in a memory layer
        of its own over the store: the layer, and every artifact in
        it, is released when this returns."""
        from repro.pipeline.cache import ArtifactCache
        from repro.pipeline.run import Pipeline, PipelineConfig

        def observe(event: Dict[str, object]) -> None:
            with self._lock:
                job.events.append(event)

        config = PipelineConfig(
            libraries=job.params.libraries,
            with_siegel=job.params.with_siegel,
            mapper=MapperConfig(solve_csc=job.params.solve_csc,
                                csc_method=job.params.csc_method),
            keep_artifacts=False)
        pipeline = Pipeline(config, cache=ArtifactCache(disk=self._store),
                            on_stage=observe)
        return canonical_row_bytes(pipeline.run((job.name, job.g_text)).row)

    def _run(self, job: Job) -> None:
        tracer = Tracer() if self.keep_trace else None
        try:
            if tracer is not None:
                with tracer.activate():
                    with tracer.span("job", "job", id=job.id,
                                     circuit=job.name):
                        result = self._row_of(job)
            else:
                result = self._row_of(job)
        except Exception as error:  # si-lint: disable=exc-broad-degrade
            # the job, not the service, fails: any pipeline error (CSC
            # violation, mapping failure, store fault) becomes this
            # job's terminal state while the worker survives to take
            # the next one
            with self._lock:
                job.state = FAILED
                job.error = f"{type(error).__name__}: {error}"
                job._finished_at = time.monotonic()
                self._counters["failed"] += 1
                if tracer is not None:
                    job.trace = [span.to_json()
                                 for span in tracer.snapshot()]
            _jobs_event("failed")
            return
        with self._lock:
            job.state = DONE
            job.result = result
            job._finished_at = time.monotonic()
            self._counters["completed"] += 1
            wait = job._started_at - job._enqueued_at
            run = job._finished_at - job._started_at
            self._counters["wait_seconds"] += wait
            self._counters["run_seconds"] += run
            if tracer is not None:
                job.trace = [span.to_json()
                             for span in tracer.snapshot()]
        _jobs_event("completed")
        registry = default_registry()
        registry.histogram(
            "si_job_wait_seconds",
            "Seconds jobs spent queued before a worker took them.",
        ).observe(wait)
        registry.histogram(
            "si_job_run_seconds",
            "Seconds workers spent executing jobs.").observe(run)
        self._spill(job)


# ----------------------------------------------------------------------
# Work stealing for sharded reports
# ----------------------------------------------------------------------

class ClaimPool:
    """The counter behind ``POST /claim``: hand one benchmark name at
    a time to whichever ``report --shard --claim`` worker asks next.

    Pools are keyed by the fingerprint of the *full* circuit list, so
    independent batteries (different suites, different subsets) steal
    from independent cursors, and every worker of one battery — all
    submitting the identical list — shares one.  Names are handed out
    in list order, exactly once each; the static hash partition never
    enters into it, which is the point: a fast machine drains more of
    the list, a slow one less.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cursors: Dict[str, int] = {}
        self._names: Dict[str, List[str]] = {}
        self._claims = 0

    @staticmethod
    def fingerprint(names: Sequence[str]) -> str:
        payload = json.dumps(list(names)).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:32]

    def claim(self, names: Sequence[str]) -> Dict[str, object]:
        """Claim the next unclaimed name of this battery.

        Returns ``{"claimed": name, "remaining": n}`` or
        ``{"claimed": None, "remaining": 0}`` when the list is drained
        — the worker's signal to stop asking and write its shard.
        """
        if (not names or not isinstance(names, (list, tuple))
                or not all(isinstance(name, str) for name in names)):
            raise JobRequestError(
                "claim needs a non-empty list of circuit names")
        pool_key = self.fingerprint(names)
        with self._lock:
            stored = self._names.setdefault(pool_key, list(names))
            cursor = self._cursors.get(pool_key, 0)
            if cursor >= len(stored):
                return {"claimed": None, "remaining": 0,
                        "battery": pool_key}
            self._cursors[pool_key] = cursor + 1
            self._claims += 1
            default_registry().counter(
                "si_claims_total",
                "Benchmark names handed out by work stealing.").inc()
            return {"claimed": stored[cursor],
                    "remaining": len(stored) - cursor - 1,
                    "battery": pool_key}

    def stats_payload(self) -> Dict[str, object]:
        with self._lock:
            return {
                "batteries": len(self._names),
                "claims": self._claims,
                "outstanding": {
                    pool_key: len(self._names[pool_key])
                    - self._cursors.get(pool_key, 0)
                    for pool_key in sorted(self._names)},
            }
