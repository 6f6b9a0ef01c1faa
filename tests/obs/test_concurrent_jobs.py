"""Two jobs raced through a 2-worker service with per-job tracing on:
each job gets its own well-nested span tree on its own worker thread,
its own stage events and span stats, and the shared registry counts
every lifecycle event exactly once."""

import threading
import time

import pytest

from repro.bench_suite import benchmark
from repro.dist.jobs import DONE, JobParams, JobService
from repro.obs.metrics import use_registry
from repro.pipeline.context import SynthesisContext
from repro.stg.writer import write_g

HALF_G = write_g(benchmark("half"))
HAZARD_G = write_g(benchmark("hazard"))
PARAMS = JobParams(libraries=(2,), with_siegel=False)

#: stages the job pipeline always runs, in order
STAGES = ("load", "reach", "synthesize", "map", "report")


def wait_done(service, jobs, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        current = [service.get(job.id) for job in jobs]
        if all(job.state == DONE for job in current):
            return current
        time.sleep(0.01)
    pytest.fail(f"states: {[job.state for job in jobs]}")


@pytest.fixture
def raced(monkeypatch):
    return rendezvous(monkeypatch)


def rendezvous(monkeypatch):
    """Both workers rendezvous inside their first ``state_graph``
    call, guaranteeing the two jobs genuinely overlap."""
    barrier = threading.Barrier(2, timeout=30.0)
    local = threading.local()
    original = SynthesisContext.state_graph

    def synchronized(self):
        if not getattr(local, "met", False):
            local.met = True
            barrier.wait()
        return original(self)

    monkeypatch.setattr(SynthesisContext, "state_graph", synchronized)
    return barrier


def well_nested(spans):
    """Every child interval sits inside its parent's (6-dp rounding
    gives the comparisons a small epsilon)."""
    by_id = {span["id"]: span for span in spans}
    eps = 5e-6
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is None:
            continue
        assert span["start"] >= parent["start"] - eps
        assert (span["start"] + span["duration"]
                <= parent["start"] + parent["duration"] + eps)
    return True


def test_raced_jobs_trace_disjointly_and_count_exactly(raced):
    with use_registry() as registry:
        service = JobService(workers=2, keep_trace=True).start()
        try:
            first, _ = service.submit(HALF_G, key="", params=PARAMS)
            second, _ = service.submit(HAZARD_G, key="", params=PARAMS)
            first, second = wait_done(service, [first, second])
        finally:
            service.stop()

        # each job carries a complete, well-nested span tree
        for job in (first, second):
            assert job.trace, f"job {job.name} has no trace"
            names = [span["name"] for span in job.trace]
            assert names[0] == "job"
            for stage in STAGES:
                assert f"stage:{stage}" in names
            (root,) = [span for span in job.trace
                       if span["parent"] is None]
            assert root["args"]["circuit"] == job.name
            assert well_nested(job.trace)

        # the trees are disjoint: separate tracers, separate workers
        first_threads = {span["thread"] for span in first.trace}
        second_threads = {span["thread"] for span in second.trace}
        assert first_threads.isdisjoint(second_threads)
        assert all(name.startswith("si-job-worker-")
                   for name in first_threads | second_threads)

        # and the shared registry saw each lifecycle event exactly once
        # per job
        jobs_total = registry.counter("si_jobs_total",
                                      labelnames=("event",))
        assert jobs_total.value(event="submitted") == 2
        assert jobs_total.value(event="completed") == 2
        assert jobs_total.value(event="deduplicated") == 0
        assert jobs_total.value(event="failed") == 0
        stage_seconds = registry.histogram("si_stage_seconds",
                                           labelnames=("stage",))
        for stage in STAGES:
            assert stage_seconds.count(stage=stage) == 2
        run_seconds = registry.histogram("si_job_run_seconds")
        assert run_seconds.count() == 2


def run_jobs(workers):
    """Run half and hazard on a traced service; returns the two
    finished jobs."""
    service = JobService(workers=workers, keep_trace=True).start()
    try:
        first, _ = service.submit(HALF_G, key="", params=PARAMS)
        second, _ = service.submit(HAZARD_G, key="", params=PARAMS)
        return wait_done(service, [first, second])
    finally:
        service.stop()


def job_stats(job):
    (root,) = [span for span in job.trace if span["name"] == "job"]
    return root["args"]["stats"]


def test_raced_jobs_see_only_their_own_events_and_stats(monkeypatch):
    with use_registry():
        alone = run_jobs(workers=1)
        rendezvous(monkeypatch)
        raced_jobs = run_jobs(workers=2)
    expected_events = [(stage, status) for stage in STAGES
                       for status in ("start", "done")]
    for solo, job in zip(alone, raced_jobs):
        assert job.name == solo.name
        assert [(event["stage"], event["status"])
                for event in job.events] == expected_events
        assert job_stats(job) == job_stats(solo)
    assert job_stats(raced_jobs[0]) != job_stats(raced_jobs[1])
