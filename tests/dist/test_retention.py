"""Job result retention: finished Table-1 rows spill into the
artifact store under the ``jobrow`` kind, memory eviction respects the
retention bound, and evicted or pre-restart jobs restore lazily on
``get`` — including for submit-side deduplication."""

import time

import pytest

from repro.bench_suite import benchmark
from repro.dist.jobs import (DONE, JOBROW_SCHEMA, JobParams, JobService,
                             job_id_of)
from repro.obs.metrics import use_registry
from repro.pipeline.store import MISS, DiskArtifactCache
from repro.stg.writer import write_g

HALF_G = write_g(benchmark("half"))
HAZARD_G = write_g(benchmark("hazard"))
PARAMS = JobParams(libraries=(2,), with_siegel=False)


def wait_done(service, job, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        current = service.get(job.id)
        if current is not None and current.state == DONE:
            return current
        time.sleep(0.01)
    pytest.fail(f"job {job.id} did not finish: {job.state}")


@pytest.fixture
def store(tmp_path):
    return DiskArtifactCache(str(tmp_path / "store"))


def run_one(service, g_text=HALF_G):
    job, created = service.submit(g_text, key="")
    assert created
    return wait_done(service, job)


class TestSpill:
    def test_finished_row_lands_in_store(self, store):
        with use_registry():
            service = JobService(store=store, workers=1).start()
            try:
                job = run_one(service)
            finally:
                service.stop()
        payload = store.get(("jobrow", job.id))
        assert payload is not MISS
        assert payload["schema"] == JOBROW_SCHEMA
        assert payload["id"] == job.id
        assert bytes(payload["result"]) == job.result
        assert payload["run_seconds"] > 0

    def test_storeless_service_keeps_everything(self):
        with use_registry():
            service = JobService(workers=1, retain=1).start()
            try:
                first = run_one(service, HALF_G)
                second = run_one(service, HAZARD_G)
            finally:
                service.stop()
            # nothing to spill to, so nothing is ever evicted
            assert service.get(first.id) is first
            assert service.get(second.id) is second


class TestEvictAndRestore:
    def test_excess_jobs_evict_and_restore_lazily(self, store):
        with use_registry() as registry:
            service = JobService(store=store, workers=1, retain=1).start()
            try:
                first = run_one(service, HALF_G)
                run_one(service, HAZARD_G)
            finally:
                service.stop()
            # the older job left memory...
            with service._lock:
                assert first.id not in service._jobs
            # ...but get() rebuilds it from its spilled row
            restored = service.get(first.id)
            assert restored is not None
            assert restored.state == DONE
            assert restored.result == first.result
            assert restored._restored
            counter = registry.counter("si_jobs_total",
                                       labelnames=("event",))
            assert counter.value(event="evicted") >= 1
            assert counter.value(event="restored") == 1
        assert service.stats_payload()["restored"] == 1

    def test_restart_restores_and_dedupes(self, store):
        """A fresh service over the same store treats a spilled row as
        a finished job: get() serves it and submit() deduplicates
        against it instead of recomputing."""
        with use_registry():
            service = JobService(store=store, workers=1).start()
            try:
                job = run_one(service)
            finally:
                service.stop()
        with use_registry():
            reborn = JobService(store=store, workers=1).start()
            try:
                resubmitted, created = reborn.submit(HALF_G, key="")
            finally:
                reborn.stop()
            assert not created
            assert resubmitted.state == DONE
            assert resubmitted.result == job.result
            assert reborn.stats_payload()["restored"] == 1

    def test_alien_row_is_a_miss(self, store):
        store.put(("jobrow", "deadbeef"), {"schema": "wrong/9",
                                           "id": "deadbeef"})
        with use_registry():
            service = JobService(store=store, workers=1)
            assert service.get("deadbeef") is None

    def test_torn_row_is_a_miss(self, store):
        job_id = job_id_of(HALF_G, PARAMS)
        store.put(("jobrow", job_id),
                  {"schema": JOBROW_SCHEMA, "id": job_id})
        with use_registry():
            service = JobService(store=store, workers=1)
            assert service.get(job_id) is None
