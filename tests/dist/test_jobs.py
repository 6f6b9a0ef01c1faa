"""The synthesis job service: live-server submit/poll/fetch flows,
auth and quotas, cancellation, work stealing, the maintenance-body
and stalled-client server fixes, and remote-degrade interplay."""

import gc
import json
import socket
import threading
import time
import urllib.request
import weakref

import pytest

from repro.bench_suite import benchmark
from repro.cli import main
from repro.dist.client import ServiceClient
from repro.dist.jobs import (ClaimPool, JobParams, JobRequestError,
                             JobService, QuotaExceeded,
                             canonical_row_bytes, job_id_of)
from repro.dist.remote import RemoteArtifactCache
from repro.dist.server import ArtifactServer
from repro.dist.shard import read_shard
from repro.errors import ServiceError
from repro.obs.metrics import use_registry
from repro.pipeline import Pipeline, PipelineConfig
from repro.pipeline.store import traffic_stats
from repro.stg.writer import write_g

#: nothing listens here (port 1 is privileged and unused)
DEAD_URL = "http://127.0.0.1:1"

HALF_G = write_g(benchmark("half"))
HAZARD_G = write_g(benchmark("hazard"))

#: parses fine, fails in the pipeline: along the cycle a rises twice
#: without falling, so the reach stage raises a consistency error
BROKEN_G = """.model broken
.outputs a b
.graph
a+ b+
b+ a+
.marking { <b+,a+> }
.end
"""

#: the fast battery used throughout: one library, no baseline
PARAMS = JobParams(libraries=(2,), with_siegel=False)


def local_row_bytes(name, params=PARAMS):
    """What the single-process run computes for this battery."""
    record = Pipeline(PipelineConfig(
        libraries=params.libraries, with_siegel=params.with_siegel,
        keep_artifacts=False)).run(name)
    return canonical_row_bytes(record.row)


@pytest.fixture
def server(tmp_path):
    """A live serve daemon with the job service enabled."""
    with ArtifactServer(str(tmp_path / "served"), port=0,
                        workers=2).start_background() as live:
        yield live


@pytest.fixture
def client(server):
    return ServiceClient(server.url)


@pytest.fixture
def queued_server(tmp_path):
    """A server whose job service exists but never runs anything —
    submissions stay deterministically queued (cancel/quota tests)."""
    with ArtifactServer(str(tmp_path / "served"), port=0,
                        workers=0).start_background() as live:
        live.jobs = JobService(workers=1, quota=0)
        # deliberately NOT started: no worker thread ever dequeues
        yield live


# ----------------------------------------------------------------------
# The headline flow
# ----------------------------------------------------------------------

class TestSubmitPollFetch:
    def test_result_byte_identical_to_local_run(self, client):
        row = client.submit_and_wait(HALF_G, PARAMS)
        assert row == local_row_bytes("half")

    def test_status_reports_stage_timings(self, client):
        accepted = client.submit(HALF_G, PARAMS)
        deadline = time.monotonic() + 60
        while True:
            document = client.status(accepted["id"])
            if document["state"] == "done":
                break
            assert time.monotonic() < deadline
            time.sleep(0.05)
        assert set(document["timings"]) == {
            "load", "reach", "synthesize", "map", "report"}
        assert all(seconds >= 0
                   for seconds in document["timings"].values())
        assert document["wait_seconds"] >= 0
        assert document["run_seconds"] > 0
        statuses = [(event["stage"], event["status"])
                    for event in document["events"]]
        assert ("load", "start") == statuses[0]

    def test_result_while_queued_is_202(self, queued_server):
        client = ServiceClient(queued_server.url)
        accepted = client.submit(HALF_G, PARAMS)
        assert client.result(accepted["id"]) is None

    def test_unparseable_g_is_400(self, client):
        with pytest.raises(ServiceError) as failure:
            client.submit("this is not a .g file", PARAMS)
        assert failure.value.status == 400

    def test_pipeline_error_becomes_failed_job(self, client):
        accepted = client.submit(BROKEN_G, PARAMS)
        deadline = time.monotonic() + 60
        while True:
            document = client.status(accepted["id"])
            if document["state"] in ("done", "failed"):
                break
            assert time.monotonic() < deadline
            time.sleep(0.05)
        assert document["state"] == "failed"
        assert document["error"]
        with pytest.raises(ServiceError) as failure:
            client.result(accepted["id"])
        assert failure.value.status == 409

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as failure:
            client.status("0" * 32)
        assert failure.value.status == 404

    def test_stats_exports_queue_counters(self, server, client):
        client.submit_and_wait(HALF_G, PARAMS)
        with urllib.request.urlopen(server.url + "/stats") as reply:
            stats = json.loads(reply.read())
        jobs = stats["jobs"]
        assert jobs["submitted"] == 1
        assert jobs["completed"] == 1
        assert jobs["queue_depth"] == 0
        assert jobs["run_seconds_total"] > 0
        assert jobs["by_state"] == {"done": 1}


class TestPerJobMemory:
    """Each job computes in its own memory layer over the store: a
    finished job leaves nothing resident, and reuse across jobs comes
    from the store, as it does for CLI runs."""

    def test_finished_jobs_release_their_state_graphs(self, tmp_path,
                                                      monkeypatch):
        from repro.pipeline import context
        computed = []
        real = context.state_graph_of

        def recording(stg, *args, **kwargs):
            sg = real(stg, *args, **kwargs)
            computed.append(weakref.ref(sg))
            return sg

        monkeypatch.setattr(context, "state_graph_of", recording)
        names = ("half", "hazard", "chu133")
        with use_registry(), ArtifactServer(
                str(tmp_path / "served"), port=0,
                workers=1).start_background() as live:
            client = ServiceClient(live.url)
            for name in names:
                client.submit_and_wait(write_g(benchmark(name)), PARAMS,
                                       poll_seconds=0.02)
            gc.collect()
            assert len(computed) == len(names)
            assert [ref() for ref in computed] == [None] * len(names)
            # other parameters, same circuit: the state graph comes
            # from the store, not from an earlier job's memory
            client.submit_and_wait(
                HALF_G, JobParams(libraries=(3,), with_siegel=False),
                poll_seconds=0.02)
            with urllib.request.urlopen(live.url + "/stats") as reply:
                telemetry = json.loads(reply.read())["telemetry"]
        assert len(computed) == len(names)
        assert telemetry["disk_hits"] >= 1

    def test_storeless_jobs_share_no_artifacts(self, monkeypatch):
        """Without a store there is no cross-job reuse: each job
        computes its circuit's state graph in its own memory layer."""
        from repro.pipeline import context
        calls = []
        real = context.state_graph_of
        monkeypatch.setattr(context, "state_graph_of",
                            lambda stg: calls.append(stg.name) or real(stg))
        with use_registry():
            service = JobService(workers=1).start()
            try:
                for params in (PARAMS, JobParams(libraries=(3,),
                                                 with_siegel=False)):
                    job, _ = service.submit(HALF_G, "", params)
                    deadline = time.monotonic() + 60
                    while service.get(job.id).state != "done":
                        assert time.monotonic() < deadline, job.state
                        time.sleep(0.01)
            finally:
                service.stop()
        assert calls == ["half", "half"]


class TestDeduplication:
    def test_concurrent_submits_compute_once(self, server, client):
        ids = []
        barrier = threading.Barrier(4)

        def submit():
            barrier.wait()
            ids.append(client.submit(HALF_G, PARAMS)["id"])

        threads = [threading.Thread(target=submit) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(ids)) == 1
        assert client.submit_and_wait(HALF_G, PARAMS) \
            == local_row_bytes("half")
        payload = server.jobs.stats_payload()
        assert payload["submitted"] == 1
        assert payload["deduplicated"] >= 4   # 4 racers + the waiter
        assert payload["completed"] == 1

    def test_whitespace_variants_share_a_job(self, client):
        first = client.submit(HALF_G, PARAMS)
        second = client.submit("\n\n" + HALF_G.replace("\n", "\n\n"),
                               PARAMS)
        assert first["id"] == second["id"]
        assert second["created"] is False

    def test_different_battery_is_a_different_job(self, client):
        first = client.submit(HALF_G, PARAMS)
        second = client.submit(
            HALF_G, JobParams(libraries=(2, 3), with_siegel=False))
        assert first["id"] != second["id"]


# ----------------------------------------------------------------------
# Auth, quotas, cancellation
# ----------------------------------------------------------------------

class TestAuthAndQuota:
    @pytest.fixture
    def keyed_server(self, tmp_path):
        with ArtifactServer(str(tmp_path / "served"), port=0,
                            workers=0,
                            api_keys=("tenant-a", "tenant-b"),
                            ).start_background() as live:
            live.jobs = JobService(workers=1, quota=1)
            yield live

    def test_missing_key_is_403(self, keyed_server):
        with pytest.raises(ServiceError) as failure:
            ServiceClient(keyed_server.url).submit(HALF_G, PARAMS)
        assert failure.value.status == 403

    def test_wrong_key_is_403_everywhere(self, keyed_server):
        client = ServiceClient(keyed_server.url, api_key="intruder")
        for call in (lambda: client.submit(HALF_G, PARAMS),
                     lambda: client.status("0" * 32),
                     lambda: client.cancel("0" * 32),
                     lambda: client.claim(["half"])):
            with pytest.raises(ServiceError) as failure:
                call()
            assert failure.value.status == 403

    def test_quota_exhaustion_is_429(self, keyed_server):
        client = ServiceClient(keyed_server.url, api_key="tenant-a")
        client.submit(HALF_G, PARAMS)
        with pytest.raises(ServiceError) as failure:
            client.submit(HAZARD_G, PARAMS)    # second *active* job
        assert failure.value.status == 429
        assert keyed_server.jobs.stats_payload(
        )["quota_rejections"] == 1

    def test_quota_is_per_tenant(self, keyed_server):
        ServiceClient(keyed_server.url,
                      api_key="tenant-a").submit(HALF_G, PARAMS)
        other = ServiceClient(keyed_server.url, api_key="tenant-b")
        accepted = other.submit(HAZARD_G, PARAMS)
        assert accepted["state"] == "queued"

    def test_dedup_hit_does_not_charge_quota(self, keyed_server):
        client = ServiceClient(keyed_server.url, api_key="tenant-a")
        client.submit(HALF_G, PARAMS)
        again = client.submit(HALF_G, PARAMS)   # same job, no charge
        assert again["created"] is False

    def test_artifact_api_stays_open(self, keyed_server):
        """Keys guard the job API; the artifact cache keeps the
        trusted-cluster model (existing workers keep working)."""
        with urllib.request.urlopen(
                keyed_server.url + "/healthz") as reply:
            assert reply.status == 200


class TestCancellation:
    def test_cancel_mid_queue(self, queued_server):
        client = ServiceClient(queued_server.url)
        accepted = client.submit(HALF_G, PARAMS)
        cancelled = client.cancel(accepted["id"])
        assert cancelled["state"] == "cancelled"
        assert client.status(accepted["id"])["state"] == "cancelled"

    def test_cancel_is_not_idempotent(self, queued_server):
        client = ServiceClient(queued_server.url)
        accepted = client.submit(HALF_G, PARAMS)
        client.cancel(accepted["id"])
        with pytest.raises(ServiceError) as failure:
            client.cancel(accepted["id"])
        assert failure.value.status == 409

    def test_cancelled_job_never_runs(self, queued_server):
        client = ServiceClient(queued_server.url)
        accepted = client.submit(HALF_G, PARAMS)
        client.cancel(accepted["id"])
        queued_server.jobs.start()       # workers come up afterwards
        time.sleep(0.3)                  # ample time to (not) run it
        payload = queued_server.jobs.stats_payload()
        assert payload["completed"] == 0
        assert payload["by_state"] == {"cancelled": 1}

    def test_cancel_unknown_job_is_404(self, queued_server):
        with pytest.raises(ServiceError) as failure:
            ServiceClient(queued_server.url).cancel("0" * 32)
        assert failure.value.status == 404

    def test_done_job_does_not_cancel(self, client):
        accepted = client.submit(HALF_G, PARAMS)
        client.submit_and_wait(HALF_G, PARAMS)
        with pytest.raises(ServiceError) as failure:
            client.cancel(accepted["id"])
        assert failure.value.status == 409

    def test_resubmit_after_cancel_is_a_fresh_run(self, queued_server):
        client = ServiceClient(queued_server.url)
        first = client.submit(HALF_G, PARAMS)
        client.cancel(first["id"])
        second = client.submit(HALF_G, PARAMS)
        assert second["id"] == first["id"]      # stable content id
        assert second["created"] is True        # but a fresh run
        assert client.status(first["id"])["state"] == "queued"


# ----------------------------------------------------------------------
# Work stealing
# ----------------------------------------------------------------------

class TestClaimProtocol:
    def test_two_workers_partition_the_list(self, server):
        names = ["half", "hazard", "chu133", "dff"]
        one = ServiceClient(server.url)
        two = ServiceClient(server.url)
        claims = {"one": [], "two": []}
        while True:
            got = one.claim(names)["claimed"]
            if got is None:
                break
            claims["one"].append(got)
            got = two.claim(names)["claimed"]
            if got is not None:
                claims["two"].append(got)
        union = claims["one"] + claims["two"]
        assert sorted(union) == sorted(names)    # disjoint + complete
        assert len(set(union)) == len(names)

    def test_report_claims_one_circuit_at_a_time(self, server,
                                                 tmp_path, monkeypatch):
        """``report --claim`` claims a circuit, runs it, then claims
        the next, so every run leaves the rest of the list in the pool
        for other workers."""
        import repro.report
        real = repro.report.run_battery
        outstanding = []

        def recording(names, **kwargs):
            pools = server.claims.stats_payload()["outstanding"]
            outstanding.extend(pools.values())
            return real(names, **kwargs)

        monkeypatch.setattr(repro.report, "run_battery", recording)
        out = str(tmp_path / "s.json")
        assert main(["report", "half", "hazard", "dff", "-k", "2",
                     "--no-siegel", "-j", "1", "--shard", "1/1",
                     "--claim", "--cache-url", server.url,
                     "--out", out]) == 0
        assert outstanding == [2, 1, 0]
        assert read_shard(out)["claimed"] == ["half", "hazard", "dff"]

    def test_report_claim_needs_the_daemon_address(self, monkeypatch,
                                                   capsys):
        monkeypatch.delenv("SI_MAPPER_CACHE_URL", raising=False)
        assert main(["report", "half", "-j", "1", "--shard", "1/1",
                     "--claim"]) == 2
        assert "--cache-url" in capsys.readouterr().err

    def test_report_claim_refuses_parallel_jobs(self, server, capsys):
        assert main(["report", "half", "hazard", "-j", "2",
                     "--shard", "1/2", "--claim",
                     "--cache-url", server.url]) == 2
        assert "--claim" in capsys.readouterr().err
        assert server.claims.stats_payload()["claims"] == 0

    def test_distinct_batteries_have_distinct_pools(self, server):
        client = ServiceClient(server.url)
        assert client.claim(["half"])["claimed"] == "half"
        assert client.claim(["half", "hazard"])["claimed"] == "half"

    def test_malformed_claim_is_400(self, server):
        client = ServiceClient(server.url)
        for names in ([], [1, 2]):
            with pytest.raises(ServiceError) as failure:
                client.claim(names)
            assert failure.value.status == 400
        # a bare string never even leaves the client — list("half")
        # would claim letters, not circuits
        with pytest.raises(ServiceError):
            client.claim("half")

    def test_pool_unit_semantics(self):
        pool = ClaimPool()
        names = ["a", "b"]
        assert pool.claim(names)["claimed"] == "a"
        assert pool.claim(names)["remaining"] == 0
        assert pool.claim(names)["claimed"] is None
        assert pool.stats_payload()["claims"] == 2
        with pytest.raises(JobRequestError):
            pool.claim([])


# ----------------------------------------------------------------------
# Remote-degrade interplay: jobs complete from the disk tier
# ----------------------------------------------------------------------

class TestDegradedUpstream:
    def test_job_completes_while_upstream_is_dead(self, tmp_path):
        """The job pipeline runs over disk ⊕ upstream; with the
        upstream unreachable (cooldown pinned open) the job must
        still finish — and still match the local run exactly."""
        dead = RemoteArtifactCache(DEAD_URL, cooldown=3600)
        # the job worker counts on its own thread: read the totals of
        # a fresh registry
        with use_registry(), ArtifactServer(
                str(tmp_path / "served"), port=0, workers=1,
                upstream=dead).start_background() as live:
            row = ServiceClient(live.url).submit_and_wait(
                HALF_G, PARAMS)
            errors = traffic_stats()["remote_errors"]
        assert row == local_row_bytes("half")
        assert errors >= 1                   # it really was consulted

    def test_second_job_warm_starts_from_disk(self, tmp_path):
        dead = RemoteArtifactCache(DEAD_URL, cooldown=3600)
        with ArtifactServer(str(tmp_path / "served"), port=0,
                            workers=1,
                            upstream=dead).start_background() as live:
            client = ServiceClient(live.url)
            first = client.submit_and_wait(HALF_G, PARAMS)
            # different battery → different job id, same artifacts
            second = client.submit_and_wait(
                HALF_G, JobParams(libraries=(2,), with_siegel=True))
            assert first == local_row_bytes("half")
            assert json.loads(second)["name"] == "half"


# ----------------------------------------------------------------------
# Server hardening: maintenance bodies and stalled clients
# ----------------------------------------------------------------------

def _raw_request(server, payload, client_timeout=5.0):
    """Send raw bytes on a fresh socket; return what the server sends
    back (b"" if it closed without replying)."""
    host, port = server.server_address[:2]
    with socket.create_connection((host, port),
                                  timeout=client_timeout) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            try:
                chunk = sock.recv(65536)
            except socket.timeout:
                break
            if not chunk:
                break
            chunks.append(chunk)
        return b"".join(chunks)


class TestMaintenanceBodyDiscipline:
    KEY = ("sg", "f" * 64)

    @pytest.fixture
    def stocked(self, tmp_path):
        with ArtifactServer(str(tmp_path / "served"),
                            port=0).start_background() as live:
            assert live.store.put(self.KEY, "precious")
            yield live

    def test_oversized_clear_is_413_and_store_untouched(self,
                                                        stocked):
        reply = _raw_request(stocked, (
            b"POST /clear HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 100000\r\n\r\n"))
        assert reply.startswith(b"HTTP/1.1 413")
        assert stocked.store.get(self.KEY) == "precious"

    def test_short_read_clear_is_400_and_store_untouched(self,
                                                         stocked):
        reply = _raw_request(stocked, (
            b"POST /clear HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 10\r\n\r\nabc"))      # 3 of 10 bytes
        assert reply.startswith(b"HTTP/1.1 400")
        assert stocked.store.get(self.KEY) == "precious"

    def test_bad_content_length_gc_is_400(self, stocked):
        reply = _raw_request(stocked, (
            b"POST /gc HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: banana\r\n\r\n"))
        assert reply.startswith(b"HTTP/1.1 400")
        assert stocked.store.get(self.KEY) == "precious"

    def test_wellformed_clear_still_works(self, stocked):
        reply = _raw_request(stocked, (
            b"POST /clear HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 0\r\n\r\n"))
        assert reply.startswith(b"HTTP/1.1 200")
        from repro.pipeline.store import MISS
        assert stocked.store.get(self.KEY) is MISS


class TestStalledClients:
    @pytest.fixture
    def impatient(self, tmp_path):
        """A server that gives each connection half a second."""
        with ArtifactServer(str(tmp_path / "served"), port=0,
                            workers=0, request_timeout=0.5,
                            ).start_background() as live:
            live.jobs = JobService(workers=1)
            yield live

    def _stall(self, server, preamble):
        """Open a connection, send a partial request, then stall.
        Returns True when the server hung up within the timeout."""
        host, port = server.server_address[:2]
        with socket.create_connection((host, port),
                                      timeout=5.0) as sock:
            sock.sendall(preamble)
            # no more bytes: the handler blocks reading the body
            # until its socket timeout fires and closes us
            try:
                return sock.recv(1 << 16) == b""
            except socket.timeout:
                return False

    def test_stalled_put_does_not_pin_a_worker(self, impatient):
        assert self._stall(impatient, (
            b"PUT /artifact/sg/" + b"a" * 64 + b" HTTP/1.1\r\n"
            b"Host: x\r\nContent-Length: 1000\r\n\r\npartial"))

    def test_job_submission_inherits_the_timeout(self, impatient):
        assert self._stall(impatient, (
            b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 1000\r\n\r\n.model half"))
        # the half-submitted job never reached the service
        assert impatient.jobs.stats_payload()["submitted"] == 0

    def test_stalled_headers_time_out_too(self, impatient):
        assert self._stall(impatient,
                           b"GET /healthz HTTP/1.1\r\nHost")

    def test_healthy_requests_unaffected(self, impatient):
        with urllib.request.urlopen(
                impatient.url + "/healthz") as reply:
            assert reply.status == 200


# ----------------------------------------------------------------------
# Unit corners
# ----------------------------------------------------------------------

class TestJobParams:
    def test_query_round_trip(self):
        params = JobParams(libraries=(2, 4), with_siegel=False,
                           solve_csc=True, csc_method="regions")
        parsed = JobParams.from_query(
            {key: [value] for key, value in
             (pair.split("=") for pair in
              params.to_query().split("&"))})
        assert parsed == params

    def test_defaults(self):
        assert JobParams.from_query({}) == JobParams()

    def test_regions_implies_solve_csc(self):
        parsed = JobParams.from_query({"csc_method": ["regions"]})
        assert parsed.solve_csc

    def test_bad_values_raise(self):
        for query in ({"k": ["0"]}, {"k": ["x"]}, {"k": [""]},
                      {"csc_method": ["magic"]}):
            with pytest.raises(JobRequestError):
                JobParams.from_query(query)

    def test_job_id_is_stable_and_sensitive(self):
        base = job_id_of(HALF_G, PARAMS)
        assert base == job_id_of(HALF_G, PARAMS)
        assert base != job_id_of(HAZARD_G, PARAMS)
        assert base != job_id_of(HALF_G, JobParams())


class TestJobServiceUnits:
    def test_needs_a_worker(self):
        with pytest.raises(ValueError):
            JobService(workers=0)

    def test_quota_enforced_at_submit(self):
        service = JobService(workers=1, quota=1)
        service.submit(HALF_G, "tenant", PARAMS)
        with pytest.raises(QuotaExceeded):
            service.submit(HAZARD_G, "tenant", PARAMS)
        service.submit(HAZARD_G, "other", PARAMS)   # per-tenant
