"""The remote artifact-store backend, the serve daemon, and the
tiered composite: round-trips over real sockets, the degrade-to-miss
failure model, and warm-started pipelines through a live server."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.dist.remote import RemoteArtifactCache, TieredStore
from repro.dist.server import ArtifactServer
from repro.obs.metrics import use_registry
from repro.pipeline import (ArtifactCache, DiskArtifactCache, Pipeline,
                            PipelineConfig)
from repro.pipeline.store import (ARTIFACT_FORMATS, MISS, digest_of,
                                  encode_entry, kind_of)

KEY = ("sg", "f" * 64)
OTHER = ("map", "e" * 64, 2, "global", ())

#: nothing listens here (port 1 is privileged and unused)
DEAD_URL = "http://127.0.0.1:1"


@pytest.fixture
def server(tmp_path):
    """A live serve daemon over a fresh store, on an ephemeral port."""
    with ArtifactServer(str(tmp_path / "served"),
                        port=0).start_background() as live:
        yield live


@pytest.fixture
def remote(server):
    return RemoteArtifactCache(server.url)


class TestRemoteRoundTrip:
    def test_round_trip_against_live_server(self, remote, traffic):
        assert remote.get(KEY) is MISS
        assert traffic()["remote_misses"] == 1
        assert remote.put(KEY, {"value": 42})
        assert traffic()["remote_writes"] == 1
        assert traffic()["remote_bytes_written"] > 0
        assert remote.get(KEY) == {"value": 42}
        assert traffic()["remote_hits"] == 1
        assert traffic()["remote_bytes_read"] > 0

    def test_entries_visible_across_clients(self, server, remote):
        remote.put(KEY, "artifact")
        fresh = RemoteArtifactCache(server.url)
        assert fresh.get(KEY) == "artifact"

    def test_distinct_keys_do_not_alias(self, remote):
        remote.put(KEY, "a")
        remote.put(OTHER, "b")
        assert remote.get(KEY) == "a"
        assert remote.get(OTHER) == "b"

    def test_unknown_kind_never_travels(self, remote, traffic):
        assert not remote.put(("stg", "a" * 64), "raw")
        assert remote.get(("stg", "a" * 64)) is MISS
        assert traffic()["remote_writes"] == 0

    def test_unpicklable_value_is_skipped(self, remote, traffic):
        assert not remote.put(KEY, threading.Lock())
        assert traffic()["remote_write_skips"] == 1

    def test_format_stamp_checked_client_side(self, remote,
                                              monkeypatch, traffic):
        """A downloaded entry with yesterday's schema is a miss — the
        server does not know (or care) what version clients speak."""
        remote.put(KEY, "artifact")
        monkeypatch.setitem(ARTIFACT_FORMATS, "sg",
                            ARTIFACT_FORMATS["sg"] + 1)
        assert remote.get(KEY) is MISS
        assert traffic()["remote_stale"] == 1

    def test_report_reflects_server_inventory(self, remote):
        remote.put(KEY, "a")
        remote.put(OTHER, "b")
        report = remote.report()
        assert report.entries == 2
        assert set(report.by_kind) == {"sg", "map"}
        assert report.root == remote.address

    def test_remote_gc_and_clear(self, remote):
        remote.put(KEY, "a")
        assert remote.gc() == (0, 0)           # healthy entry survives
        removed, freed = remote.clear()
        assert removed == 1 and freed > 0
        assert remote.get(KEY) is MISS


class TestDeadServer:
    """A dead or dying server costs misses, never a failed run."""

    def test_get_degrades_to_miss(self, traffic):
        dead = RemoteArtifactCache(DEAD_URL, cooldown=0)
        assert dead.get(KEY) is MISS
        assert traffic()["remote_errors"] == 1

    def test_put_degrades_to_skip(self, traffic):
        dead = RemoteArtifactCache(DEAD_URL, cooldown=0)
        assert not dead.put(KEY, "value")
        assert traffic()["remote_write_skips"] == 1

    def test_cooldown_stops_hammering(self, traffic):
        dead = RemoteArtifactCache(DEAD_URL, cooldown=3600)
        assert dead.get(KEY) is MISS           # one real attempt
        assert dead.get(KEY) is MISS           # skipped: cooldown
        assert not dead.put(KEY, "v")          # skipped: cooldown
        counts = traffic()
        assert counts["remote_errors"] == 1    # only the first call
        assert counts["remote_misses"] == 1
        assert counts["remote_write_skips"] == 1

    @staticmethod
    def _raising_http(client, code):
        """Make every request of the client's daemon backend answer
        ``code`` — patched on the backend, where the wire is, so the
        dead URL behind it is never reached."""
        import io

        def boom(method, path, data=None, headers=None):
            raise urllib.error.HTTPError("url", code, "backend down",
                                         {}, io.BytesIO())
        client.backend._request = boom
        client.backend._open = boom

    def test_5xx_opens_the_cooldown(self, traffic):
        """A broken backend behind a live proxy must back off exactly
        like a dead socket — not one failed request per artifact."""
        client = RemoteArtifactCache(DEAD_URL, cooldown=3600)
        self._raising_http(client, 503)
        assert client.get(KEY) is MISS
        assert traffic()["remote_errors"] == 1
        assert client.get(KEY) is MISS         # cooldown: no request
        assert traffic()["remote_errors"] == 1
        assert traffic()["remote_misses"] == 1

    def test_5xx_on_put_counts_as_error(self, traffic):
        """A 507 (full store) is operator-visible in remote_errors,
        unlike a benign refused upload."""
        client = RemoteArtifactCache(DEAD_URL, cooldown=3600)
        self._raising_http(client, 507)
        assert not client.put(KEY, "value")
        assert traffic()["remote_errors"] == 1
        assert traffic()["remote_write_skips"] == 1
        assert not client._available()         # backing off

    def test_refused_put_is_a_skip_not_an_error(self, traffic):
        """A 413 (entry over the daemon's size cap) refuses one upload
        from a live daemon: a skip, with no error and no back-off."""
        client = RemoteArtifactCache(DEAD_URL, cooldown=3600)
        self._raising_http(client, 413)
        assert not client.put(KEY, "value")
        assert traffic()["remote_write_skips"] == 1
        assert traffic()["remote_errors"] == 0
        assert client._available()

    def test_refused_get_opens_no_cooldown(self, traffic):
        """A 403 on a download is an error, but the daemon is alive:
        the next read reaches the backend again."""
        client = RemoteArtifactCache(DEAD_URL, cooldown=3600)
        self._raising_http(client, 403)
        assert client.get(KEY) is MISS
        assert traffic()["remote_errors"] == 1
        assert client._available()
        assert client.get(KEY) is MISS         # a real request again
        assert traffic()["remote_errors"] == 2
        assert traffic()["remote_misses"] == 0

    def test_maintenance_degrades_to_zero(self):
        dead = RemoteArtifactCache(DEAD_URL, cooldown=0)
        assert dead.gc() == (0, 0)
        assert dead.clear() == (0, 0)
        assert dead.report().entries == 0
        assert not dead.healthy()

    def test_server_death_mid_run_degrades(self, tmp_path, traffic):
        live = ArtifactServer(str(tmp_path / "s"),
                              port=0).start_background()
        client = RemoteArtifactCache(live.url, cooldown=0)
        client.put(KEY, "value")
        live.stop()
        assert client.get(KEY) is MISS         # dead now: miss
        assert traffic()["remote_errors"] >= 1


class TestServerProtocol:
    def test_healthz(self, server):
        with urllib.request.urlopen(server.url + "/healthz") as reply:
            assert reply.status == 200

    def test_stats_telemetry_reads_the_registry(self, server, remote):
        """``/stats`` ``telemetry`` is the registry's eight ``disk_*``
        counters, which the daemon's handlers count on their own
        threads."""
        with use_registry():
            remote.put(KEY, "artifact")
            assert remote.get(KEY) == "artifact"
            assert remote.get(OTHER) is MISS
            with urllib.request.urlopen(server.url + "/stats") as reply:
                telemetry = json.loads(reply.read())["telemetry"]
        assert set(telemetry) == {
            f"disk_{op}" for op in ("hits", "misses", "stale", "errors",
                                    "writes", "write_skips",
                                    "bytes_read", "bytes_written")}
        assert telemetry["disk_writes"] == 1
        assert telemetry["disk_hits"] == 1
        assert telemetry["disk_misses"] == 1
        assert (telemetry["disk_bytes_read"]
                == telemetry["disk_bytes_written"] > 0)

    def test_head_missing_artifact_404(self, server):
        request = urllib.request.Request(
            f"{server.url}/artifact/sg/{'0' * 64}", method="HEAD")
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request)
        assert caught.value.code == 404

    @pytest.mark.parametrize("path", [
        "/artifact/sg/short",                  # not a sha256
        "/artifact/../../etc/passwd",          # traversal shape
        "/artifact/sg/" + "Z" * 64,            # not lowercase hex
        "/nonsense",
    ])
    def test_malformed_paths_are_404(self, server, path):
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(server.url + path)
        assert caught.value.code == 404

    def test_oversize_put_gets_a_clean_413(self, server, monkeypatch):
        """The body is drained so the 413 reaches a mid-upload client
        as an HTTP reply (a skip), not a broken pipe (a 'dead server'
        that would open the cooldown)."""
        import repro.dist.server as server_module
        monkeypatch.setattr(server_module, "MAX_ENTRY_BYTES", 1024)
        request = urllib.request.Request(
            f"{server.url}/artifact/sg/{'3' * 64}",
            data=b"x" * 2048, method="PUT")
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request)
        assert caught.value.code == 413

    def test_put_garbage_is_rejected(self, server):
        """Uploads must at least carry a well-formed envelope header —
        the server never stores bytes it could not even inventory."""
        request = urllib.request.Request(
            f"{server.url}/artifact/sg/{'1' * 64}",
            data=b"not an envelope", method="PUT")
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request)
        assert caught.value.code == 400

    def test_keepalive_connection_reuse_on_success(self, server):
        """One HTTP/1.1 connection, PUT then GET: the success path
        consumes the body fully, so the socket stays usable."""
        import http.client
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=5)
        data = encode_entry(KEY, "value", ARTIFACT_FORMATS["sg"])
        path = f"/artifact/sg/{digest_of(KEY)}"
        connection.request("PUT", path, body=data)
        reply = connection.getresponse()
        reply.read()
        assert reply.status == 204
        connection.request("GET", path)        # same socket
        reply = connection.getresponse()
        assert reply.status == 200
        assert reply.read() == data
        connection.close()

    def test_keepalive_replies_do_not_stall(self, server):
        """Headers and body leave as two writes; without TCP_NODELAY
        the body waits for the client's delayed ACK (~40 ms) on every
        reply of a reused connection."""
        import http.client
        import statistics
        import time
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=5)
        laps = []
        for _ in range(30):
            start = time.perf_counter()
            connection.request("GET", "/healthz")
            reply = connection.getresponse()
            reply.read()
            laps.append(time.perf_counter() - start)
            assert reply.status == 200
        connection.close()
        assert statistics.median(laps) < 0.020, laps

    def test_rejected_put_closes_the_connection(self, server):
        """A reply sent *before* the body is consumed (bad path here)
        must close the connection — the unread body bytes would
        otherwise be parsed as the next request."""
        import http.client
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=5)
        connection.request("PUT", "/artifact/not-a-digest",
                           body=b"x" * 1024)
        reply = connection.getresponse()
        assert reply.status == 404
        assert reply.getheader("Connection") == "close"
        connection.close()

    def test_envelope_rejection_keeps_the_connection(self, server):
        """The 400 for a bad envelope comes after the body was fully
        read: the connection stays clean and reusable."""
        import http.client
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=5)
        connection.request("PUT", "/artifact/sg/" + "1" * 64,
                           body=b"not an envelope")
        reply = connection.getresponse()
        reply.read()
        assert reply.status == 400
        assert reply.getheader("Connection") != "close"
        connection.request("GET", "/healthz")  # same socket still works
        reply = connection.getresponse()
        assert reply.status == 200
        connection.close()

    def test_concurrent_puts_are_idempotent(self, server):
        """Many threads PUT the same entry: every request succeeds,
        exactly one complete entry results."""
        data = encode_entry(KEY, "payload" * 100,
                            ARTIFACT_FORMATS["sg"])
        url = f"{server.url}/artifact/{kind_of(KEY)}/{digest_of(KEY)}"
        failures = []

        def upload():
            request = urllib.request.Request(url, data=data,
                                             method="PUT")
            try:
                with urllib.request.urlopen(request) as reply:
                    if reply.status != 204:
                        failures.append(reply.status)
            except Exception as error:   # pragma: no cover - fail loud
                failures.append(error)

        threads = [threading.Thread(target=upload) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        assert server.store.report().entries == 1
        client = RemoteArtifactCache(server.url)
        assert client.get(KEY) == "payload" * 100


class TestTieredStore:
    def _tiers(self, tmp_path, server):
        local = DiskArtifactCache(str(tmp_path / "local"))
        remote = RemoteArtifactCache(server.url)
        return TieredStore(local, remote), local, remote

    def test_put_writes_through_both_layers(self, tmp_path, server,
                                           traffic):
        tiered, local, remote = self._tiers(tmp_path, server)
        assert tiered.put(KEY, "artifact")
        assert traffic()["disk_writes"] == 1
        assert traffic()["remote_writes"] == 1
        # both layers can answer alone
        assert DiskArtifactCache(local.root).get(KEY) == "artifact"
        assert RemoteArtifactCache(server.url).get(KEY) == "artifact"

    def test_local_hit_never_touches_network(self, tmp_path, server,
                                             traffic):
        tiered, local, remote = self._tiers(tmp_path, server)
        tiered.put(KEY, "artifact")
        assert tiered.get(KEY) == "artifact"
        assert traffic()["disk_hits"] == 1
        assert traffic()["remote_hits"] == 0

    def test_remote_hit_backfills_local(self, tmp_path, server,
                                        traffic):
        RemoteArtifactCache(server.url).put(KEY, "artifact")
        tiered, local, remote = self._tiers(tmp_path, server)
        assert tiered.get(KEY) == "artifact"   # came from the server
        assert traffic()["remote_hits"] == 1
        assert tiered.get(KEY) == "artifact"   # now local
        assert traffic()["disk_hits"] == 1
        assert traffic()["remote_hits"] == 1   # unchanged

    def test_backfill_reuses_the_wire_bytes(self, tmp_path, server,
                                            traffic):
        """The write-back stores the downloaded envelope as-is — no
        second pickling of the payload."""
        RemoteArtifactCache(server.url).put(KEY, "artifact" * 50)
        tiered, local, remote = self._tiers(tmp_path, server)
        assert tiered.get(KEY) == "artifact" * 50
        counts = traffic()
        assert counts["disk_bytes_written"] == counts["remote_bytes_read"]
        assert counts["disk_write_skips"] == 0

    def test_put_survives_dead_remote(self, tmp_path):
        local = DiskArtifactCache(str(tmp_path / "local"))
        tiered = TieredStore(local,
                             RemoteArtifactCache(DEAD_URL, cooldown=0))
        assert tiered.put(KEY, "artifact")     # local succeeded
        assert tiered.get(KEY) == "artifact"

    def test_telemetry_merges_both_layers(self, tmp_path, server):
        """A run over the tiered store reports each layer's traffic
        under its own keys: the cold run writes through both, a fresh
        worker's warm run reads the server and back-fills its disk."""
        config = PipelineConfig(libraries=(2,), with_siegel=False,
                                keep_artifacts=False)

        def tiered_run(local: str):
            store = TieredStore(DiskArtifactCache(str(tmp_path / local)),
                                RemoteArtifactCache(server.url))
            return Pipeline(config,
                            cache=ArtifactCache(disk=store)).run("half")

        cold = tiered_run("a").stats
        assert cold["disk_writes"] == cold["remote_writes"] > 0
        assert cold["disk_bytes_written"] == cold["remote_bytes_written"]
        warm = tiered_run("b").stats
        assert warm["cache_misses"] == 0
        assert warm["remote_hits"] == warm["disk_writes"] > 0
        assert warm["disk_bytes_written"] == warm["remote_bytes_read"]

    def test_put_encodes_once_for_both_layers(self, tmp_path, server,
                                              traffic):
        """One pickling feeds both layers: the uploaded bytes are the
        local entry's bytes."""
        tiered, local, remote = self._tiers(tmp_path, server)
        assert tiered.put(KEY, "artifact" * 50)
        assert (traffic()["disk_bytes_written"]
                == traffic()["remote_bytes_written"])

    def test_unpicklable_value_skips_both_layers(self, tmp_path,
                                                 server, traffic):
        tiered, local, remote = self._tiers(tmp_path, server)
        assert not tiered.put(KEY, threading.Lock())
        counts = traffic()
        assert counts["disk_write_skips"] == 1
        assert counts["remote_write_skips"] == 1
        assert counts["disk_writes"] == 0
        assert counts["remote_writes"] == 0


def test_serve_bind_failure_is_a_clean_cli_error(tmp_path, server,
                                                 capsys):
    """A taken port is an operational error (exit 2), not a
    traceback."""
    from repro.cli import main
    host, port = server.server_address[:2]
    assert main(["serve", "--cache-dir", str(tmp_path / "x"),
                 "--host", host, "--port", str(port)]) == 2
    assert "cannot serve" in capsys.readouterr().err


CONFIG = dict(libraries=(2,), with_siegel=False, keep_artifacts=False)


class TestPipelineOverRemote:
    """The acceptance path: workers warm-start through the server."""

    def test_cold_then_warm_through_server(self, server):
        config = PipelineConfig(cache_url=server.url, **CONFIG)
        cold = Pipeline(config).run("half")
        assert cold.stats["sg"] == 1
        assert cold.stats["remote_writes"] > 0
        warm = Pipeline(config).run("half")    # fresh memory cache
        assert warm.stats["sg"] == 0
        assert warm.stats["implementations"] == 0
        assert warm.stats["map"] == 0
        assert warm.stats["remote_hits"] > 0
        assert warm.row == cold.row

    def test_tiered_worker_rereads_locally(self, tmp_path, server):
        config = PipelineConfig(cache_url=server.url,
                                cache_dir=str(tmp_path / "w1"),
                                **CONFIG)
        cold = Pipeline(config).run("half")
        assert cold.stats["remote_writes"] > 0
        # a different machine: no local store yet, pulls remotely and
        # backfills its own disk
        other = PipelineConfig(cache_url=server.url,
                               cache_dir=str(tmp_path / "w2"),
                               **CONFIG)
        warm = Pipeline(other).run("half")
        assert warm.stats["sg"] == 0
        assert warm.stats["remote_hits"] > 0
        # third run on that machine: all local now
        again = Pipeline(PipelineConfig(
            cache_url=DEAD_URL, cache_dir=str(tmp_path / "w2"),
            **CONFIG)).run("half")
        assert again.stats["sg"] == 0
        assert again.stats["disk_hits"] > 0
        assert again.stats["remote_hits"] == 0
        assert again.row == cold.row

    def test_dead_server_never_fails_a_run(self):
        config = PipelineConfig(cache_url=DEAD_URL, **CONFIG)
        record = Pipeline(config).run("half")
        assert record.stats["sg"] == 1         # computed locally
        assert record.stats["remote_hits"] == 0
        assert record.row is not None
