"""Whole-entry transfer over real sockets: one plain GET per entry,
streamed through the daemon in many chunks, stored bytes served as
they are, streamed PUT bodies and concurrent idempotent uploads."""

import os
import pickle
import threading
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import repro.dist.server
from repro.dist.envelope import (ARTIFACT_FORMATS, digest_of,
                                 encode_entry, kind_of, read_header)
from repro.dist.remote import RemoteArtifactCache
from repro.dist.server import ArtifactServer
from repro.obs.metrics import use_registry
from repro.pipeline.store import MISS, traffic_stats

KEY = ("sg", "d" * 64)
#: the daemon's I/O piece size in the many-chunks round trip
TINY_CHUNK = 512
#: compresses, but stays far larger than the tiny chunk size
BIG_VALUE = {"trace": [f"state-{i:06d}" for i in range(5000)]}
VERSION = ARTIFACT_FORMATS["sg"]


@pytest.fixture
def server(tmp_path):
    with ArtifactServer(str(tmp_path / "served"),
                        port=0).start_background() as live:
        yield live


@pytest.fixture
def client(server):
    return RemoteArtifactCache(server.url)


def entry_url(server, key):
    return f"{server.url}/artifact/{kind_of(key)}/{digest_of(key)}"


def stored(server, key):
    """The entry's file in the served store, byte for byte."""
    with open(server.store.raw_path(kind_of(key), digest_of(key)),
              "rb") as handle:
        return handle.read()


class _RecordingHandler(BaseHTTPRequestHandler):
    """A plain server: records each request's method and ``Range``
    header, and answers every GET with ``200`` and the whole body."""

    protocol_version = "HTTP/1.1"

    def do_GET(self):
        self.server.requests.append((self.command,
                                     self.headers.get("Range")))
        body = self.server.body
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):
        pass


@pytest.fixture
def recording_server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _RecordingHandler)
    httpd.body = encode_entry(KEY, BIG_VALUE, VERSION)
    httpd.requests = []
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield httpd
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)


class TestWholeEntryDownloads:
    def test_round_trip_spanning_many_chunks(self, server, client,
                                             traffic, monkeypatch):
        """The daemon streams an upload and a download in many small
        pieces; the entry round-trips exactly."""
        monkeypatch.setattr(repro.dist.server, "IO_CHUNK_BYTES",
                            TINY_CHUNK)
        assert client.put(KEY, BIG_VALUE)
        envelope_bytes = stored(server, KEY)
        assert len(envelope_bytes) > TINY_CHUNK * 3  # really multi-chunk
        fresh = RemoteArtifactCache(server.url)
        assert fresh.get(KEY) == BIG_VALUE
        # the client accounted the whole envelope
        assert traffic()["remote_bytes_read"] == len(envelope_bytes)

    def test_single_range_gets_the_whole_entry(self, server, client):
        """A ``Range`` header is ignored: an older client's ranged
        first request gets the whole entry as a 200."""
        client.put(KEY, BIG_VALUE)
        whole = stored(server, KEY)
        assert len(whole) > 512
        request = urllib.request.Request(
            entry_url(server, KEY), headers={"Range": "bytes=0-511"})
        with urllib.request.urlopen(request, timeout=5) as response:
            assert response.status == 200
            assert "Content-Range" not in response.headers
            assert response.read() == whole

    def test_multi_range_served_as_full_200(self, server, client):
        """RFC 7233 allows ignoring ranges it will not serve."""
        client.put(KEY, BIG_VALUE)
        whole = stored(server, KEY)
        request = urllib.request.Request(
            entry_url(server, KEY),
            headers={"Range": "bytes=0-1, 5-9"})
        with urllib.request.urlopen(request, timeout=5) as response:
            assert response.status == 200
            assert response.read() == whole

    def test_one_plain_get_per_entry(self, recording_server):
        """A multi-KB entry costs exactly one GET, with no ``Range``."""
        assert len(recording_server.body) > 4096
        host, port = recording_server.server_address[:2]
        client = RemoteArtifactCache(f"http://{host}:{port}")
        assert client.get(KEY) == BIG_VALUE
        assert recording_server.requests == [("GET", None)]


class TestOldServerInterop:
    def test_client_accepts_whole_body_200(self, recording_server,
                                           traffic):
        """A server that knows nothing of ranges works: its 200
        whole-body reply is taken as it is."""
        host, port = recording_server.server_address[:2]
        client = RemoteArtifactCache(f"http://{host}:{port}")
        assert client.get(KEY) == BIG_VALUE
        assert traffic()["remote_hits"] == 1


class TestStoredBytes:
    @pytest.mark.parametrize("headers", [
        {}, {"X-SI-Codecs": "identity"},
        {"X-SI-Codecs": "identity, zlib"}],
        ids=["no-codecs", "identity", "identity-zlib"])
    def test_get_returns_the_stored_file(self, server, headers):
        """GET sends the entry's file as it is, whatever codecs the
        client names: there is no per-client re-encoding."""
        RemoteArtifactCache(server.url).put(KEY, BIG_VALUE)
        whole = stored(server, KEY)
        assert read_header(whole)[0]["codec"] == "zlib"
        request = urllib.request.Request(entry_url(server, KEY),
                                         headers=headers)
        with urllib.request.urlopen(request, timeout=5) as response:
            assert response.read() == whole
            assert "X-SI-Codec" not in response.headers

    def plant(self, server, header, body):
        """Write an entry file into the served store directly."""
        path = server.store.raw_path(kind_of(KEY), digest_of(KEY))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        data = pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL) + body
        with open(path, "wb") as handle:
            handle.write(data)
        return data

    def test_v1_entry_reads_over_the_wire(self, server, client,
                                          traffic):
        """A pre-codec entry travels as written and decodes as a hit."""
        data = self.plant(server, {"format": VERSION, "key": repr(KEY)},
                          pickle.dumps(BIG_VALUE))
        with urllib.request.urlopen(entry_url(server, KEY),
                                    timeout=5) as response:
            assert response.read() == data
        assert client.get(KEY) == BIG_VALUE
        assert traffic()["remote_hits"] == 1

    def test_unknown_codec_entry_is_stale_for_the_client(
            self, server, client, traffic):
        """The server sends an entry it cannot decode as it is; the
        client's decode finds the unknown stamp and misses without
        calling it an error."""
        data = self.plant(server, {"format": VERSION, "key": repr(KEY),
                                   "codec": "quantum-lz",
                                   "raw_size": 3}, b"???")
        with urllib.request.urlopen(entry_url(server, KEY),
                                    timeout=5) as response:
            assert response.read() == data
        assert client.get(KEY) is MISS
        counts = traffic()
        assert counts["remote_stale"] == 1
        assert counts["remote_errors"] == 0


class TestStreamedPuts:
    def test_uploaded_bytes_land_verbatim(self, server):
        client = RemoteArtifactCache(server.url)
        data = encode_entry(KEY, BIG_VALUE, VERSION)
        assert client.put_raw(kind_of(KEY), digest_of(KEY), data)
        assert stored(server, KEY) == data

    def test_concurrent_idempotent_puts_exact_telemetry(self, server):
        """Many threads PUT the same compressed digest: every upload
        succeeds (idempotent), the entry is never torn, and both ends
        count exactly one write per request."""
        threads = 8
        client = RemoteArtifactCache(server.url)
        data = encode_entry(KEY, BIG_VALUE, VERSION)
        kind, digest = kind_of(KEY), digest_of(KEY)
        barrier = threading.Barrier(threads)
        results = []

        def upload():
            barrier.wait()
            results.append(client.put_raw(kind, digest, data))

        workers = [threading.Thread(target=upload)
                   for _ in range(threads)]
        # client and daemon count on their own threads: read the
        # totals of a fresh registry
        with use_registry():
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
            counts = traffic_stats()
        assert results == [True] * threads
        assert counts["remote_writes"] == threads
        assert counts["remote_bytes_written"] == threads * len(data)
        assert counts["remote_errors"] == 0
        assert counts["disk_writes"] == threads
        assert counts["disk_bytes_written"] == threads * len(data)
        assert counts["disk_write_skips"] == 0
        assert stored(server, KEY) == data
        # no stray temp files survived the race
        root = server.store.root
        stray = [name for _, _, names in os.walk(root)
                 for name in names if name.startswith(".tmp-")]
        assert stray == []
