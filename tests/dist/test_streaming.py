"""Chunked/ranged transfer over real sockets: ranged GETs spanning
chunk boundaries, stored bytes served as they are, streamed PUT
bodies, concurrent idempotent uploads, and a ranged client against a
pre-range server."""

import os
import pickle
import threading
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.dist.envelope import (ARTIFACT_FORMATS, digest_of,
                                 encode_entry, kind_of, read_header)
from repro.dist.remote import RemoteArtifactCache
from repro.dist.server import ArtifactServer
from repro.obs.metrics import use_registry
from repro.pipeline.store import MISS, traffic_stats

KEY = ("sg", "d" * 64)
#: compresses, but stays far larger than the tiny chunk size below
BIG_VALUE = {"trace": [f"state-{i:06d}" for i in range(5000)]}
VERSION = ARTIFACT_FORMATS["sg"]


@pytest.fixture
def server(tmp_path):
    with ArtifactServer(str(tmp_path / "served"),
                        port=0).start_background() as live:
        yield live


@pytest.fixture
def tiny_chunks(server):
    """A client forced into many ranged requests per entry."""
    return RemoteArtifactCache(server.url, chunk_bytes=512)


def entry_url(server, key):
    return f"{server.url}/artifact/{kind_of(key)}/{digest_of(key)}"


def stored(server, key):
    """The entry's file in the served store, byte for byte."""
    with open(server.store.raw_path(kind_of(key), digest_of(key)),
              "rb") as handle:
        return handle.read()


class TestRangedDownloads:
    def test_round_trip_spanning_many_chunks(self, server,
                                             tiny_chunks, traffic):
        assert tiny_chunks.put(KEY, BIG_VALUE)
        envelope_bytes = stored(server, KEY)
        assert len(envelope_bytes) > 512 * 3   # really multi-chunk
        fresh = RemoteArtifactCache(server.url, chunk_bytes=512)
        assert fresh.get(KEY) == BIG_VALUE
        # the client accounted the whole reassembled envelope
        assert traffic()["remote_bytes_read"] == len(envelope_bytes)

    def test_206_carries_content_range(self, server, tiny_chunks):
        tiny_chunks.put(KEY, BIG_VALUE)
        total = len(stored(server, KEY))
        request = urllib.request.Request(
            entry_url(server, KEY),
            headers={"Range": "bytes=10-29"})
        with urllib.request.urlopen(request, timeout=5) as response:
            assert response.status == 206
            assert (response.headers["Content-Range"]
                    == f"bytes 10-29/{total}")
            assert len(response.read()) == 20

    def test_ranged_chunks_reassemble_exactly(self, server,
                                              tiny_chunks):
        tiny_chunks.put(KEY, BIG_VALUE)
        whole = stored(server, KEY)
        pieces = []
        offset = 0
        while offset < len(whole):
            last = min(offset + 300, len(whole)) - 1
            request = urllib.request.Request(
                entry_url(server, KEY),
                headers={"Range": f"bytes={offset}-{last}"})
            with urllib.request.urlopen(request,
                                        timeout=5) as response:
                assert response.status == 206
                pieces.append(response.read())
            offset = last + 1
        assert b"".join(pieces) == whole

    def test_unsatisfiable_range_is_416(self, server, tiny_chunks):
        tiny_chunks.put(KEY, BIG_VALUE)
        total = len(stored(server, KEY))
        request = urllib.request.Request(
            entry_url(server, KEY),
            headers={"Range": f"bytes={total + 10}-{total + 20}"})
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=5)
        assert caught.value.code == 416
        assert (caught.value.headers["Content-Range"]
                == f"bytes */{total}")
        caught.value.close()

    def test_multi_range_served_as_full_200(self, server,
                                            tiny_chunks):
        """RFC 7233 allows ignoring ranges it will not serve."""
        tiny_chunks.put(KEY, BIG_VALUE)
        whole = stored(server, KEY)
        request = urllib.request.Request(
            entry_url(server, KEY),
            headers={"Range": "bytes=0-1, 5-9"})
        with urllib.request.urlopen(request, timeout=5) as response:
            assert response.status == 200
            assert response.read() == whole


class _WholeBody200Handler(BaseHTTPRequestHandler):
    """A pre-range server: ignores Range, always replies 200 + body."""

    protocol_version = "HTTP/1.1"

    def do_GET(self):
        body = self.server.body
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):
        pass


class TestOldServerInterop:
    def test_client_accepts_whole_body_200(self, traffic):
        """A ranged client against a pre-range server still works:
        the 200 whole-body reply is taken as-is."""
        data = encode_entry(KEY, BIG_VALUE, VERSION)
        httpd = ThreadingHTTPServer(("127.0.0.1", 0),
                                    _WholeBody200Handler)
        httpd.body = data
        thread = threading.Thread(target=httpd.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            host, port = httpd.server_address[:2]
            client = RemoteArtifactCache(f"http://{host}:{port}",
                                         chunk_bytes=512)
            assert client.get(KEY) == BIG_VALUE
            assert traffic()["remote_hits"] == 1
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=5)


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

    def test_v1_entry_reads_over_the_wire(self, server, tiny_chunks,
                                          traffic):
        """A pre-codec entry travels as written and decodes as a hit."""
        data = self.plant(server, {"format": VERSION, "key": repr(KEY)},
                          pickle.dumps(BIG_VALUE))
        with urllib.request.urlopen(entry_url(server, KEY),
                                    timeout=5) as response:
            assert response.read() == data
        assert tiny_chunks.get(KEY) == BIG_VALUE
        assert traffic()["remote_hits"] == 1

    def test_unknown_codec_entry_is_stale_for_the_client(
            self, server, tiny_chunks, traffic):
        """The server sends an entry it cannot decode as it is; the
        client's decode finds the unknown stamp and misses without
        calling it an error."""
        data = self.plant(server, {"format": VERSION, "key": repr(KEY),
                                   "codec": "quantum-lz",
                                   "raw_size": 3}, b"???")
        with urllib.request.urlopen(entry_url(server, KEY),
                                    timeout=5) as response:
            assert response.read() == data
        assert tiny_chunks.get(KEY) is MISS
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
