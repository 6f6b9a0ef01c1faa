"""Chunked/ranged transfer and codec negotiation over real sockets:
ranged GETs spanning chunk boundaries, streamed PUT bodies, concurrent
idempotent uploads, and v1-speaking clients against a v2 server."""

import pickle
import threading
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.dist.envelope import (ARTIFACT_FORMATS, codec_of,
                                 digest_of, encode_entry, kind_of,
                                 read_header)
from repro.dist.remote import RemoteArtifactCache
from repro.dist.server import ArtifactServer
from repro.obs.metrics import use_registry
from repro.pipeline.store import traffic_stats

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


class TestRangedDownloads:
    def test_round_trip_spanning_many_chunks(self, server,
                                             tiny_chunks, traffic):
        assert tiny_chunks.put(KEY, BIG_VALUE)
        envelope_bytes = server.store.get_raw(kind_of(KEY),
                                              digest_of(KEY))
        assert len(envelope_bytes) > 512 * 3   # really multi-chunk
        fresh = RemoteArtifactCache(server.url, chunk_bytes=512)
        assert fresh.get(KEY) == BIG_VALUE
        # the client accounted the whole reassembled envelope
        assert traffic()["remote_bytes_read"] == len(envelope_bytes)

    def test_206_carries_content_range(self, server, tiny_chunks):
        tiny_chunks.put(KEY, BIG_VALUE)
        total = len(server.store.get_raw(kind_of(KEY),
                                         digest_of(KEY)))
        request = urllib.request.Request(
            entry_url(server, KEY),
            headers={"Range": "bytes=10-29",
                     "X-SI-Codecs": "identity, zlib"})
        with urllib.request.urlopen(request, timeout=5) as response:
            assert response.status == 206
            assert (response.headers["Content-Range"]
                    == f"bytes 10-29/{total}")
            assert len(response.read()) == 20

    def test_ranged_chunks_reassemble_exactly(self, server,
                                              tiny_chunks):
        tiny_chunks.put(KEY, BIG_VALUE)
        whole = server.store.get_raw(kind_of(KEY), digest_of(KEY))
        pieces = []
        offset = 0
        while offset < len(whole):
            last = min(offset + 300, len(whole)) - 1
            request = urllib.request.Request(
                entry_url(server, KEY),
                headers={"Range": f"bytes={offset}-{last}",
                         "X-SI-Codecs": "identity, zlib"})
            with urllib.request.urlopen(request,
                                        timeout=5) as response:
                assert response.status == 206
                pieces.append(response.read())
            offset = last + 1
        assert b"".join(pieces) == whole

    def test_unsatisfiable_range_is_416(self, server, tiny_chunks):
        tiny_chunks.put(KEY, BIG_VALUE)
        total = len(server.store.get_raw(kind_of(KEY),
                                         digest_of(KEY)))
        request = urllib.request.Request(
            entry_url(server, KEY),
            headers={"Range": f"bytes={total + 10}-{total + 20}",
                     "X-SI-Codecs": "identity, zlib"})
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
        whole = server.store.get_raw(kind_of(KEY), digest_of(KEY))
        request = urllib.request.Request(
            entry_url(server, KEY),
            headers={"Range": "bytes=0-1, 5-9",
                     "X-SI-Codecs": "identity, zlib"})
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
        data = encode_entry(KEY, BIG_VALUE, VERSION, codec="zlib")
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


class TestCodecNegotiation:
    def test_v2_client_receives_the_compressed_envelope(self, server):
        client = RemoteArtifactCache(server.url)
        client.put(KEY, BIG_VALUE)
        stored = server.store.get_raw(kind_of(KEY), digest_of(KEY))
        assert codec_of(stored) == "zlib"
        request = urllib.request.Request(
            entry_url(server, KEY),
            headers={"X-SI-Codecs": "identity, zlib"})
        with urllib.request.urlopen(request, timeout=5) as response:
            body = response.read()
            assert response.headers["X-SI-Codec"] == "zlib"
        assert body == stored

    def test_v1_client_gets_identity_transcode(self, server):
        """Regression: a client that predates the codec stamp sends no
        X-SI-Codecs header and must receive a raw-pickle envelope it
        can read with plain pickle.loads."""
        RemoteArtifactCache(server.url).put(KEY, BIG_VALUE)
        request = urllib.request.Request(entry_url(server, KEY))
        with urllib.request.urlopen(request, timeout=5) as response:
            body = response.read()
            assert response.headers["X-SI-Codec"] == "identity"
        # decode exactly like the pre-codec client did: restricted
        # header check, then pickle.loads of the remainder
        header, offset = read_header(body)
        assert header["format"] == VERSION
        assert header["key"] == repr(KEY)
        assert pickle.loads(body[offset:]) == BIG_VALUE

    def test_v1_client_ranged_request_slices_the_transcode(
            self, server):
        """Transcoding is deterministic, so an old chunking client
        sees a consistent byte stream across its ranged requests."""
        RemoteArtifactCache(server.url).put(KEY, BIG_VALUE)
        whole = urllib.request.urlopen(
            urllib.request.Request(entry_url(server, KEY)),
            timeout=5).read()
        pieces = []
        offset = 0
        while offset < len(whole):
            last = min(offset + 1000, len(whole)) - 1
            request = urllib.request.Request(
                entry_url(server, KEY),
                headers={"Range": f"bytes={offset}-{last}"})
            with urllib.request.urlopen(request,
                                        timeout=5) as response:
                assert response.status == 206
                assert (response.headers["Content-Range"]
                        == f"bytes {offset}-{last}/{len(whole)}")
                pieces.append(response.read())
            offset = last + 1
        assert b"".join(pieces) == whole


class TestStreamedPuts:
    def test_uploaded_bytes_land_verbatim(self, server):
        client = RemoteArtifactCache(server.url)
        data = encode_entry(KEY, BIG_VALUE, VERSION, codec="zlib")
        assert client.put_raw(kind_of(KEY), digest_of(KEY), data)
        assert server.store.get_raw(kind_of(KEY),
                                    digest_of(KEY)) == data

    def test_concurrent_idempotent_puts_exact_telemetry(self, server):
        """Many threads PUT the same compressed digest: every upload
        succeeds (idempotent), the entry is never torn, and both ends
        count exactly one write per request."""
        threads = 8
        client = RemoteArtifactCache(server.url)
        data = encode_entry(KEY, BIG_VALUE, VERSION, codec="zlib")
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
        assert server.store.get_raw(kind, digest) == data
        # no stray temp files survived the race
        root = server.store.root
        import os
        stray = [name for _, _, names in os.walk(root)
                 for name in names if name.startswith(".tmp-")]
        assert stray == []
