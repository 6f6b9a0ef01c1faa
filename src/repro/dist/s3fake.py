"""An in-process S3-compatible object store for tests and CI.

:class:`FakeS3Server` implements exactly the unsigned path-style REST
subset :class:`~repro.dist.objectstore._HttpTransport` speaks —
object ``GET/PUT/DELETE/HEAD`` plus ``list-type=2`` bucket listings
with continuation tokens — over a stdlib ``ThreadingHTTPServer`` and
an in-memory dict.  No external service, no dependencies: the
distributed-smoke CI step and the object-store tests run a real
client/server round trip against it.

It is deliberately *not* a general S3: no auth, no versioning, no
multipart — anything outside the transport subset is a 400/404.  The
``__main__`` hook runs it standalone for shell-driven smoke tests::

    python -m repro.dist.s3fake --port 9000 &
    si-mapper report half --cache-s3 http://127.0.0.1:9000/si-cache/t1
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple
from xml.sax.saxutils import escape

#: one listing page (S3's default); small enough that the pagination
#: path is actually exercised by real stores
MAX_KEYS_DEFAULT = 1000

#: shutdown poll of a :meth:`FakeS3Server.start_background` accept
#: loop; ``serve_forever``'s 0.5 s default makes every ``stop()`` wait
#: about that long
BACKGROUND_POLL_SECONDS = 0.05


def _iso(epoch: float) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S.000Z",
                         time.gmtime(epoch))


class _FakeS3Handler(BaseHTTPRequestHandler):
    """One request against the in-memory bucket map."""

    server_version = "si-mapper-s3fake/1"
    protocol_version = "HTTP/1.1"

    server: "FakeS3Server"

    def log_message(self, format: str, *args) -> None:
        if self.server.verbose:
            sys.stderr.write("s3fake: %s - %s\n"
                             % (self.address_string(), format % args))

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _reply(self, status: int, body: bytes = b"",
               content_type: str = "application/octet-stream",
               head_only: bool = False) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        if not head_only and body:
            self.wfile.write(body)

    def _address(self) -> Optional[Tuple[str, str, str]]:
        """``(bucket, key, query)`` of the request path; key may be
        empty (bucket-level operation)."""
        split = urllib.parse.urlsplit(self.path)
        path = urllib.parse.unquote(split.path).strip("/")
        if not path:
            return None
        bucket, _, key = path.partition("/")
        return bucket, key, split.query

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------

    def do_GET(self) -> None:
        address = self._address()
        if address is None:
            self._reply(400, b"no bucket\n", "text/plain")
            return
        bucket, key, query = address
        if not key:
            self._list_bucket(bucket, query)
            return
        entry = self.server.lookup(bucket, key)
        if entry is None:
            self._reply(404, self._no_such_key(key), "application/xml")
            return
        self._reply(200, entry[0])

    def do_HEAD(self) -> None:
        address = self._address()
        entry = (self.server.lookup(address[0], address[1])
                 if address is not None and address[1] else None)
        if entry is None:
            self._reply(404, head_only=True)
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(entry[0])))
        self.send_header("Last-Modified", _iso(entry[1]))
        self.end_headers()

    def do_PUT(self) -> None:
        self.close_connection = True
        address = self._address()
        if address is None or not address[1]:
            self._reply(400, b"object PUTs only\n", "text/plain")
            return
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            self._reply(411, b"Content-Length required\n",
                        "text/plain")
            return
        body = self.rfile.read(length) if length >= 0 else b""
        if len(body) != length:
            self._reply(400, b"truncated body\n", "text/plain")
            return
        self.close_connection = False
        self.server.store_object(address[0], address[1], body)
        self._reply(200)

    def do_DELETE(self) -> None:
        address = self._address()
        if address is None or not address[1]:
            self._reply(400, b"object DELETEs only\n", "text/plain")
            return
        self.server.delete_object(address[0], address[1])
        self._reply(204)                    # S3 204s even when absent

    # ------------------------------------------------------------------
    # Listings
    # ------------------------------------------------------------------

    def _list_bucket(self, bucket: str, query: str) -> None:
        params = urllib.parse.parse_qs(query)
        if params.get("list-type", [""])[0] != "2":
            self._reply(400, b"only list-type=2 is supported\n",
                        "text/plain")
            return
        prefix = params.get("prefix", [""])[0]
        token = params.get("continuation-token", [""])[0]
        try:
            max_keys = int(params.get("max-keys",
                                      [str(MAX_KEYS_DEFAULT)])[0])
        except ValueError:
            max_keys = MAX_KEYS_DEFAULT
        max_keys = max(1, min(max_keys, MAX_KEYS_DEFAULT))
        matches = self.server.list_objects(bucket, prefix)
        # continuation token = "resume after this key" (opaque to
        # clients, stable here because listings are key-sorted)
        if token:
            matches = [m for m in matches if m[0] > token]
        page = matches[:max_keys]
        truncated = len(matches) > len(page)
        parts: List[str] = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            '<ListBucketResult '
            'xmlns="http://s3.amazonaws.com/doc/2006-03-01/">',
            f"<Name>{escape(bucket)}</Name>",
            f"<Prefix>{escape(prefix)}</Prefix>",
            f"<KeyCount>{len(page)}</KeyCount>",
            f"<MaxKeys>{max_keys}</MaxKeys>",
            f"<IsTruncated>{'true' if truncated else 'false'}"
            "</IsTruncated>",
        ]
        for key, (body, mtime) in page:
            parts.append(
                f"<Contents><Key>{escape(key)}</Key>"
                f"<LastModified>{_iso(mtime)}</LastModified>"
                f"<Size>{len(body)}</Size></Contents>")
        if truncated and page:
            parts.append(f"<NextContinuationToken>"
                         f"{escape(page[-1][0])}"
                         f"</NextContinuationToken>")
        parts.append("</ListBucketResult>")
        self._reply(200, "".join(parts).encode("utf-8"),
                    "application/xml")

    @staticmethod
    def _no_such_key(key: str) -> bytes:
        return (f'<?xml version="1.0" encoding="UTF-8"?>'
                f"<Error><Code>NoSuchKey</Code>"
                f"<Key>{escape(key)}</Key></Error>").encode("utf-8")


class FakeS3Server(ThreadingHTTPServer):
    """The in-memory S3 endpoint.

    ``port=0`` binds an ephemeral port; :attr:`url` is what goes into
    an ``http://host:port/bucket/prefix`` ``--cache-s3`` spec.  The
    same background-thread / context-manager surface as
    :class:`~repro.dist.server.ArtifactServer`.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 verbose: bool = False):
        #: (bucket, key) -> (bytes, mtime epoch)
        self._objects: Dict[Tuple[str, str], Tuple[bytes, float]] = {}
        self._lock = threading.Lock()
        self.verbose = verbose
        self._thread: Optional[threading.Thread] = None
        super().__init__((host, port), _FakeS3Handler)

    # ------------------------------------------------------------------
    # The bucket map (thread-safe: the server is threading)
    # ------------------------------------------------------------------

    def lookup(self, bucket: str,
               key: str) -> Optional[Tuple[bytes, float]]:
        with self._lock:
            return self._objects.get((bucket, key))

    def store_object(self, bucket: str, key: str,
                     body: bytes) -> None:
        with self._lock:
            self._objects[(bucket, key)] = (body, time.time())

    def delete_object(self, bucket: str, key: str) -> None:
        with self._lock:
            self._objects.pop((bucket, key), None)

    def list_objects(self, bucket: str, prefix: str
                     ) -> List[Tuple[str, Tuple[bytes, float]]]:
        with self._lock:
            return sorted(
                (key, entry)
                for (owner, key), entry in self._objects.items()
                if owner == bucket and key.startswith(prefix))

    def object_count(self) -> int:
        with self._lock:
            return len(self._objects)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start_background(self) -> "FakeS3Server":
        self._thread = threading.Thread(
            target=self.serve_forever, name="si-mapper-s3fake",
            kwargs={"poll_interval": BACKGROUND_POLL_SECONDS}, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "FakeS3Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.dist.s3fake`` — run the fake standalone."""
    parser = argparse.ArgumentParser(
        description="in-process S3-compatible object store "
                    "(tests / CI smoke only: no auth, no persistence)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="0 binds an ephemeral port")
    parser.add_argument("--verbose", action="store_true")
    options = parser.parse_args(argv)
    server = FakeS3Server(host=options.host, port=options.port,
                          verbose=options.verbose)
    print(f"s3fake: serving on {server.url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
