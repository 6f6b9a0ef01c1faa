"""The artifact cache/coordination server behind ``si-mapper serve``.

A :class:`ThreadingHTTPServer` daemon exposing one
:class:`~repro.pipeline.store.DiskArtifactCache` to a cluster of
workers over a tiny content-addressed protocol:

* ``GET  /artifact/<kind>/<digest>`` — raw envelope bytes, 404 on
  miss; single-range ``Range: bytes=a-b`` requests are honoured with
  ``206`` + ``Content-Range`` so clients fetch big entries in chunks;
* ``HEAD /artifact/<kind>/<digest>`` — existence + size, no body;
* ``PUT  /artifact/<kind>/<digest>`` — store an envelope atomically,
  streamed to disk chunk by chunk (no whole-entry buffer);
* ``GET  /stats``    — JSON inventory + request counters;
* ``GET  /healthz``  — liveness probe;
* ``POST /gc``, ``POST /clear`` — remote store maintenance.

With ``workers >= 1`` the daemon is additionally a *synthesis job
service* (:mod:`repro.dist.jobs`):

* ``POST   /jobs``          — submit an STG (``.g`` body) for the full
  synthesis battery; battery parameters ride the query string;
* ``GET    /jobs/<id>``     — job status, progress events and stage
  timings;
* ``GET    /jobs/<id>/result`` — the finished Table-1 row (canonical
  JSON bytes, identical on every fetch);
* ``DELETE /jobs/<id>``     — cancel a queued job;
* ``POST   /claim``         — work stealing for ``report --shard
  --claim`` workers: hand out one benchmark name per request.

Job endpoints (and ``/claim``) authenticate per tenant via the
``X-SI-Key`` header when the server was configured with API keys;
jobs are content-addressed and deduplicated *across* tenants, so any
authenticated tenant may read any job it knows the id of — the ids
are derived from the submitted circuit, exactly like artifact digests.
Every connection carries a socket timeout (``request_timeout``), so a
stalled client cannot pin a handler thread forever.

Codec negotiation: a client advertises what it can decompress via
``X-SI-Codecs``; an entry stamped with a codec the client did not
advertise is transcoded to ``identity`` for that response (the header
is absent on pre-codec clients, which therefore always get raw
pickles — mixed-version clusters interoperate).  Transcoding is
deterministic, so ranged requests against a transcoded entry slice
consistently across requests.

The server moves opaque blobs: it never unpickles a payload (uploads
get only a restricted header sanity check that cannot construct
objects, and transcoding recompresses the payload *bytes* without
unpickling them), so a malformed or hostile upload can waste one
entry's disk space but cannot execute anything here.  *Consumers*
unpickle what they download — the store must only be shared within a
trusted cluster, the same trust model as a disk store on shared NFS.

Writes reuse the disk store's temp-file + ``os.replace`` discipline,
so concurrent PUTs of the same entry are idempotent and readers never
observe a torn entry.
"""

from __future__ import annotations

import functools
import json
import re
import sys
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import (Any, BinaryIO, Callable, Dict, Optional, Sequence,
                    Tuple, Union)

from repro.dist.envelope import (HEADER_PROBE_BYTES, available_codecs,
                                 negotiate_codecs, plausible_envelope,
                                 read_header, transcode)
from repro.dist.jobs import (DEFAULT_RETAIN, DONE, FAILED, ClaimPool,
                             JobParams, JobRequestError, JobService,
                             QuotaExceeded)
from repro.errors import ParseError
from repro.obs.metrics import default_registry
from repro.obs.trace import Tracer, current_tracer
from repro.pipeline.store import DiskArtifactCache

#: an upload larger than this is refused (413) — the biggest real
#: artifacts (mapping results with embedded state graphs) are a few
#: tens of MB; half a GiB is a config error or an attack, not a cache
#: entry.
MAX_ENTRY_BYTES = 512 * 1024 * 1024

#: request/response bodies move in pieces of this size — bounds the
#: per-request memory of uploads and ranged downloads alike
IO_CHUNK_BYTES = 1 << 20

#: ``/artifact/<kind>/<digest>`` — kind is a short identifier, digest
#: is exactly one lowercase sha256; anything else (traversal attempts
#: included) is a 404.
_ARTIFACT_PATH = re.compile(
    r"^/artifact/([A-Za-z0-9_\-]{1,64})/([0-9a-f]{64})$")

#: single byte range: ``bytes=a-b``, ``bytes=a-``, or ``bytes=-n``;
#: anything else (multi-range included) is served as a full 200.
_RANGE = re.compile(r"^bytes=(\d*)-(\d*)$")

#: maintenance (``/gc``, ``/clear``) and ``/claim`` bodies are tiny
MAX_CONTROL_BYTES = 65536

#: shutdown poll of a :meth:`ArtifactServer.start_background` accept
#: loop; ``serve_forever``'s 0.5 s default makes every ``stop()`` wait
#: about that long
BACKGROUND_POLL_SECONDS = 0.05

#: ``/jobs/<id>`` with an optional ``/result`` suffix; ids are the
#: hex prefixes :func:`repro.dist.jobs.job_id_of` mints
_JOB_PATH = re.compile(r"^/jobs/([0-9a-f]{8,64})(/result)?$")


def _route_of(path: str) -> str:
    """Collapse a request path to a bounded metrics label.

    Raw paths carry digests and job ids — one label series per entry
    would blow up the registry, so every path maps to one of a dozen
    route templates."""
    if path in ("/healthz", "/stats", "/metrics", "/jobs", "/claim",
                "/gc", "/clear"):
        return path
    if path.startswith("/artifact/"):
        return "/artifact"
    match = _JOB_PATH.match(path)
    if match is not None:
        return "/jobs/<id>/result" if match.group(2) else "/jobs/<id>"
    return "other"


def _observed(method: Callable[["_StoreRequestHandler"], None]
              ) -> Callable[["_StoreRequestHandler"], None]:
    """Wrap one ``do_*`` verb with request metrics and an HTTP span.

    Counts ``si_http_requests_total{method,route,status}`` and times
    ``si_http_request_seconds{method,route}``; when the server carries
    a tracer (or the handler thread has one active), the whole request
    is one ``http`` span."""

    @functools.wraps(method)
    def wrapper(self: "_StoreRequestHandler") -> None:
        route = _route_of(urllib.parse.urlsplit(self.path).path)
        verb = self.command or method.__name__.replace("do_", "")
        tracer = self.server.tracer or current_tracer()
        span = (tracer.span("http", "http", method=verb, route=route)
                if tracer is not None else None)
        self._last_status = 0
        start = time.perf_counter()
        try:
            if span is not None:
                with span as annotations:
                    method(self)
                    annotations["status"] = self._last_status
            else:
                method(self)
        finally:
            seconds = time.perf_counter() - start
            registry = default_registry()
            registry.counter(
                "si_http_requests_total",
                "HTTP requests served by the daemon.",
                ("method", "route", "status")).inc(
                    method=verb, route=route,
                    status=str(self._last_status or 500))
            registry.histogram(
                "si_http_request_seconds",
                "Wall-clock seconds handling HTTP requests.",
                ("method", "route")).observe(seconds, method=verb,
                                             route=route)

    return wrapper


def _parse_range(header: Optional[str],
                 size: int) -> Union[None, str, Tuple[int, int]]:
    """Interpret a ``Range`` header against an entry of ``size`` bytes.

    ``None`` means "serve the whole entry as 200" (no header,
    malformed header, multi-range — both are legal per RFC 7233);
    ``"unsatisfiable"`` means 416; a tuple is the inclusive
    ``(first, last)`` window of a 206.
    """
    if not header or size <= 0:
        return None
    match = _RANGE.match(header.strip())
    if match is None:
        return None
    first_text, last_text = match.groups()
    if not first_text and not last_text:
        return None
    if not first_text:                     # suffix: last N bytes
        suffix = int(last_text)
        if suffix == 0:
            return "unsatisfiable"
        return max(0, size - suffix), size - 1
    first = int(first_text)
    if first >= size:
        return "unsatisfiable"
    last = size - 1 if not last_text else min(int(last_text), size - 1)
    if last < first:
        return None
    return first, last


class _StoreRequestHandler(BaseHTTPRequestHandler):
    """One request against the shared store; the server is threading,
    so many of these run concurrently over one DiskArtifactCache."""

    server_version = "si-mapper-store/1"
    protocol_version = "HTTP/1.1"

    # the ThreadingHTTPServer subclass below carries these
    server: "ArtifactServer"

    #: status of the last reply on this handler (for request metrics)
    _last_status = 0

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def setup(self) -> None:
        # Per-connection socket timeout: every read/write against a
        # stalled client fails after request_timeout seconds instead
        # of pinning this handler thread forever.  Must happen before
        # super().setup() — that is where the socket timeout is
        # applied.  handle_one_request() turns the resulting
        # socket.timeout into a closed connection.
        self.timeout = self.server.request_timeout
        super().setup()

    def log_message(self, format: str, *args) -> None:
        if self.server.verbose:
            sys.stderr.write("serve: %s - %s\n"
                             % (self.address_string(), format % args))

    def _reply(self, status: int, body: bytes = b"",
               content_type: str = "text/plain; charset=utf-8",
               head_only: bool = False,
               content_length: Optional[int] = None,
               extra_headers: Optional[Dict[str, str]] = None) -> None:
        self._last_status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.send_header("Content-Length",
                         str(len(body) if content_length is None
                             else content_length))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        if not head_only and body:
            self.wfile.write(body)

    def _reply_json(self, status: int, payload) -> None:
        self._reply(status,
                    json.dumps(payload, sort_keys=True).encode("utf-8"),
                    content_type="application/json")

    def _artifact_address(self) -> Optional[Tuple[str, str]]:
        match = _ARTIFACT_PATH.match(
            urllib.parse.urlsplit(self.path).path)
        return (match.group(1), match.group(2)) if match else None

    def _tenant(self) -> Optional[str]:
        """Authenticate the job API: the quota bucket, or ``None``
        after a 403 reply.  With no configured keys the service is
        open and unkeyed clients share the ``anonymous`` bucket."""
        key = self.headers.get("X-SI-Key")
        if self.server.api_keys:
            if key is None or key not in self.server.api_keys:
                self._reply_json(
                    403, {"error": "missing or unknown X-SI-Key"})
                return None
            return key
        return key or "anonymous"

    def _job_service(self) -> Optional[JobService]:
        jobs = self.server.jobs
        if jobs is None:
            self._reply_json(503, {"error": "job service disabled "
                                            "(serve --workers N)"})
        return jobs

    def _read_body(self, limit: int) -> Optional[bytes]:
        """The full request body, or ``None`` after an error reply.

        Refuses anything over ``limit`` (413) and truncated reads
        (400) *before* the caller acts on the body."""
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            self._reply(411, b"Content-Length required\n")
            return None
        if length < 0 or length > limit:
            if self._drain_body(length):
                self.close_connection = False
            self._reply(413, b"body too large\n")
            return None
        chunks = []
        remaining = length
        while remaining:
            chunk = self.rfile.read(min(remaining, IO_CHUNK_BYTES))
            if not chunk:
                self._reply(400, b"truncated body\n")
                return None
            chunks.append(chunk)
            remaining -= len(chunk)
        self.close_connection = False       # body fully consumed
        return b"".join(chunks)

    # ------------------------------------------------------------------
    # GET: stats, health, ranged artifact downloads
    # ------------------------------------------------------------------

    @_observed
    def do_GET(self) -> None:
        path = urllib.parse.urlsplit(self.path).path
        if path == "/healthz":
            self._reply(200, b"ok\n")
            return
        if path == "/stats":
            self._reply_json(200, self.server.stats_payload())
            return
        if path == "/metrics":
            self._get_metrics()
            return
        if path.startswith("/jobs/"):
            self._get_job(path)
            return
        address = self._artifact_address()
        if address is None:
            self._reply(404, b"unknown path\n")
            return
        opened = self.server.store.open_raw(*address)
        if opened is None:
            self._reply(404, b"no such artifact\n")
            return
        handle, size = opened
        try:
            self._serve_entry(handle, size)
        finally:
            handle.close()

    def _serve_entry(self, handle: BinaryIO, size: int) -> None:
        """Send one store entry, honouring codec negotiation and
        single-range requests."""
        accepted = negotiate_codecs(self.headers.get("X-SI-Codecs"))
        probe = handle.read(min(size, HEADER_PROBE_BYTES))
        codec = "identity"
        parsed = read_header(probe)
        if parsed is not None:
            stamped = parsed[0].get("codec", "identity")
            if isinstance(stamped, str):
                codec = stamped
        if codec in accepted:
            handle.seek(0)
            self._send_range_from(handle, size, codec)
            return
        # The client cannot decompress this entry's codec: transcode
        # the envelope to identity for this response.  Deterministic,
        # so a chunking client sees a consistent byte stream across
        # its ranged requests.
        data = probe + handle.read()
        self.server.store.stats.add(bytes_read=len(data))
        recoded = transcode(data, "identity")
        if recoded is None:
            # stamped with a codec this server build cannot decode —
            # to this client the entry is unusable, i.e. absent
            self._reply(404, b"no such artifact\n")
            return
        self._send_range_from(recoded, len(recoded), "identity",
                              count_bytes=False)

    def _get_metrics(self) -> None:
        """``GET /metrics`` — Prometheus text exposition.

        Counters and histograms accumulate at their call sites; the
        point-in-time gauges (queue depth, resident jobs, store
        inventory) are set here, at scrape time, from the same sources
        ``/stats`` reads."""
        registry = default_registry()
        server = self.server
        inventory = server.store.report()
        registry.gauge(
            "si_store_entries",
            "Entries resident in the daemon's disk store.",
            ("kind",))
        for kind, counts in sorted(inventory.by_kind.items()):
            registry.gauge("si_store_entries", labelnames=("kind",)
                           ).set(counts[0], kind=kind)
        registry.gauge(
            "si_store_stored_bytes",
            "Bytes the disk store occupies (compressed).",
        ).set(inventory.bytes)
        registry.gauge(
            "si_store_raw_bytes",
            "Bytes the disk store's payloads decompress to.",
        ).set(inventory.raw_bytes)
        claims = server.claims.stats_payload()
        registry.gauge(
            "si_claims_batteries",
            "Distinct claim batteries the daemon has seen.",
        ).set(float(str(claims["batteries"])))
        jobs = server.jobs
        if jobs is not None:
            payload = jobs.stats_payload()
            registry.gauge(
                "si_jobs_queue_depth",
                "Jobs queued and not yet taken by a worker.",
            ).set(float(str(payload["queue_depth"])))
            registry.gauge(
                "si_jobs_running",
                "Jobs currently executing on workers.",
            ).set(float(str(payload["running"])))
            registry.gauge(
                "si_jobs_workers", "Size of the job worker pool.",
            ).set(float(str(payload["workers"])))
            by_state = payload["by_state"]
            resident = (sum(by_state.values())
                        if isinstance(by_state, dict) else 0)
            registry.gauge(
                "si_jobs_resident",
                "Job records resident in daemon memory (all states).",
            ).set(resident)
        body = registry.render_prometheus().encode("utf-8")
        self._reply(200, body,
                    content_type="text/plain; version=0.0.4; "
                                 "charset=utf-8")

    def _send_range_from(self, source: Union[BinaryIO, bytes],
                         size: int, codec: str,
                         count_bytes: bool = True) -> None:
        window = _parse_range(self.headers.get("Range"), size)
        extra = {"Accept-Ranges": "bytes", "X-SI-Codec": codec}
        if window == "unsatisfiable":
            extra["Content-Range"] = f"bytes */{size}"
            self._reply(416, b"range not satisfiable\n",
                        extra_headers=extra)
            return
        if window is None:
            status, first, last = 200, 0, size - 1
        else:
            first, last = window
            status = 206
            extra["Content-Range"] = f"bytes {first}-{last}/{size}"
        length = last - first + 1 if size > 0 else 0
        self._reply(status, head_only=True, content_length=length,
                    content_type="application/octet-stream",
                    extra_headers=extra)
        if isinstance(source, bytes):
            self.wfile.write(source[first:first + length])
            return
        source.seek(first)
        remaining = length
        sent = 0
        while remaining > 0:
            chunk = source.read(min(remaining, IO_CHUNK_BYTES))
            if not chunk:        # entry replaced/shrunk concurrently;
                break            # the client sees a short body
            self.wfile.write(chunk)
            sent += len(chunk)
            remaining -= len(chunk)
        if count_bytes:
            self.server.store.stats.add(bytes_read=sent)

    @_observed
    def do_HEAD(self) -> None:
        path = urllib.parse.urlsplit(self.path).path
        if path == "/healthz":
            self._reply(200, head_only=True)
            return
        address = self._artifact_address()
        size = (self.server.store.has_raw(*address)
                if address is not None else None)
        if size is None:
            self._reply(404, head_only=True)
            return
        self._reply(200, head_only=True, content_length=size,
                    content_type="application/octet-stream",
                    extra_headers={"Accept-Ranges": "bytes"})

    # ------------------------------------------------------------------
    # Job API: status, results, cancellation
    # ------------------------------------------------------------------

    def _get_job(self, path: str) -> None:
        jobs = self._job_service()
        if jobs is None or self._tenant() is None:
            return
        match = _JOB_PATH.match(path)
        if match is None:
            self._reply(404, b"unknown path\n")
            return
        job = jobs.get(match.group(1))
        if job is None:
            self._reply_json(404, {"error": "no such job"})
            return
        if match.group(2) is None:
            self._reply_json(200, job.status_payload())
            return
        # /result — the canonical row bytes, exactly as computed
        if job.state == DONE:
            assert job.result is not None
            self._reply(200, job.result,
                        content_type="application/json")
        elif job.state == FAILED:
            self._reply_json(409, {"error": job.error,
                                   "state": job.state})
        else:
            # not finished yet: the status document, with a 202 so a
            # bare poll loop on /result works
            self._reply_json(202, job.status_payload())

    @_observed
    def do_DELETE(self) -> None:
        path = urllib.parse.urlsplit(self.path).path
        match = _JOB_PATH.match(path)
        if match is None or match.group(2) is not None:
            self._reply(404, b"unknown path\n")
            return
        jobs = self._job_service()
        if jobs is None or self._tenant() is None:
            return
        job, cancelled = jobs.cancel(match.group(1))
        if job is None:
            self._reply_json(404, {"error": "no such job"})
            return
        if cancelled:
            self._reply_json(200, {"id": job.id, "state": job.state})
        else:
            self._reply_json(409, {"error": f"job is {job.state}, "
                                            "only queued jobs cancel",
                                   "state": job.state})

    def _post_job(self, split) -> None:
        jobs = self._job_service()
        if jobs is None:
            return
        tenant = self._tenant()
        if tenant is None:
            return
        # an STG source is bounded by the same limit as an artifact
        # envelope — far beyond any real .g file
        body = self._read_body(MAX_ENTRY_BYTES)
        if body is None:
            return
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError:
            self._reply_json(400, {"error": "body is not UTF-8 "
                                            ".g text"})
            return
        try:
            params = JobParams.from_query(
                urllib.parse.parse_qs(split.query))
            job, created = jobs.submit(text, tenant, params)
        except QuotaExceeded as error:
            self._reply_json(429, {"error": str(error)})
            return
        except (JobRequestError, ParseError) as error:
            self._reply_json(400, {"error": str(error)})
            return
        self._reply_json(202 if created else 200,
                         {"id": job.id, "name": job.name,
                          "state": job.state, "created": created})

    def _post_claim(self) -> None:
        if self._tenant() is None:
            return
        body = self._read_body(MAX_CONTROL_BYTES)
        if body is None:
            return
        try:
            payload = json.loads(body.decode("utf-8"))
            names = payload["names"]
        except (ValueError, KeyError, TypeError):
            self._reply_json(400, {"error": "claim body must be JSON "
                                            'with a "names" list'})
            return
        try:
            self._reply_json(200, self.server.claims.claim(names))
        except JobRequestError as error:
            self._reply_json(400, {"error": str(error)})

    # ------------------------------------------------------------------
    # PUT: streamed atomic uploads
    # ------------------------------------------------------------------

    @_observed
    def do_PUT(self) -> None:
        # Every error reply below may leave unread body bytes on the
        # socket; on a keep-alive connection they would be parsed as
        # the next request line.  Close unless the body was fully
        # consumed (or drained) — a refused upload may be half a GiB.
        self.close_connection = True
        address = self._artifact_address()
        if address is None:
            self._reply(404, b"unknown path\n")
            return
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            self._reply(411, b"Content-Length required\n")
            return
        if length < 0 or length > MAX_ENTRY_BYTES:
            # drain the oversize body when feasible so the 413 reply
            # actually reaches a client mid-upload (an abrupt close
            # surfaces as a broken pipe, which clients treat as a
            # dead server and back off from)
            if self._drain_body(length):
                self.close_connection = False
            self._reply(413, b"entry too large\n")
            return
        if length == 0:
            self.close_connection = False
            self._reply(400, b"not an artifact envelope\n")
            return
        writer = self.server.store.raw_writer(*address)
        if writer is None:
            if self._drain_body(length):
                self.close_connection = False
            self._reply(507, b"store write failed\n")
            return
        with writer:
            remaining = length
            first_chunk = True
            while remaining:
                chunk = self.rfile.read(min(remaining, IO_CHUNK_BYTES))
                if not chunk:
                    writer.abort()
                    self._reply(400, b"truncated body\n")
                    return
                remaining -= len(chunk)
                if first_chunk:
                    first_chunk = False
                    if not plausible_envelope(
                            chunk[:HEADER_PROBE_BYTES]):
                        writer.abort()
                        if self._drain_body(remaining):
                            self.close_connection = False
                        self._reply(400, b"not an artifact envelope\n")
                        return
                try:
                    writer.write(chunk)
                except OSError:
                    writer.abort()
                    self.server.store.stats.add(write_skips=1)
                    if self._drain_body(remaining):
                        self.close_connection = False
                    self._reply(507, b"store write failed\n")
                    return
            self.close_connection = False      # body fully consumed
            if not writer.commit():
                self._reply(507, b"store write failed\n")
                return
        self._reply(204)

    def _drain_body(self, length: int) -> bool:
        """Consume an unwanted request body in bounded chunks; False
        when it is absurdly large (then the connection just closes)."""
        if length < 0 or length > 4 * MAX_ENTRY_BYTES:
            return False
        remaining = length
        while remaining:
            chunk = self.rfile.read(min(remaining, IO_CHUNK_BYTES))
            if not chunk:
                return False
            remaining -= len(chunk)
        return True

    # ------------------------------------------------------------------
    # POST: remote maintenance
    # ------------------------------------------------------------------

    @_observed
    def do_POST(self) -> None:
        # same keep-alive discipline as do_PUT: never reply with body
        # bytes still unread on the socket
        self.close_connection = True
        split = urllib.parse.urlsplit(self.path)
        if split.path == "/jobs":
            self._post_job(split)
            return
        if split.path == "/claim":
            self._post_claim()
            return
        if split.path not in ("/gc", "/clear"):
            self._reply(404, b"unknown path\n")
            return
        # Maintenance body discipline: a bad Content-Length, an
        # oversized body, or a short read refuses the request *before*
        # the store is touched — a half-delivered /clear must not wipe
        # the cluster's cache.
        try:
            length = int(self.headers.get("Content-Length", "0") or 0)
        except ValueError:
            self._reply(400, b"bad Content-Length\n")
            return
        if length < 0:
            self._reply(400, b"bad Content-Length\n")
            return
        if length > MAX_CONTROL_BYTES:   # maintenance bodies are tiny
            self._reply(413, b"maintenance body too large\n")
            return
        if len(self.rfile.read(length)) != length:
            self._reply(400, b"truncated body\n")
            return
        self.close_connection = False    # body fully consumed
        if split.path == "/gc":
            query = urllib.parse.parse_qs(split.query)
            try:
                max_age = (float(query["max_age_seconds"][0])
                           if "max_age_seconds" in query else None)
                max_bytes = (int(query["max_bytes"][0])
                             if "max_bytes" in query else None)
            except ValueError:
                self._reply(400, b"bad gc parameters\n")
                return
            removed, freed = self.server.store.gc(
                max_age_seconds=max_age, max_bytes=max_bytes)
        else:
            removed, freed = self.server.store.clear()
        self._reply_json(200, {"removed": removed, "freed": freed})


class ArtifactServer(ThreadingHTTPServer):
    """The serve daemon: a threading HTTP server over one disk store.

    ``port=0`` binds an ephemeral port (tests); :attr:`url` reports
    the resolved address either way.  :meth:`start_background` runs
    the accept loop on a daemon thread and returns once ``/healthz``
    would answer — the in-process analogue of ``si-mapper serve &``.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, root: str, host: str = "127.0.0.1",
                 port: int = 0, verbose: bool = False,
                 workers: int = 0,
                 api_keys: Optional[Sequence[str]] = None,
                 quota: int = 0,
                 request_timeout: Optional[float] = 30.0,
                 upstream: Optional[Any] = None,
                 retain_jobs: int = DEFAULT_RETAIN):
        """``workers >= 1`` enables the synthesis job service;
        ``api_keys`` locks the job API to those ``X-SI-Key`` values
        (empty = open); ``quota`` caps active jobs per tenant (0 =
        unlimited); ``request_timeout`` is the per-connection socket
        timeout in seconds (``None`` disables — not recommended);
        ``upstream`` is an optional shared artifact store (e.g. a
        :class:`~repro.dist.remote.RemoteArtifactCache`) tiered
        *behind* this server's disk store for job pipelines;
        ``retain_jobs`` bounds finished jobs resident in memory once
        their rows are spilled to the store (0 = keep all)."""
        self.store = DiskArtifactCache(root)
        self.verbose = verbose
        self.api_keys = frozenset(api_keys or ())
        self.request_timeout = request_timeout
        self.claims = ClaimPool()
        self.jobs: Optional[JobService] = None
        #: an optional :class:`~repro.obs.trace.Tracer` collecting one
        #: ``http`` span per request (handler threads are short-lived,
        #: so the thread-local mechanism alone cannot cover them)
        self.tracer: Optional[Tracer] = None
        if workers:
            job_store: Any = self.store
            if upstream is not None:
                from repro.dist.remote import TieredStore
                job_store = TieredStore(self.store, upstream)
            from repro.pipeline.cache import ArtifactCache
            self.jobs = JobService(cache=ArtifactCache(disk=job_store),
                                   workers=workers,
                                   quota=quota,
                                   retain=retain_jobs).start()
        self._thread: Optional[threading.Thread] = None
        super().__init__((host, port), _StoreRequestHandler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def stats_payload(self) -> dict:
        """The ``/stats`` body: inventory + raw request counters.

        ``by_kind`` values are ``[entries, stored_bytes, raw_bytes]``
        triples; pre-codec clients that expect pairs read the first
        two elements and keep working.
        """
        inventory = self.store.report()
        payload = {
            "root": inventory.root,
            "entries": inventory.entries,
            "bytes": inventory.bytes,
            "raw_bytes": inventory.raw_bytes,
            "ratio": round(inventory.ratio, 4),
            "codecs": list(available_codecs()),
            "by_kind": {kind: list(counts) for kind, counts
                        in inventory.by_kind.items()},
            "telemetry": self.store.stats.as_dict(),
            "claims": self.claims.stats_payload(),
        }
        if self.jobs is not None:
            payload["jobs"] = self.jobs.stats_payload()
        return payload

    def start_background(self) -> "ArtifactServer":
        """Serve on a daemon thread (tests / embedded use)."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="si-mapper-serve",
            kwargs={"poll_interval": BACKGROUND_POLL_SECONDS}, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the accept loop down and release the socket."""
        if self.jobs is not None:
            self.jobs.stop()
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ArtifactServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
