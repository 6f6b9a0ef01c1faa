"""The shared artifact tier: one client over two backends, and the
tiered composite.

:class:`SharedStore` is the only client of the shared tier.  Entries
travel in the exact envelope every other backend moves
(:mod:`repro.dist.envelope`), and the *client* checks the per-kind
:data:`~repro.dist.envelope.ARTIFACT_FORMATS` stamp after download, so
a schema bump on one worker never poisons another.  It also owns the
cooldown and counts the tier's traffic (the ``remote_*`` counters of a
run, :func:`~repro.pipeline.store.count_traffic`); a backend only
moves bytes.
:class:`DaemonBackend` (behind :class:`RemoteArtifactCache`) speaks
the serve daemon's tiny content-addressed protocol (``GET/PUT
/artifact/<kind>/<digest>``) over stdlib ``urllib`` — no third-party
dependencies; :class:`~repro.dist.objectstore.BucketBackend` files the
same bytes in an S3-compatible bucket.

Each entry moves in one request: a plain ``GET`` returns its stored
bytes whole, a ``PUT`` sends them whole.  The daemon streams uploads
and downloads through its disk store in pieces, so it never holds a
whole entry.

Failure model: the store is an accelerator.  Every network problem —
connection refused, timeout, a 5xx, an SDK error — degrades to a cache
miss (or a skipped write) and opens a cooldown window during which the
tier is not retried, so a dead server costs one connection attempt per
cooldown, never a failed run and never a per-artifact timeout storm.
A daemon refusing one request (a non-404 4xx) opens no cooldown.

:class:`TieredStore` composes a local disk store in front of a remote
one: reads fill the local layer through (a warm worker re-reads from
its own disk instead of the network), writes go to both.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Any, Hashable, Optional, Tuple

from repro.dist.envelope import (ARTIFACT_FORMATS, decode_entry,
                                 digest_of, encode_entry, kind_of)
from repro.pipeline.store import (MISS, DiskArtifactCache, StoreReport,
                                  count_traffic)


class TransportError(OSError):
    """Any backend failure (network, 5xx, SDK error): a miss or a
    skipped write, plus the cooldown.  A missing entry is *not* a
    transport error (``get`` returns ``None`` for that)."""


class Refused(TransportError):
    """A live daemon refused one request (a non-404 4xx): counted like
    any failure, but opens no cooldown."""


#: network exceptions that mean "server unreachable / broken"
#: (HTTPError is handled separately: the server answered, and its
#: status decides)
_NETWORK_ERRORS = (urllib.error.URLError, http.client.HTTPException,
                   ConnectionError, OSError, TimeoutError)


class SharedStore:
    """The one client of the shared artifact tier.

    Content-addressed exactly like the disk store: an entry's address
    is ``(kind, sha256(repr(key)))``, its body is the shared envelope.
    ``address`` (a URL or spec) names the tier in ``repr``, and
    ``tier`` (``remote`` or ``s3``) labels the traffic it counts.  The
    ``backend`` offers ``get(kind, digest)`` (bytes, or ``None`` when
    absent) and ``put(kind, digest, data)``, both raising
    :class:`TransportError` on failure, plus ``report``/``gc``/
    ``clear``/``healthy``, which never raise.
    """

    def __init__(self, backend: Any, address: str, tier: str,
                 cooldown: float = 30.0):
        self.backend = backend
        self.address = address
        #: seconds to stop talking to the tier after a transport
        #: failure; 0 retries every request (tests use that)
        self.cooldown = cooldown
        self.tier = tier
        self._down_until = 0.0

    def _available(self) -> bool:
        return time.monotonic() >= self._down_until

    def _mark_down(self) -> None:
        self._down_until = time.monotonic() + self.cooldown

    # ------------------------------------------------------------------
    # ArtifactStore: get / put
    # ------------------------------------------------------------------

    def get(self, key: Hashable) -> Any:
        """The stored artifact, or :data:`MISS`.  Never raises: a 404,
        a dead server, or a stale/corrupt download are all misses."""
        return self.fetch(key)[0]

    def fetch(self, key: Hashable) -> Tuple[Any, Optional[bytes]]:
        """``(value, envelope_bytes)`` — the decoded artifact plus the
        exact bytes that came over the wire (``(MISS, None)`` on any
        miss).  :class:`TieredStore` writes the raw envelope back to
        its local layer instead of re-pickling a multi-MB payload."""
        expected = ARTIFACT_FORMATS.get(kind_of(key))
        if expected is None:
            return MISS, None
        if not self._available():
            count_traffic(self.tier, misses=1)
            return MISS, None
        try:
            data = self.backend.get(kind_of(key), digest_of(key))
        except TransportError as error:
            count_traffic(self.tier, errors=1)
            if not isinstance(error, Refused):
                self._mark_down()
            return MISS, None
        if data is None:
            count_traffic(self.tier, misses=1)
            return MISS, None
        status, payload = decode_entry(data, key, expected)
        if status == "stale":
            count_traffic(self.tier, stale=1)
            return MISS, None
        if status == "error":
            count_traffic(self.tier, errors=1)
            return MISS, None
        count_traffic(self.tier, hits=1, bytes_read=len(data))
        return payload, data

    def put(self, key: Hashable, value: Any) -> bool:
        """Upload an artifact; ``False`` if it was skipped.  Never
        raises — an unpicklable value or an unreachable server only
        costs the upload."""
        version = ARTIFACT_FORMATS.get(kind_of(key))
        if version is None:
            return False
        try:
            data = encode_entry(key, value, version)
        except Exception:
            count_traffic(self.tier, write_skips=1)
            return False
        return self.put_raw(kind_of(key), digest_of(key), data)

    def put_raw(self, kind: str, digest: str, data: bytes) -> bool:
        """Upload already-encoded envelope bytes (the tiered write
        path encodes once and feeds both layers raw)."""
        if not self._available():
            count_traffic(self.tier, write_skips=1)
            return False
        try:
            self.backend.put(kind, digest, data)
        except Refused:
            count_traffic(self.tier, write_skips=1)
            return False
        except TransportError:
            # a failed upload is an *error* — the telemetry an
            # operator watches — and backs off
            count_traffic(self.tier, errors=1, write_skips=1)
            self._mark_down()
            return False
        count_traffic(self.tier, writes=1, bytes_written=len(data))
        return True

    # ------------------------------------------------------------------
    # ArtifactStore: maintenance
    # ------------------------------------------------------------------

    def report(self) -> StoreReport:
        return self.backend.report()

    def gc(self, max_age_seconds: Optional[float] = None,
           max_bytes: Optional[int] = None) -> Tuple[int, int]:
        return self.backend.gc(max_age_seconds=max_age_seconds,
                               max_bytes=max_bytes)

    def clear(self) -> Tuple[int, int]:
        return self.backend.clear()

    def healthy(self) -> bool:
        """One liveness probe — used by CLI and tests to wait for a
        serve daemon to come up."""
        return self.backend.healthy()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.address!r})"


class DaemonBackend:
    """The wire of a ``si-mapper serve`` daemon."""

    def __init__(self, base_url: str, timeout: float):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _request(self, method: str, path: str,
                 data: Optional[bytes] = None) -> bytes:
        """One request; the reply body, read whole.  Raises the usual
        network errors and :class:`urllib.error.HTTPError`."""
        request = urllib.request.Request(self.base_url + path,
                                         data=data, method=method)
        if data is not None:
            request.add_header("Content-Type",
                               "application/octet-stream")
        with urllib.request.urlopen(request,
                                    timeout=self.timeout) as response:
            return response.read()

    @staticmethod
    def _entry_path(kind: str, digest: str) -> str:
        return (f"/artifact/{urllib.parse.quote(kind, safe='')}"
                f"/{digest}")

    def get(self, kind: str, digest: str) -> Optional[bytes]:
        path = self._entry_path(kind, digest)
        try:
            return self._request("GET", path)
        except urllib.error.HTTPError as error:
            error.close()
            if error.code == 404:
                return None
            # a 5xx: the server (or its proxy) is broken, not just
            # missing this entry — back off like a dead socket
            failure = TransportError if error.code >= 500 else Refused
            raise failure(f"GET {path}: HTTP {error.code}") from error
        except _NETWORK_ERRORS as error:
            raise TransportError(f"GET {path}: {error}") from error

    def put(self, kind: str, digest: str, data: bytes) -> None:
        """Upload one entry.  A refused upload (413, 400) is a skip; a
        server-side failure (507 full store, proxy 5xx) is also an
        *error*."""
        path = self._entry_path(kind, digest)
        try:
            self._request("PUT", path, data=data)
        except urllib.error.HTTPError as error:
            error.close()
            failure = TransportError if error.code >= 500 else Refused
            raise failure(f"PUT {path}: HTTP {error.code}") from error
        except _NETWORK_ERRORS as error:
            raise TransportError(f"PUT {path}: {error}") from error

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def report(self) -> StoreReport:
        """The server's inventory; empty when unreachable."""
        try:
            inventory = json.loads(self._request("GET", "/stats"))
            return StoreReport(
                root=self.base_url,
                entries=int(inventory["entries"]),
                bytes=int(inventory["bytes"]),
                raw_bytes=int(inventory["raw_bytes"]),
                by_kind={kind: (int(count), int(stored), int(raw))
                         for kind, (count, stored, raw)
                         in inventory["by_kind"].items()})
        except (*_NETWORK_ERRORS, ValueError, KeyError, TypeError):
            return StoreReport(root=self.base_url)

    def _maintenance(self, path: str) -> Tuple[int, int]:
        try:
            result = json.loads(self._request("POST", path, data=b""))
            return int(result["removed"]), int(result["freed"])
        except (*_NETWORK_ERRORS, ValueError, KeyError):
            return 0, 0

    def gc(self, max_age_seconds: Optional[float] = None,
           max_bytes: Optional[int] = None) -> Tuple[int, int]:
        """Ask the server to gc its store; ``(0, 0)`` if unreachable."""
        query = {}
        if max_age_seconds is not None:
            query["max_age_seconds"] = repr(float(max_age_seconds))
        if max_bytes is not None:
            query["max_bytes"] = str(int(max_bytes))
        path = "/gc"
        if query:
            path += "?" + urllib.parse.urlencode(query)
        return self._maintenance(path)

    def clear(self) -> Tuple[int, int]:
        """Ask the server to clear its store; ``(0, 0)`` if down."""
        return self._maintenance("/clear")

    def healthy(self) -> bool:
        try:
            return self._request("GET", "/healthz") is not None
        except (urllib.error.HTTPError, *_NETWORK_ERRORS):
            return False


class RemoteArtifactCache(SharedStore):
    """The shared-tier client of a ``si-mapper serve`` daemon."""

    def __init__(self, base_url: str, timeout: float = 10.0,
                 cooldown: float = 30.0):
        backend = DaemonBackend(base_url, timeout)
        super().__init__(backend, backend.base_url, "remote",
                         cooldown=cooldown)


class TieredStore:
    """Local disk write-through in front of a shared store.

    Reads consult the local layer first; a hit on the shared layer is
    written back locally so the next read never leaves the machine.
    Writes go to both layers.  The shared layer is a
    :class:`SharedStore` (its raw-envelope surface ``fetch``/
    ``put_raw`` + ``tier``).  Maintenance (:meth:`report` /
    :meth:`gc` / :meth:`clear`) acts on the *local* layer — the shared
    store is maintained by its operator (``si-mapper cache
    --cache-url ...``), not as a side effect of one worker's
    housekeeping.
    """

    def __init__(self, local: DiskArtifactCache, remote: SharedStore):
        self.local = local
        self.remote = remote

    def get(self, key: Hashable) -> Any:
        value = self.local.get(key)
        if value is not MISS:
            return value
        value, data = self.remote.fetch(key)
        if value is not MISS and data is not None:
            # back-fill with the downloaded envelope as-is: no second
            # pickling of a potentially multi-MB payload
            self.local.put_raw(kind_of(key), digest_of(key), data)
        return value

    def put(self, key: Hashable, value: Any) -> bool:
        # encode once, write the same envelope bytes to both layers —
        # never two picklings of one multi-MB payload
        version = ARTIFACT_FORMATS.get(kind_of(key))
        if version is None:
            return False
        try:
            data = encode_entry(key, value, version)
        except Exception:
            count_traffic("disk", write_skips=1)
            count_traffic(self.remote.tier, write_skips=1)
            return False
        kind, digest = kind_of(key), digest_of(key)
        stored_locally = self.local.put_raw(kind, digest, data)
        stored_remotely = self.remote.put_raw(kind, digest, data)
        return stored_locally or stored_remotely

    def report(self) -> StoreReport:
        return self.local.report()

    def gc(self, max_age_seconds: Optional[float] = None,
           max_bytes: Optional[int] = None) -> Tuple[int, int]:
        return self.local.gc(max_age_seconds=max_age_seconds,
                             max_bytes=max_bytes)

    def clear(self) -> Tuple[int, int]:
        return self.local.clear()

    def __repr__(self) -> str:
        return f"TieredStore({self.local!r}, {self.remote!r})"
