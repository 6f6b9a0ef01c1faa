"""S3-compatible backend of the shared artifact tier.

:class:`ObjectStoreArtifactCache` is the :class:`~repro.dist.remote.
SharedStore` client over a :class:`BucketBackend`: it files the same
envelopes every other backend moves
(:mod:`repro.dist.envelope`) as objects under
``bucket/prefix/<layout>/<kind>/<digest>`` — identical content
addresses, identical bytes — so serverless shard workers can share a
cache through any S3-compatible object store without running a
``si-mapper serve`` daemon.  Envelope checks, cooldown, failure model
and ``remote_*`` counters are the shared client's (an object store
*is* the run's remote tier).

Two transports, picked automatically:

* an **endpoint transport** (stdlib ``urllib``, no dependencies)
  speaking the unsigned path-style S3 REST subset — ``GET/PUT/DELETE
  /{bucket}/{key}`` plus ``list-type=2`` listings — against anything
  S3-compatible that allows anonymous access (MinIO in dev mode, the
  in-process :class:`~repro.dist.s3fake.FakeS3Server`, a signing
  proxy);
* a **boto3 transport**, used when no explicit endpoint is given and
  ``boto3`` is importable — real AWS with the usual credential chain.

``boto3`` is strictly optional: it is imported lazily, and asking for
a bare ``bucket/prefix`` spec without it is a clean
:class:`~repro.errors.StoreConfigError`, never an ImportError at
import time.
"""

from __future__ import annotations

import calendar
import time
import urllib.error
import urllib.parse
import urllib.request
import xml.etree.ElementTree as ElementTree
from typing import Any, Iterator, List, Optional, Tuple

from repro.dist.envelope import ARTIFACT_FORMATS, STORE_LAYOUT
from repro.dist.remote import (SharedStore, TransportError,
                               _NETWORK_ERRORS)
from repro.errors import StoreConfigError
from repro.pipeline.store import StoreReport, over_budget


def parse_object_store_spec(spec: str) -> Tuple[Optional[str], str,
                                                str]:
    """Split a ``--cache-s3`` spec into ``(endpoint, bucket, prefix)``.

    Accepted shapes::

        bucket/prefix                    # boto3, AWS credential chain
        s3://bucket/prefix               # same
        http://host:port/bucket/prefix   # explicit endpoint, stdlib
        https://host/bucket/prefix       # transport, unsigned

    The prefix may be empty; a missing bucket is a
    :class:`StoreConfigError`.
    """
    spec = (spec or "").strip()
    endpoint: Optional[str] = None
    rest = spec
    if spec.startswith(("http://", "https://")):
        split = urllib.parse.urlsplit(spec)
        if not split.netloc:
            raise StoreConfigError(
                f"object-store spec {spec!r} has no host")
        endpoint = f"{split.scheme}://{split.netloc}"
        rest = split.path
    elif spec.startswith("s3://"):
        rest = spec[len("s3://"):]
    bucket, _, prefix = rest.strip("/").partition("/")
    if not bucket:
        raise StoreConfigError(
            f"object-store spec {spec!r} names no bucket "
            "(expected bucket/prefix, s3://bucket/prefix, or "
            "http(s)://endpoint/bucket/prefix)")
    return endpoint, bucket, prefix.strip("/")


def _parse_last_modified(text: Optional[str]) -> float:
    """An S3 ``LastModified`` timestamp as a POSIX epoch (0.0 when
    unparseable — gc then treats the object as brand new, the safe
    direction)."""
    if not text:
        return 0.0
    try:
        clock = time.strptime(text[:19], "%Y-%m-%dT%H:%M:%S")
        return float(calendar.timegm(clock))
    except ValueError:
        return 0.0


class _HttpTransport:
    """Unsigned path-style S3 REST over stdlib ``urllib``.

    Speaks exactly the subset the cache needs: object GET/PUT/DELETE
    and ``list-type=2`` listings with continuation tokens.  Raises
    :class:`TransportError` for everything that is not a clean "object
    does not exist".
    """

    def __init__(self, endpoint: str, bucket: str,
                 timeout: float = 10.0):
        self._base = (endpoint.rstrip("/") + "/"
                      + urllib.parse.quote(bucket, safe=""))
        self.timeout = timeout

    def _object_url(self, key: str) -> str:
        return self._base + "/" + urllib.parse.quote(key, safe="/")

    def _request(self, method: str, url: str,
                 data: Optional[bytes] = None,
                 absent_ok: bool = False) -> Optional[bytes]:
        """The response body, or ``None`` for a 404 when
        ``absent_ok``; any other failure is a :class:`TransportError`."""
        request = urllib.request.Request(url, data=data, method=method)
        if data is not None:
            request.add_header("Content-Type",
                               "application/octet-stream")
        try:
            with urllib.request.urlopen(
                    request, timeout=self.timeout) as response:
                return response.read()
        except urllib.error.HTTPError as error:
            code = error.code
            error.close()
            if absent_ok and code == 404:
                return None
            raise TransportError(f"{method} {url}: HTTP {code}") from error
        except _NETWORK_ERRORS as error:
            raise TransportError(str(error)) from error

    def get(self, key: str) -> Optional[bytes]:
        return self._request("GET", self._object_url(key),
                             absent_ok=True)

    def put(self, key: str, data: bytes) -> None:
        self._request("PUT", self._object_url(key), data=data)

    def delete(self, key: str) -> None:
        # a 404 means already gone: fine
        self._request("DELETE", self._object_url(key), absent_ok=True)

    def list(self, prefix: str) -> Iterator[Tuple[str, int, float]]:
        """Yield ``(key, size, last_modified_epoch)`` under a prefix."""
        token: Optional[str] = None
        while True:
            query = {"list-type": "2", "prefix": prefix}
            if token:
                query["continuation-token"] = token
            url = self._base + "?" + urllib.parse.urlencode(query)
            body = self._request("GET", url)
            try:
                root = ElementTree.fromstring(body or b"")
            except ElementTree.ParseError as error:
                raise TransportError(
                    f"LIST {prefix}: bad XML") from error
            # namespace-wildcard matches both AWS's namespaced XML and
            # bare-element fakes
            for contents in root.findall("{*}Contents"):
                key = contents.findtext("{*}Key")
                if not key:
                    continue
                size = contents.findtext("{*}Size") or "0"
                modified = contents.findtext("{*}LastModified")
                try:
                    yield key, int(size), _parse_last_modified(modified)
                except ValueError:
                    yield key, 0, _parse_last_modified(modified)
            if (root.findtext("{*}IsTruncated") or "").lower() != "true":
                return
            token = root.findtext("{*}NextContinuationToken")
            if not token:
                return


class _Boto3Transport:
    """The same transport surface over ``boto3`` (real AWS)."""

    def __init__(self, bucket: str, timeout: float = 10.0,
                 endpoint: Optional[str] = None):
        try:
            import boto3                       # type: ignore
            import botocore.config             # type: ignore
            import botocore.exceptions         # type: ignore
        except ImportError as error:
            raise StoreConfigError(
                "the object-store backend needs either an explicit "
                "http(s) endpoint in the --cache-s3 spec or the boto3 "
                "library, and boto3 is not installed") from error
        self._errors = (botocore.exceptions.BotoCoreError,
                        botocore.exceptions.ClientError)
        config = botocore.config.Config(connect_timeout=timeout,
                                        read_timeout=timeout)
        self._client = boto3.client("s3", endpoint_url=endpoint,
                                    config=config)
        self._bucket = bucket

    def _is_missing(self, error: Any) -> bool:
        code = str(getattr(error, "response", {}).get(
            "Error", {}).get("Code", ""))
        return code in ("404", "NoSuchKey")

    def get(self, key: str) -> Optional[bytes]:
        try:
            response = self._client.get_object(Bucket=self._bucket,
                                               Key=key)
            return response["Body"].read()
        except self._errors as error:
            if self._is_missing(error):
                return None
            raise TransportError(str(error)) from error

    def put(self, key: str, data: bytes) -> None:
        try:
            self._client.put_object(Bucket=self._bucket, Key=key,
                                    Body=data)
        except self._errors as error:
            raise TransportError(str(error)) from error

    def delete(self, key: str) -> None:
        try:
            self._client.delete_object(Bucket=self._bucket, Key=key)
        except self._errors as error:
            if not self._is_missing(error):
                raise TransportError(str(error)) from error

    def list(self, prefix: str) -> Iterator[Tuple[str, int, float]]:
        token: Optional[str] = None
        while True:
            kwargs = {"Bucket": self._bucket, "Prefix": prefix}
            if token:
                kwargs["ContinuationToken"] = token
            try:
                page = self._client.list_objects_v2(**kwargs)
            except self._errors as error:
                raise TransportError(str(error)) from error
            for entry in page.get("Contents", []):
                modified = entry.get("LastModified")
                epoch = (modified.timestamp()
                         if hasattr(modified, "timestamp") else 0.0)
                yield entry["Key"], int(entry.get("Size", 0)), epoch
            if not page.get("IsTruncated"):
                return
            token = page.get("NextContinuationToken")
            if not token:
                return


class BucketBackend:
    """The store-owned objects under one bucket prefix, addressed as
    ``<prefix>/<layout>/<kind>/<digest>`` over a four-method transport
    (``get``/``put``/``delete``/``list``, each raising
    :class:`TransportError`); maintenance runs over listings."""

    def __init__(self, transport: Any, bucket: str, prefix: str):
        self._transport = transport
        self.bucket = bucket
        self.prefix = prefix

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------

    def _root_key(self) -> str:
        return f"{self.prefix}/" if self.prefix else ""

    def _object_key(self, kind: str, digest: str) -> str:
        return f"{self._root_key()}{STORE_LAYOUT}/{kind}/{digest}"

    def _split_key(self, key: str) -> Optional[Tuple[str, str]]:
        """``(layout, kind)`` of a store-owned object key, or ``None``
        for a neighbour object this store must not touch."""
        root = self._root_key()
        if not key.startswith(root):
            return None
        parts = key[len(root):].split("/")
        if len(parts) < 2:
            return None
        layout = parts[0]
        if not (layout.startswith("v") and layout[1:].isdigit()):
            return None
        return layout, parts[1]

    def get(self, kind: str, digest: str) -> Optional[bytes]:
        """The object's bytes, or ``None`` when it does not exist."""
        return self._transport.get(self._object_key(kind, digest))

    def put(self, kind: str, digest: str, data: bytes) -> None:
        self._transport.put(self._object_key(kind, digest), data)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def _list_owned(self) -> List[Tuple[str, int, float, str, str]]:
        """Every store-owned object: ``(key, size, mtime, layout,
        kind)`` — none when the listing fails, so maintenance of an
        unreachable store finds nothing to do."""
        owned = []
        try:
            for key, size, mtime in self._transport.list(
                    self._root_key()):
                split = self._split_key(key)
                if split is not None:
                    owned.append((key, size, mtime, split[0], split[1]))
        except TransportError:
            return []
        return owned

    def report(self) -> StoreReport:
        """Inventory of the bucket prefix; empty when unreachable.

        Listings carry no envelope headers, so the entries' raw size
        is unknown without a download: the report says so (a negative
        raw size) rather than print a ratio it never measured.
        """
        root = f"s3://{self.bucket}/{self.prefix}".rstrip("/")
        report = StoreReport(root=root, raw_bytes=-1)
        for _, size, _, layout, kind in self._list_owned():
            if layout != STORE_LAYOUT:
                continue
            report.entries += 1
            report.bytes += size
            count, stored, _ = report.by_kind.get(kind, (0, 0, -1))
            report.by_kind[kind] = (count + 1, stored + size, -1)
        return report

    def gc(self, max_age_seconds: Optional[float] = None,
           max_bytes: Optional[int] = None) -> Tuple[int, int]:
        """Same policy as the disk store's gc, over object listings:
        older layouts, unknown kinds, age, then newest-first size
        budget.  ``(0, 0)`` when the store is unreachable."""
        now = time.time()
        current_version = int(STORE_LAYOUT[1:])
        doomed: List[Tuple[str, int]] = []
        survivors: List[Tuple[float, str, int]] = []
        for key, size, mtime, layout, kind in self._list_owned():
            version = int(layout[1:])
            if version > current_version:
                continue                   # a newer binary's entries
            drop = (version < current_version
                    or kind not in ARTIFACT_FORMATS
                    or (max_age_seconds is not None and mtime > 0
                        and now - mtime > max_age_seconds))
            if drop:
                doomed.append((key, size))
            else:
                survivors.append((mtime, key, size))
        if max_bytes is not None:
            doomed.extend(over_budget(survivors, max_bytes))
        return self._delete(doomed)

    def clear(self) -> Tuple[int, int]:
        """Delete every store-owned object (layout roots only — a
        neighbour object under the same prefix survives)."""
        return self._delete([(key, size) for key, size, _, _, _
                             in self._list_owned()])

    def _delete(self, doomed: List[Tuple[str, int]]) -> Tuple[int, int]:
        """Delete objects in order; ``(removed, freed)`` up to the
        first transport failure."""
        removed = 0
        freed = 0
        for key, size in doomed:
            try:
                self._transport.delete(key)
            except TransportError:
                break
            removed += 1
            freed += size
        return removed, freed

    def healthy(self) -> bool:
        """One listing probe against the bucket."""
        try:
            for _ in self._transport.list(self._root_key()):
                break
            return True
        except TransportError:
            return False


class ObjectStoreArtifactCache(SharedStore):
    """The shared-tier client over an S3-compatible bucket.  Unlike
    every later call, construction validates eagerly: a spec the
    process cannot possibly serve raises :class:`StoreConfigError`.
    ``transport`` replaces the one the spec would pick."""

    def __init__(self, spec: str, timeout: float = 10.0,
                 cooldown: float = 30.0,
                 transport: Optional[Any] = None):
        endpoint, bucket, prefix = parse_object_store_spec(spec)
        if transport is None and endpoint is not None:
            transport = _HttpTransport(endpoint, bucket, timeout=timeout)
        elif transport is None:
            transport = _Boto3Transport(bucket, timeout=timeout)
        super().__init__(BucketBackend(transport, bucket, prefix), spec,
                         "s3", cooldown=cooldown)
