"""Distributed execution: remote stores, the serve daemon, sharding.

This package makes the repo multi-machine.  The shared artifact store
is the only coordination point of the whole synthesis flow — every
expensive intermediate is content-addressed — so distribution is a few
small layers over it:

:mod:`repro.dist.envelope`
    The shared wire/disk format: zlib-compressed envelopes
    (``encode_entry``/``decode_entry``), the per-kind
    :data:`~repro.dist.envelope.ARTIFACT_FORMATS` stamps and the
    content addressing (``kind_of``/``digest_of``).  Every backend
    moves these exact bytes.

:mod:`repro.dist.base`
    The :class:`ArtifactStore` protocol every backend implements
    (``get/put/report/gc/clear``) and :func:`make_store`,
    the factory the pipeline and CLI use to turn ``--cache-dir`` /
    ``--cache-url`` / ``--cache-s3`` into a backend: disk, remote,
    object store, or a write-through :class:`TieredStore`.

:mod:`repro.dist.remote`
    :class:`SharedStore`, the one client of the shared tier: the same
    sha256 content addresses and envelope bytes as the disk store,
    format stamps checked client-side; every transport failure
    degrades to a miss and opens a cooldown, so a dead server never
    fails a run.  :class:`RemoteArtifactCache` is that client over a
    serve daemon (stdlib HTTP, one ``GET`` or ``PUT`` per entry).

:mod:`repro.dist.objectstore`
    :class:`ObjectStoreArtifactCache`, the same client over an
    S3-compatible bucket: entries filed as objects under
    ``bucket/prefix``, via ``boto3`` when importable or a stdlib-HTTP
    transport against any S3-compatible endpoint.  Serverless workers
    share a cache without running ``serve``.

:mod:`repro.dist.server`
    :class:`ArtifactServer`, the ``si-mapper serve`` daemon: a
    ``ThreadingHTTPServer`` exposing one disk store to the cluster
    (``GET/PUT /artifact/<kind>/<digest>``, ``/stats``, ``/healthz``,
    remote ``gc``/``clear``) with atomic streamed writes and
    idempotent concurrent PUTs.

:mod:`repro.dist.s3fake`
    :class:`FakeS3Server`, an in-process S3-compatible object store
    (stdlib HTTP, no external service) for tests and CI smoke runs.

:mod:`repro.dist.shard`
    Deterministic partition of the benchmark suite by stable name
    hash (``report --shard i/N``) and the validating merge
    (``report --merge``) that reconstructs the byte-identical
    single-machine Table 1.

A full distributed Table-1 run::

    # machine 0 — the cache/coordination server
    si-mapper serve --cache-dir /srv/si-cache --host 0.0.0.0 --port 8947

    # machines 1..N — one shard each, sharing the store
    export SI_MAPPER_CACHE_URL=http://server:8947
    si-mapper report --shard 1/4 --out shard1.json   # ... 2/4, 3/4, 4/4

    # anywhere — reassemble the byte-identical Table 1
    si-mapper report --merge shard*.json

Exports resolve lazily (PEP 562): :mod:`repro.pipeline.store` imports
the envelope submodule while :mod:`repro.dist.base` imports the
pipeline store, and eager package imports would turn that seam into a
cycle.
"""

from typing import Any

#: export name -> defining submodule
_EXPORTS = {
    "ArtifactServer": "repro.dist.server",
    "ArtifactStore": "repro.dist.base",
    "ARTIFACT_FORMATS": "repro.dist.envelope",
    "FakeS3Server": "repro.dist.s3fake",
    "ObjectStoreArtifactCache": "repro.dist.objectstore",
    "RemoteArtifactCache": "repro.dist.remote",
    "SHARD_SCHEMA": "repro.dist.shard",
    "STORE_LAYOUT": "repro.dist.envelope",
    "SharedStore": "repro.dist.remote",
    "TieredStore": "repro.dist.remote",
    "decode_entry": "repro.dist.envelope",
    "digest_of": "repro.dist.envelope",
    "encode_entry": "repro.dist.envelope",
    "kind_of": "repro.dist.envelope",
    "make_store": "repro.dist.base",
    "merge_shards": "repro.dist.shard",
    "parse_shard": "repro.dist.shard",
    "read_shard": "repro.dist.shard",
    "shard_index": "repro.dist.shard",
    "shard_names": "repro.dist.shard",
    "shard_payload": "repro.dist.shard",
    "write_shard": "repro.dist.shard",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    import importlib
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value              # cache for the next lookup
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
