"""The backend abstraction of the distributed execution subsystem.

Every artifact-store backend — the local
:class:`~repro.pipeline.store.DiskArtifactCache`, the shared tier's
one client :class:`~repro.dist.remote.SharedStore` (over a serve
daemon or an S3-compatible bucket), and the write-through
:class:`~repro.dist.remote.TieredStore` — implements the
:class:`ArtifactStore` protocol.  The in-memory
:class:`~repro.pipeline.cache.ArtifactCache` layers over *any* of
them, so the pipeline, the batch runner and the CLI never care where
an artifact physically lives.

The shared contract, beyond the method signatures:

* ``get`` returns :data:`~repro.pipeline.store.MISS` (never raises)
  for anything that is not a usable entry — absent, stale format
  stamp, corrupt bytes, unreachable server;
* ``put`` returns ``False`` (never raises) when the artifact could not
  be persisted — the store is an accelerator, not a correctness
  dependency;
* traffic is counted on the caller's thread through
  :func:`~repro.pipeline.store.count_traffic`, never on the backend.
"""

from __future__ import annotations

from typing import (Any, Hashable, Optional, Protocol, Tuple,
                    runtime_checkable)

from repro.pipeline.store import StoreReport


@runtime_checkable
class ArtifactStore(Protocol):
    """What the pipeline requires of a persistent artifact backend."""

    def get(self, key: Hashable) -> Any:
        """The stored artifact, or ``MISS``.  Never raises."""

    def put(self, key: Hashable, value: Any) -> bool:
        """Persist an artifact; ``False`` if skipped.  Never raises."""

    def report(self) -> StoreReport:
        """Inventory of the store (entries / bytes, per kind)."""

    def gc(self, max_age_seconds: Optional[float] = None,
           max_bytes: Optional[int] = None) -> Tuple[int, int]:
        """Drop stale / aged / over-budget entries;
        ``(removed, freed_bytes)``."""

    def clear(self) -> Tuple[int, int]:
        """Drop every entry; ``(removed, freed_bytes)``."""


def make_store(cache_dir: Optional[str] = None,
               cache_url: Optional[str] = None,
               cache_s3: Optional[str] = None
               ) -> Optional[ArtifactStore]:
    """Build the artifact backend a run configuration asks for.

    * directory only → the local :class:`DiskArtifactCache`;
    * URL only → the HTTP :class:`RemoteArtifactCache`;
    * S3 spec only → the :class:`ObjectStoreArtifactCache`;
    * directory + one shared backend → a :class:`TieredStore` (disk
      write-through in front of the shared store — warm workers
      re-read locally);
    * neither → ``None`` (memory-only caching).

    A URL *and* an S3 spec together is a configuration error
    (:class:`~repro.errors.StoreConfigError`): the pipeline has one
    shared tier, and silently ignoring one of two explicitly
    configured backends would be worse than refusing.
    """
    from repro.pipeline.store import DiskArtifactCache
    if cache_url and cache_s3:
        from repro.errors import StoreConfigError
        raise StoreConfigError(
            "--cache-url and --cache-s3 are mutually exclusive: "
            "a run has one shared artifact tier (add --cache-dir "
            "for a local layer in front of either)")
    shared: Optional[ArtifactStore] = None
    if cache_url:
        from repro.dist.remote import RemoteArtifactCache
        shared = RemoteArtifactCache(cache_url)
    elif cache_s3:
        from repro.dist.objectstore import ObjectStoreArtifactCache
        shared = ObjectStoreArtifactCache(cache_s3)
    if cache_dir and shared is not None:
        from repro.dist.remote import TieredStore
        return TieredStore(DiskArtifactCache(cache_dir), shared)
    if shared is not None:
        return shared
    if cache_dir:
        return DiskArtifactCache(cache_dir)
    return None
