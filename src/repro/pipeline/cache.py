"""Content-keyed artifact cache shared across synthesis contexts.

Every expensive intermediate of the synthesis flow (encoded state
graph, CSC-resolved state graph, per-signal cover implementations,
mapping results) is stored under a key derived from the *content* of
the source STG — the SHA-256 of its canonical ``.g`` serialization —
plus the artifact kind and its parameters.  Two contexts built from the
same circuit therefore share one reachability pass and one initial
synthesis, no matter how the circuit was loaded (benchmark registry,
``.g`` file, inline text).  The cache keeps no counts of its own: its
traffic goes to the metrics registry, where a run reads its share.
"""

from __future__ import annotations

import hashlib
import threading
from typing import TYPE_CHECKING, Any, Callable, Dict, Hashable, Optional

from repro.pipeline.store import MISS, count_traffic

if TYPE_CHECKING:
    from repro.dist.base import ArtifactStore


def content_key_of(g_text: str) -> str:
    """The cache namespace for one circuit: SHA-256 of its ``.g`` form."""
    return hashlib.sha256(g_text.encode("utf-8")).hexdigest()


class ArtifactCache:
    """A thread-safe memo table for synthesis artifacts.

    Keys are hashable tuples ``(kind, content_key, *params)``; values
    are whatever the compute thunk returns.  Artifacts are treated as
    immutable by convention — consumers that need to mutate a state
    graph must copy it (the mapper already does).

    Concurrent requests for the same key are serialized through a
    per-key in-flight event: exactly one caller computes, the others
    block until the value lands and then read it as a hit.  (The old
    lost-race policy recomputed the artifact *and* counted a hit.)

    With a persistent backend layered underneath — any
    :class:`~repro.dist.base.ArtifactStore`: the local
    :class:`~repro.pipeline.store.DiskArtifactCache`, a
    :class:`~repro.dist.remote.RemoteArtifactCache` talking to a
    ``si-mapper serve`` daemon, or a tiered combination — a memory
    miss consults the store before computing, and computed values are
    written through.  Every event is counted through
    :func:`~repro.pipeline.store.count_traffic`: ``hit`` (served from
    memory), ``miss`` (actually computed) and ``store_fill`` (served
    by the store), on the caller's thread, so a run's counter journal
    sees its own traffic only.
    """

    def __init__(self, disk: "Optional[ArtifactStore]" = None
                 ) -> None:
        self._store: Dict[Hashable, Any] = {}
        self._lock = threading.Lock()
        self._inflight: Dict[Hashable, threading.Event] = {}
        self.disk = disk

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._store

    def get_or_compute(self, key: Hashable,
                       compute: Callable[[], Any]) -> Any:
        """Return the cached artifact for ``key``, computing on miss."""
        while True:
            hit = False
            with self._lock:
                if key in self._store:
                    value = self._store[key]
                    hit = True
                else:
                    pending = self._inflight.get(key)
                    if pending is None:
                        pending = self._inflight[key] = threading.Event()
                        owner = True
                    else:
                        owner = False
            if hit:
                count_traffic("memory", hit=1)
                return value
            if not owner:
                # Another thread is computing this key: wait for it,
                # then re-check the store (it is absent again only if
                # the owner's compute raised, in which case we retry
                # the computation ourselves).
                pending.wait()
                continue
            if self.disk is not None:
                value = self.disk.get(key)
                if value is not MISS:
                    # warm start: neither a memory hit nor a compute —
                    # the store counted its own hit
                    with self._lock:
                        self._store[key] = value
                        del self._inflight[key]
                    pending.set()
                    count_traffic("memory", store_fill=1)
                    return value
            try:
                value = compute()
            except BaseException:
                with self._lock:
                    del self._inflight[key]
                pending.set()
                raise
            with self._lock:
                self._store[key] = value
                del self._inflight[key]
            pending.set()
            count_traffic("memory", miss=1)
            if self.disk is not None:
                self.disk.put(key, value)
            return value

    def clear(self) -> None:
        with self._lock:
            self._store.clear()

    def __repr__(self) -> str:
        return f"ArtifactCache(entries={len(self)})"
