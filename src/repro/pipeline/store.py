"""Persistent, content-addressed on-disk artifact store.

:class:`DiskArtifactCache` keeps the expensive intermediates of the
synthesis flow (state graphs, initial syntheses, mapping results) on
disk so they survive the process — a second ``si-mapper report`` run,
or a fresh :class:`~repro.pipeline.batch.BatchRunner` worker, warm-
starts from the store instead of redoing reachability.  It layers
*under* the in-memory :class:`~repro.pipeline.cache.ArtifactCache`:
memory is consulted first, then disk, then the compute thunk; computed
values are written back through both layers.

It is the *local* backend of the :class:`~repro.dist.base.
ArtifactStore` protocol; :mod:`repro.dist` adds the shared tier's one
client (:class:`~repro.dist.remote.SharedStore`, over a serve daemon
or an S3-compatible bucket), the write-through
:class:`~repro.dist.remote.TieredStore`, and the ``si-mapper serve``
daemon that exposes a disk store to a cluster.  Every tier counts its
traffic on the metrics registry through :func:`count_traffic`;
:func:`traffic_stats` reads the counts back as ``RunRecord.stats``
keys, from a run's counter journal or the registry.  All backends
share one wire/disk format — the codec-stamped *envelope* of
:mod:`repro.dist.envelope` — so an entry written by a worker's disk
store is byte-compatible with one PUT over HTTP or filed in an object
store.

Safety properties:

* **content-addressed** — entries are filed under the SHA-256 of the
  full cache key ``(kind, content_key, *params)``; since the content
  key is itself the hash of the circuit's canonical ``.g`` text, a
  changed circuit can never alias a stale entry;
* **versioned** — every entry carries the :data:`ARTIFACT_FORMATS`
  stamp of its kind; after a schema bump old entries are *ignored*
  (recomputed and overwritten), never unpickled into new code;
* **codec-stamped** — payloads are ``zlib``-compressed and the
  envelope header records the codec, so pre-compression v1 entries
  keep hitting (their codec defaults to ``identity``);
* **atomic** — writes go to a temp file in the destination directory
  and land via ``os.replace``, so concurrent readers (other worker
  processes sharing the store) see either the old complete entry or
  the new complete entry, never a torn one;
* **crash-proof reads** — a corrupt, truncated, or alien file is
  treated as a miss (and unlinked best-effort), never raised;
* **pickle-or-skip** — an artifact that refuses to serialize (mapping
  results carry state graphs and arbitrary user subclasses may sneak
  in) is silently kept memory-only and counted in ``write_skips``.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import (Any, BinaryIO, Dict, Hashable, Iterable, List,
                    Mapping, Optional, Tuple)

from repro.dist.envelope import (ARTIFACT_FORMATS,  # noqa: F401 -
                                 STORE_LAYOUT,      # re-exported API
                                 decode_entry, digest_of, encode_entry,
                                 kind_of, read_header,
                                 HEADER_FIRST_PROBE_BYTES,
                                 HEADER_PROBE_BYTES)
from repro.obs.metrics import Sample, default_registry

#: sentinel distinguishing "no entry" from a stored ``None``
MISS = object()

#: ``gc`` only reaps ``.tmp-`` files older than this — a younger one
#: may be an in-flight write (the serve daemon's remote ``/gc`` can
#: race a concurrent PUT; unlinking its temp file would fail the
#: upload).  Real writes finish in seconds.
TEMP_REAP_SECONDS = 3600.0


def _series(tier: str, op: str) -> Tuple[str, str, Dict[str, str]]:
    """The registry counter that counts ``op`` on ``tier``: its name,
    help text and labels."""
    if tier == "memory":
        return ("si_cache_ops_total", "Memory-layer artifact cache events.",
                {"op": op})
    if op.startswith("bytes_"):
        return ("si_store_bytes_total",
                "Bytes moved through artifact store tiers.",
                {"tier": tier, "direction": op[len("bytes_"):]})
    return ("si_store_ops_total",
            "Artifact store operations by tier and outcome.",
            {"tier": tier, "op": op})


def count_traffic(tier: str, **amounts: int) -> None:
    """Count artifact traffic on the process metrics registry, the one
    place cache and store traffic is counted.

    Tier ``memory`` (the :class:`~repro.pipeline.cache.ArtifactCache`)
    counts ``hit``, ``miss`` and ``store_fill``.  A store tier
    (``disk``, ``remote`` or ``s3``) counts ``hits``, ``misses``
    (absent, or skipped in a cooldown), ``stale`` (right key, outdated
    format stamp), ``errors`` (corrupt entries, network/server
    failures), ``writes``, ``write_skips`` (unpicklable, failed or
    skipped writes), ``bytes_read`` and ``bytes_written``.
    """
    registry = default_registry()
    for op, amount in amounts.items():
        if amount > 0:
            name, text, labels = _series(tier, op)
            registry.counter(name, text, tuple(labels)).inc(amount,
                                                            **labels)


def _journal_key(tier: str, op: str) -> str:
    """How a counter journal keys the series :func:`count_traffic`
    counts ``op`` of ``tier`` on."""
    name, _, labels = _series(tier, op)
    return Sample(name, tuple(labels.items()), 0.0).key


#: journal key -> ``RunRecord.stats`` key, in report order; the
#: ``remote_*`` keys sum the daemon (``remote``) and bucket (``s3``)
#: tiers
_STATS_KEYS: Dict[str, str] = {
    _journal_key("memory", "hit"): "cache_hits",
    _journal_key("memory", "miss"): "cache_misses",
    **{_journal_key(tier, op): f"{layer}_{op}"
       for tier, layer in (("disk", "disk"), ("remote", "remote"),
                           ("s3", "remote"))
       for op in ("hits", "misses", "stale", "errors", "writes",
                  "write_skips", "bytes_read", "bytes_written")},
}


def traffic_stats(samples: Optional[Mapping[str, float]] = None
                  ) -> Dict[str, int]:
    """Cache and store traffic as 18 zero-filled counters:
    ``cache_hits`` (served from memory), ``cache_misses`` (actually
    computed), and the eight ``disk_*`` and ``remote_*`` counters of
    :func:`count_traffic`.

    ``samples`` are counter samples keyed as a counter journal
    (:func:`repro.obs.metrics.open_journal`) keys them; by default,
    the process registry's totals.
    """
    if samples is None:
        samples = {sample.key: sample.value
                   for sample in default_registry().snapshot()}
    stats = dict.fromkeys(_STATS_KEYS.values(), 0)
    for series, value in samples.items():
        key = _STATS_KEYS.get(series)
        if key is not None:
            stats[key] += int(value)
    return stats


def over_budget(entries: Iterable[Tuple[float, str, int]],
                max_bytes: int) -> List[Tuple[str, int]]:
    """The ``(id, size)`` pairs a ``max_bytes`` size budget evicts.

    ``entries`` are ``(mtime, id, size)`` triples.  The newest entries
    survive while they fit; from the first that does not, it and every
    older entry go (the id breaks mtime ties, so equal-mtime runs
    evict stably).  Shared by the disk store's and the bucket's gc.
    """
    doomed: List[Tuple[str, int]] = []
    budget = max_bytes
    for _, ident, size in sorted(entries, reverse=True):
        if not doomed and size <= budget:
            budget -= size
            continue
        doomed.append((ident, size))
    return doomed


@dataclass
class StoreReport:
    """What ``si-mapper cache stats`` prints: on-disk inventory.

    ``bytes`` is what the entries occupy *stored* (compressed);
    ``raw_bytes`` is what their payloads decompress to — the spread
    between the two is the compression the codec stamps bought.  A
    negative raw size means *unknown* (a bucket listing carries no
    envelope headers): no raw size or ratio is printed for it.
    ``by_kind`` maps kind -> ``(entries, stored_bytes, raw_bytes)``.
    """

    root: str
    entries: int = 0
    bytes: int = 0
    raw_bytes: int = 0
    by_kind: Dict[str, Tuple[int, int, int]] = field(
        default_factory=dict)

    @property
    def ratio(self) -> float:
        """Overall raw/stored compression ratio (1.0 when empty or
        unknown)."""
        if self.bytes <= 0 or self.raw_bytes <= 0:
            return 1.0
        return self.raw_bytes / self.bytes

    def pretty(self) -> str:
        summary = f"{self.entries} entries, {self.bytes} bytes stored, "
        if self.raw_bytes < 0:
            summary += "raw size unknown"
        else:
            summary += (f"{self.raw_bytes} bytes raw "
                        f"(compression {self.ratio:.2f}x)")
        lines = [f"artifact store at {self.root}", summary]
        for kind in sorted(self.by_kind):
            count, stored, raw = self.by_kind[kind]
            line = f"{kind:>16}  {count:6d} entries  {stored:12d} stored"
            if raw >= 0:
                ratio = raw / stored if stored > 0 and raw > 0 else 1.0
                line += f"  {raw:12d} raw  {ratio:6.2f}x"
            lines.append(line)
        return "\n".join(lines)


class _AtomicWriter:
    """Stream one entry to a temp file, landing it via ``os.replace``.

    The store's one write path: :meth:`DiskArtifactCache.put_raw`
    writes a whole envelope through it, and the serve daemon feeds
    request-body chunks straight in, so an upload never needs a
    whole-entry buffer server-side.  Abort (explicitly or by leaving
    the ``with`` block uncommitted) unlinks the temp file; only
    :meth:`commit` makes the entry visible.
    """

    def __init__(self, path: str):
        # may raise OSError: the caller (raw_writer) turns that into
        # a skipped write
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        handle, self._temp_path = tempfile.mkstemp(
            dir=directory, prefix=".tmp-", suffix=".pkl")
        self._stream = os.fdopen(handle, "wb")
        self._path = path
        self._written = 0
        self._done = False

    def write(self, chunk: bytes) -> bool:
        """Append bytes; ``False`` (and abort, a counted skip) on a
        filesystem failure."""
        try:
            self._stream.write(chunk)
        except OSError:
            self.abort()
            count_traffic("disk", write_skips=1)
            return False
        self._written += len(chunk)
        return True

    def commit(self) -> bool:
        """Land the entry atomically; ``False`` (and abort) on
        failure.  Counts the write on success."""
        if self._done:
            return False
        try:
            self._stream.close()
            os.replace(self._temp_path, self._path)
        except OSError:
            self.abort()
            count_traffic("disk", write_skips=1)
            return False
        self._done = True
        count_traffic("disk", writes=1, bytes_written=self._written)
        return True

    def abort(self) -> None:
        if self._done:
            return
        self._done = True
        try:
            self._stream.close()
        except OSError:
            pass
        DiskArtifactCache._unlink_quietly(self._temp_path)

    def __enter__(self) -> "_AtomicWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.abort()                     # no-op after commit


class DiskArtifactCache:
    """Content-addressed, versioned, codec-stamped store under one
    directory.

    Instances are cheap: workers each build their own against the same
    ``root`` and coordinate purely through atomic filesystem renames.
    The root directory is created lazily on the first write, so
    read-only operations (``cache stats`` on a store that does not
    exist yet) see an empty inventory instead of a side effect or an
    error.
    """

    def __init__(self, root: str):
        self.root = os.path.abspath(root)

    # ------------------------------------------------------------------
    # Key → path
    # ------------------------------------------------------------------

    def _path(self, key: Hashable) -> str:
        return self.raw_path(kind_of(key), digest_of(key))

    def raw_path(self, kind: str, digest: str) -> str:
        """Where the entry ``(kind, digest)`` lives on disk."""
        return os.path.join(self.root, STORE_LAYOUT, kind,
                            digest[:2], digest + ".pkl")

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------

    def get(self, key: Hashable) -> Any:
        """The stored artifact, or :data:`MISS`.

        Never raises: a missing, stale-format, corrupt or truncated
        entry is a miss.  Corrupt entries are unlinked best-effort so
        they do not cost a failed unpickle on every later run.  A hit
        refreshes the entry's mtime — ``gc(max_bytes=...)`` evicts
        least-recently-*used*, not least-recently-written.
        """
        expected = ARTIFACT_FORMATS.get(kind_of(key))
        if expected is None:
            return MISS
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            count_traffic("disk", misses=1)
            return MISS
        status, payload = decode_entry(data, key, expected)
        if status == "error":
            count_traffic("disk", errors=1)
            self._unlink_quietly(path)
            return MISS
        if status == "stale":
            count_traffic("disk", stale=1)
            return MISS
        count_traffic("disk", hits=1, bytes_read=len(data))
        self._touch(path)
        return payload

    def put(self, key: Hashable, value: Any) -> bool:
        """Persist an artifact; ``False`` if it was skipped.

        Unpicklable values and filesystem failures are swallowed — the
        store is an accelerator, never a correctness dependency.
        """
        version = ARTIFACT_FORMATS.get(kind_of(key))
        if version is None:
            return False
        try:
            data = encode_entry(key, value, version)
        except Exception:
            count_traffic("disk", write_skips=1)
            return False
        return self.put_raw(kind_of(key), digest_of(key), data)

    # ------------------------------------------------------------------
    # Raw entry access (the HTTP server / remote protocol)
    # ------------------------------------------------------------------

    def open_raw(self, kind: str,
                 digest: str) -> Optional[Tuple[BinaryIO, int]]:
        """Open entry ``(kind, digest)`` for streaming reads.

        Returns ``(handle, size)`` or ``None`` on a miss.  The serve
        daemon streams a GET from this handle without ever unpickling
        it — format stamps are the *client's* business — so a multi-MB
        mapping artifact never needs a whole-entry buffer server-side.
        Counts the hit and refreshes the mtime, so a served store
        still evicts LRU; the caller adds ``bytes_read`` for what it
        streamed and must close the handle.
        """
        path = self.raw_path(kind, digest)
        try:
            handle = open(path, "rb")
            size = os.fstat(handle.fileno()).st_size
        except OSError:
            count_traffic("disk", misses=1)
            return None
        count_traffic("disk", hits=1)
        self._touch(path)
        return handle, size

    def put_raw(self, kind: str, digest: str, data: bytes) -> bool:
        """Store raw envelope bytes under ``(kind, digest)``.

        Atomic (through :meth:`raw_writer`); concurrent writes of the
        same entry are idempotent (both succeed, readers always see a
        complete entry).  The caller is responsible for validating
        ``kind`` and ``digest`` — the serve daemon does.
        """
        writer = self.raw_writer(kind, digest)
        if writer is None:
            return False
        with writer:
            return writer.write(data) and writer.commit()

    def raw_writer(self, kind: str,
                   digest: str) -> Optional[_AtomicWriter]:
        """A streaming writer for entry ``(kind, digest)``, or ``None``
        (a counted skip) when the temp file cannot be created.  The
        serve daemon feeds request-body chunks in and commits at the
        end."""
        try:
            return _AtomicWriter(self.raw_path(kind, digest))
        except OSError:
            count_traffic("disk", write_skips=1)
            return None

    @staticmethod
    def _touch(path: str) -> None:
        try:
            os.utime(path, None)
        except OSError:
            pass

    @staticmethod
    def _unlink_quietly(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Maintenance (``si-mapper cache stats | gc | clear``)
    # ------------------------------------------------------------------

    def _layout_roots(self) -> List[str]:
        """Store-owned layout directories (``v1``, ``v2``, ...) under
        ``root``.  Maintenance only ever touches these — pointing
        ``--cache-dir`` at a populated directory must never endanger
        the neighbours."""
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        return [os.path.join(self.root, name) for name in sorted(names)
                if name.startswith("v") and name[1:].isdigit()
                and os.path.isdir(os.path.join(self.root, name))]

    def _entries(self) -> List[Tuple[str, str]]:
        """Every ``(kind, path)`` entry of the *current* layout."""
        found: List[Tuple[str, str]] = []
        layout_root = os.path.join(self.root, STORE_LAYOUT)
        for directory, dirs, names in os.walk(layout_root):
            dirs.sort()
            kind = os.path.relpath(directory, layout_root).split(
                os.sep)[0]
            for name in sorted(names):
                if name.endswith(".pkl") and not name.startswith("."):
                    found.append((kind, os.path.join(directory, name)))
        # the final sort makes the inventory independent of the walk
        # order outright — gc eviction ties, sync transfer order and
        # stats reports stay byte-identical across filesystems
        return sorted(found)

    def _read_entry_header(self, path: str) -> Optional[Tuple[dict,
                                                              int]]:
        """The envelope header of one entry file (plus its offset), or
        ``None``.  Reads :data:`HEADER_FIRST_PROBE_BYTES` leading bytes,
        and up to :data:`HEADER_PROBE_BYTES` only when they hold no
        header — never a payload.  The buffer is no larger than the
        first probe, so the file system is asked for no more."""
        try:
            with open(path, "rb",
                      buffering=HEADER_FIRST_PROBE_BYTES) as handle:
                probe = handle.read(HEADER_FIRST_PROBE_BYTES)
                parsed = read_header(probe)
                if parsed is None:
                    probe += handle.read(HEADER_PROBE_BYTES - len(probe))
                    parsed = read_header(probe)
        except OSError:
            return None
        return parsed

    def report(self) -> StoreReport:
        """Inventory of the store: entries, stored vs raw bytes, per
        kind.  Only entry *headers* are read (for the ``raw_size``
        stamp) — a v1 entry's payload is raw pickle, so its stored
        body length stands in for its raw size.

        A missing root is simply an empty store — pointing ``cache
        stats`` at a directory that does not exist yet must not fail.
        """
        report = StoreReport(root=self.root)
        for kind, path in self._entries():
            try:
                size = os.path.getsize(path)
            except OSError:
                continue
            parsed = self._read_entry_header(path)
            if parsed is None:
                raw = size
            else:
                header, offset = parsed
                raw_size = header.get("raw_size")
                raw = (raw_size if isinstance(raw_size, int)
                       and raw_size >= 0 else size - offset)
            report.entries += 1
            report.bytes += size
            report.raw_bytes += raw
            count, stored, raw_total = report.by_kind.get(
                kind, (0, 0, 0))
            report.by_kind[kind] = (count + 1, stored + size,
                                    raw_total + raw)
        return report

    def gc(self, max_age_seconds: Optional[float] = None,
           max_bytes: Optional[int] = None) -> Tuple[int, int]:
        """Drop unusable entries; returns ``(removed, freed_bytes)``.

        Removes: entries of *older* layouts (a newer binary's layout
        directory is left alone — this binary cannot judge it),
        entries of kinds no current code persists, entries with stale
        format stamps or unreadable headers, leftover temp files, and
        (optionally) entries older than ``max_age_seconds``.  Only the
        small metadata header of each entry is read, never the
        payload — a v1 entry (no codec stamp) and a v2 one are equally
        judged by their format stamps, so a mixed-era store is gc'd
        without decompressing or crashing anything.

        With ``max_bytes``, the surviving entries are then evicted
        least-recently-used (by mtime, which :meth:`get` refreshes)
        until the store fits the budget: the newest entries survive
        exactly up to ``max_bytes``.
        """
        removed = 0
        freed = 0

        def reap(path: str) -> None:
            nonlocal removed, freed
            try:
                size = os.path.getsize(path)
                os.unlink(path)
            except OSError:
                return
            removed += 1
            freed += size

        # older layout directories, and stray temp files in any layout
        # (interrupted writes) — never files outside the store-owned
        # ``v*`` directories, and never a *newer* layout: a shared
        # store may be fed by a newer binary whose entries this one
        # cannot judge.  Temp files young enough to be an in-flight
        # write are left alone: on a served store, gc runs while
        # workers PUT.
        now = time.time()

        def abandoned(path: str) -> bool:
            try:
                return now - os.path.getmtime(path) > TEMP_REAP_SECONDS
            except OSError:
                return False

        current_version = int(STORE_LAYOUT[1:])
        for layout in self._layout_roots():
            version = int(os.path.basename(layout)[1:])
            if version > current_version:
                continue
            obsolete = version < current_version
            for directory, _, names in os.walk(layout):
                for name in names:
                    path = os.path.join(directory, name)
                    if name.startswith(".tmp-"):
                        if abandoned(path):
                            reap(path)
                    elif obsolete:
                        reap(path)
        # current layout: stale / alien / expired entries
        for kind, path in self._entries():
            expected = ARTIFACT_FORMATS.get(kind)
            if expected is None:
                reap(path)
                continue
            if max_age_seconds is not None:
                try:
                    age = now - os.path.getmtime(path)
                except OSError:
                    continue
                if age > max_age_seconds:
                    reap(path)
                    continue
            parsed = self._read_entry_header(path)
            if parsed is None or parsed[0]["format"] != expected:
                reap(path)
        if max_bytes is not None:
            removed, freed = self._evict_lru(max_bytes, removed, freed)
        self._prune_empty_directories()
        return removed, freed

    def _evict_lru(self, max_bytes: int, removed: int,
                   freed: int) -> Tuple[int, int]:
        """Evict oldest-used entries until the store fits the budget."""
        survivors: List[Tuple[float, str, int]] = []
        for _, path in self._entries():
            try:
                stat = os.stat(path)
            except OSError:
                continue
            survivors.append((stat.st_mtime, path, stat.st_size))
        for path, size in over_budget(survivors, max_bytes):
            try:
                os.unlink(path)
            except OSError:
                continue
            removed += 1
            freed += size
        return removed, freed

    def clear(self) -> Tuple[int, int]:
        """Remove every store entry; returns ``(removed, freed_bytes)``.

        Only touches the store-owned layout directories — a stray
        README next to them survives.
        """
        removed = 0
        freed = 0
        for layout in self._layout_roots():
            for directory, _, names in os.walk(layout):
                for name in names:
                    path = os.path.join(directory, name)
                    try:
                        size = os.path.getsize(path)
                        os.unlink(path)
                    except OSError:
                        continue
                    removed += 1
                    freed += size
        self._prune_empty_directories()
        return removed, freed

    def _prune_empty_directories(self) -> None:
        for layout in self._layout_roots():
            for directory, _, _ in sorted(os.walk(layout),
                                          reverse=True):
                try:
                    os.rmdir(directory)   # fails unless empty — fine
                except OSError:
                    pass

    def __repr__(self) -> str:
        return f"DiskArtifactCache({self.root!r})"
