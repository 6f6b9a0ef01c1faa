"""The shared artifact envelope: one wire/disk format for every backend.

Every artifact backend — the local :class:`~repro.pipeline.store.
DiskArtifactCache`, the HTTP :class:`~repro.dist.remote.
RemoteArtifactCache`, the S3-compatible :class:`~repro.dist.
objectstore.ObjectStoreArtifactCache`, and the ``si-mapper serve``
daemon — moves entries in the *envelope* encoded here, so bytes
written by any backend are readable by every other one.  This module
owns the format; backends own transport and storage.

Wire format (``docs/envelope.md`` is the normative spec):

* a small pickled **header** dict — ``{"format": int, "key": str,
  "codec": str, "raw_size": int}`` — readable with a restricted
  unpickler that cannot construct objects, so servers and maintenance
  can stamp-check entries without materializing state graphs;
* the pickled **payload**: ``zlib.compress`` of it (codec ``zlib``),
  or the pickle as is (``identity``) when compression does not shrink
  it.  State graphs and mapping artifacts deflate 3-10x, so nearly
  every entry is ``zlib``.

**v1 envelopes** (written before the codec stamp existed) have no
``codec``/``raw_size`` header keys; readers default them to
``identity`` / the body length, so pre-existing stores stay warm.  An
envelope stamped with any other codec decodes as ``"stale"`` — a miss
that is *not* reaped, because another binary sharing the store may
still read it.
"""

from __future__ import annotations

import hashlib
import io
import pickle
import zlib
from typing import Any, Dict, Hashable, Optional, Tuple

#: bump when the directory layout / envelope shape itself changes;
#: old layout directories are ignored and reaped by ``gc``.  The codec
#: stamp is *not* a layout change — v1 and v2 envelopes share layout
#: directories and content addresses.
STORE_LAYOUT = "v1"

#: per-kind artifact format versions.  Bump a kind's version whenever
#: the pickled schema of that artifact changes (new dataclass fields,
#: renamed attributes, ...): entries stamped with an older version are
#: treated as misses and overwritten on the next compute.  Kinds not
#: listed here are never persisted.
ARTIFACT_FORMATS: Dict[str, int] = {
    # sg v2, csc v3, map v2: the pickled StateGraph is int-indexed
    # (identity list, packed codes, (event, j) arc tuples); sg v3,
    # csc v4, map v3: it caches BFS ranks, and its encoding carries
    # image tables and index-level diamonds
    "sg": 3,
    # v2: the artifact is the whole CscResult (graph + steps +
    # telemetry), not just the solved StateGraph
    "csc": 4,
    # v2 (and map v3): ExcitationRegion carries its bitset, and
    # RegionCover its quiescent region and zone as bitsets; v3 (and
    # netlist v2, map v4): RegionCover drops its zone, and
    # DecompositionStep and MappingResult their reuse counters.  A
    # netlist pickles its implementations, so it moves with them.
    "implementations": 3,
    "netlist": 2,
    "check": 1,
    # v5: MappingResult drops its initial netlist (the context's
    # "netlist" artifact is the one copy)
    "map": 5,
    # finished job rows spilled by the serve daemon's retention layer
    "jobrow": 1,
}


def _codec_ops(op: str, codec: str) -> None:
    """Count one envelope codec operation on the process registry."""
    from repro.obs.metrics import default_registry
    default_registry().counter(
        "si_envelope_ops_total",
        "Envelope encode/decode operations by outcome.",
        ("op", "codec")).inc(op=op, codec=codec)


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------

def kind_of(key: Hashable) -> str:
    """The artifact kind of a cache key (its first tuple element)."""
    if isinstance(key, tuple) and key and isinstance(key[0], str):
        return key[0]
    return "misc"


def digest_of(key: Hashable) -> str:
    """The content address of a cache key: SHA-256 of its ``repr``."""
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Headers
# ----------------------------------------------------------------------

class _NoGlobalsUnpickler(pickle.Unpickler):
    """Header reader: refuses every global lookup, so it can only
    materialize primitive containers — never arbitrary objects."""

    def find_class(self, module, name):  # pragma: no cover - guard
        raise pickle.UnpicklingError(
            f"envelope headers may not reference {module}.{name}")


#: reading this many leading bytes is always enough for the header
#: (a dict of four short scalars plus one key repr)
HEADER_PROBE_BYTES = 64 * 1024

#: a first, short probe that holds the header of every entry the flow
#: writes (the longest measured is 221 bytes); readers that scan many
#: entries read :data:`HEADER_PROBE_BYTES` only when it does not parse
HEADER_FIRST_PROBE_BYTES = 512


def read_header(data: bytes) -> Optional[Tuple[Dict[str, Any], int]]:
    """Parse the envelope header from leading bytes.

    Returns ``(header, payload_offset)`` or ``None`` when the bytes do
    not start with a well-formed header.  Uses the restricted
    unpickler, so it is safe on hostile input, and never raises.
    """
    stream = io.BytesIO(data)
    try:
        header = _NoGlobalsUnpickler(stream).load()
    except Exception:
        return None
    if (not isinstance(header, dict)
            or not isinstance(header.get("format"), int)
            or not isinstance(header.get("key"), str)):
        return None
    return header, stream.tell()


def plausible_envelope(data: bytes) -> bool:
    """True when ``data`` starts with a well-formed entry header (what
    the serve daemon checks before accepting an upload)."""
    return read_header(data) is not None


# ----------------------------------------------------------------------
# Encode / decode
# ----------------------------------------------------------------------

def encode_entry(key: Hashable, value: Any, version: int) -> bytes:
    """Serialize one store entry into the shared envelope.

    The payload pickle is ``zlib``-compressed; when compression does
    not shrink it the entry is stored ``identity`` instead — the stamp
    records what was done.  Raises whatever :func:`pickle.dumps`
    raises on an unserializable value; backends turn that into a
    ``write_skip``.
    """
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    codec, body = "zlib", zlib.compress(payload, 6)
    if len(body) >= len(payload):
        codec, body = "identity", payload
    header = {"format": version, "key": repr(key), "codec": codec,
              "raw_size": len(payload)}
    _codec_ops("encode", codec)
    return pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL) + body


def decode_entry(data: bytes, key: Hashable,
                 expected: int) -> Tuple[str, Any]:
    """Parse envelope bytes back into a payload.

    Returns ``("hit", payload)``; ``("stale", None)`` for a wrong
    format stamp, wrong key repr, or a codec stamp other than
    ``identity``/``zlib`` (another binary's entry — a miss, but not
    garbage); or ``("error", None)`` for bytes that are not a
    well-formed envelope (torn write survivor, alien file, corrupt
    body).  Never raises.
    """
    parsed = read_header(data)
    if parsed is None:
        _codec_ops("decode_error", "unknown")
        return "error", None
    header, offset = parsed
    codec = header.get("codec", "identity")
    if not isinstance(codec, str):
        codec = "unknown"
    if (header["format"] != expected or header["key"] != repr(key)
            or codec not in ("identity", "zlib")):
        _codec_ops("decode_stale", codec)
        return "stale", None
    body = data[offset:]
    try:
        value = pickle.loads(zlib.decompress(body) if codec == "zlib"
                             else body)
    except Exception:
        _codec_ops("decode_error", codec)
        return "error", None
    _codec_ops("decode_hit", codec)
    return "hit", value
