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
* the pickled **payload**, passed through the named *codec*
  (``identity`` = raw pickle bytes, ``zlib`` = ``zlib.compress`` of
  them, ``zstd`` when a zstandard implementation is importable).

Version compatibility is carried by the codec stamp, not a format
bump:

* **v1 envelopes** (written before the codec stamp existed) have no
  ``codec``/``raw_size`` header keys; readers default them to
  ``identity`` / the body length, so pre-existing stores stay warm;
* a **v2 identity envelope** is readable by v1 decoders — the header
  gains keys v1 ignores and the payload bytes are an unmodified
  pickle — which is what lets a v2 server transcode for old clients
  (:func:`transcode`) and mixed-version clusters interoperate;
* an envelope stamped with a codec this interpreter cannot decompress
  (e.g. ``zstd`` without the library) decodes as ``"stale"`` — a miss
  that is *not* reaped, because a newer binary sharing the store can
  still read it.

State graphs and mapping artifacts pickle large but deflate extremely
well (typically 3-10x), so the default codec is ``zlib``; an encoder
falls back to ``identity`` when compression does not actually shrink
the payload, and the stamp always records what was done.
"""

from __future__ import annotations

import hashlib
import io
import pickle
import zlib
from typing import (Any, Callable, Dict, Hashable, Optional, Tuple)

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
    # RegionCover its quiescent region and zone as bitsets
    "implementations": 2,
    "netlist": 1,
    "check": 1,
    "map": 3,
    # finished job rows spilled by the serve daemon's retention layer
    "jobrow": 1,
}


def _codec_ops(op: str, codec: str) -> None:
    """Count one envelope codec operation on the process registry."""
    from repro.obs.metrics import default_registry
    default_registry().counter(
        "si_envelope_ops_total",
        "Envelope encode/decode/transcode operations by outcome.",
        ("op", "codec")).inc(op=op, codec=codec)


# ----------------------------------------------------------------------
# Codecs
# ----------------------------------------------------------------------

#: name -> (compress, decompress); ``identity`` and ``zlib`` are
#: always available, ``zstd`` only when an implementation imports.
_CODECS: Dict[str, Tuple[Callable[[bytes], bytes],
                         Callable[[bytes], bytes]]] = {
    "identity": (lambda data: data, lambda data: data),
    "zlib": (lambda data: zlib.compress(data, 6), zlib.decompress),
}

try:                                     # Python 3.14+ standard library
    from compression import zstd as _stdlib_zstd  # type: ignore
    _CODECS["zstd"] = (_stdlib_zstd.compress, _stdlib_zstd.decompress)
except ImportError:                       # pragma: no cover - env gate
    try:
        import zstandard as _zstandard    # type: ignore

        _CODECS["zstd"] = (
            lambda data: _zstandard.ZstdCompressor().compress(data),
            lambda data: _zstandard.ZstdDecompressor().decompress(data))
    except ImportError:
        pass                              # zstd entries decode "stale"

#: what new entries are compressed with unless a backend overrides it
DEFAULT_CODEC = "zlib"


def available_codecs() -> Tuple[str, ...]:
    """Codec names this interpreter can both encode and decode, in
    stable preference order (what ``X-SI-Codecs`` advertises)."""
    order = ("identity", "zlib", "zstd")
    return tuple(name for name in order if name in _CODECS)


def resolve_codec(name: Optional[str]) -> str:
    """Map a requested codec to an available one.

    ``None`` means the default; an importable-but-missing ``zstd``
    falls back to ``zlib`` (the promised pure-python behaviour); an
    unknown name is a configuration error and raises ``ValueError``.
    """
    if name is None:
        name = DEFAULT_CODEC
    if name in _CODECS:
        return name
    if name == "zstd":
        return "zlib"
    raise ValueError(f"unknown artifact codec {name!r} "
                     f"(available: {', '.join(available_codecs())})")


def negotiate_codecs(header: Optional[str]) -> frozenset:
    """The codec names a peer accepts, from its ``X-SI-Codecs`` header.

    A missing or empty header is an old (pre-codec) client that can
    only read raw pickles: ``{"identity"}``.  Unknown tokens are
    ignored — a newer peer may advertise codecs we never heard of.
    """
    if not header:
        return frozenset(("identity",))
    names = {token.strip().lower() for token in header.split(",")}
    accepted = names & set(_CODECS) | {"identity"}
    return frozenset(accepted)


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


def codec_of(data: bytes) -> Optional[str]:
    """The codec stamp of envelope bytes (``"identity"`` for v1
    envelopes), or ``None`` when there is no readable header."""
    parsed = read_header(data)
    if parsed is None:
        return None
    codec = parsed[0].get("codec", "identity")
    return codec if isinstance(codec, str) else None


def raw_size_of(data: bytes) -> int:
    """The uncompressed payload size an envelope carries.

    v1 envelopes (no ``raw_size`` stamp) store the payload raw, so the
    body length *is* the raw size; unreadable bytes report their own
    length (best effort — callers only use this for inventory ratios).
    """
    parsed = read_header(data)
    if parsed is None:
        return len(data)
    header, offset = parsed
    raw_size = header.get("raw_size")
    if isinstance(raw_size, int) and raw_size >= 0:
        return raw_size
    return len(data) - offset


# ----------------------------------------------------------------------
# Encode / decode / transcode
# ----------------------------------------------------------------------

def _pack(header: Dict[str, Any], body: bytes) -> bytes:
    return pickle.dumps(header,
                        protocol=pickle.HIGHEST_PROTOCOL) + body


def encode_entry(key: Hashable, value: Any, version: int,
                 codec: Optional[str] = None) -> bytes:
    """Serialize one store entry into the shared envelope.

    The payload pickle runs through ``codec`` (default
    :data:`DEFAULT_CODEC`); when compression does not shrink the
    payload the entry is stored ``identity`` instead — the stamp
    records what actually happened, never what was asked for.  Raises
    whatever :func:`pickle.dumps` raises on an unserializable value;
    backends turn that into a ``write_skip``.
    """
    codec = resolve_codec(codec)
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    body = _CODECS[codec][0](payload)
    if codec != "identity" and len(body) >= len(payload):
        codec, body = "identity", payload
    header = {"format": version, "key": repr(key), "codec": codec,
              "raw_size": len(payload)}
    _codec_ops("encode", codec)
    return _pack(header, body)


def decode_entry(data: bytes, key: Hashable,
                 expected: int) -> Tuple[str, Any]:
    """Parse envelope bytes back into a payload.

    Returns ``("hit", payload)``; ``("stale", None)`` for a wrong
    format stamp, wrong key repr, or a codec this interpreter cannot
    decompress (a *newer* binary's entry — a miss, but not garbage);
    or ``("error", None)`` for bytes that are not a well-formed
    envelope (torn write survivor, alien file, corrupt body).  Never
    raises.
    """
    parsed = read_header(data)
    if parsed is None:
        _codec_ops("decode_error", "unknown")
        return "error", None
    header, offset = parsed
    codec = header.get("codec", "identity")
    if not isinstance(codec, str):
        codec = "unknown"
    if header["format"] != expected or header["key"] != repr(key):
        _codec_ops("decode_stale", codec)
        return "stale", None
    if codec not in _CODECS:
        _codec_ops("decode_stale", codec)
        return "stale", None
    try:
        payload = _CODECS[codec][1](data[offset:])
    except Exception:
        _codec_ops("decode_error", codec)
        return "error", None
    try:
        value = pickle.loads(payload)
    except Exception:
        _codec_ops("decode_error", codec)
        return "error", None
    _codec_ops("decode_hit", codec)
    return "hit", value


def transcode(data: bytes, codec: str) -> Optional[bytes]:
    """Re-encode envelope bytes under another codec — bytes to bytes,
    the payload is never unpickled.

    This is how a v2 server serves ``identity`` to a v1-speaking
    client, and how a disk store lazily migrates a v1 entry to a
    compressed v2 one on its first warm read.  Returns ``None`` when
    the input is not a decodable envelope (including a codec stamp
    this interpreter lacks).  The same not-smaller fallback as
    :func:`encode_entry` applies, so transcoding to ``zlib`` can
    legitimately yield an ``identity``-stamped envelope.
    """
    codec = resolve_codec(codec)
    parsed = read_header(data)
    if parsed is None:
        return None
    header, offset = parsed
    source = header.get("codec", "identity")
    if source not in _CODECS:
        return None
    try:
        payload = _CODECS[source][1](data[offset:])
    except Exception:
        return None
    body = _CODECS[codec][0](payload)
    if codec != "identity" and len(body) >= len(payload):
        codec, body = "identity", payload
    new_header = dict(header)
    new_header["codec"] = codec
    new_header["raw_size"] = len(payload)
    _codec_ops("transcode", codec)
    return _pack(new_header, body)
