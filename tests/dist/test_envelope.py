"""The shared envelope format: the zlib/identity round trip, v1
interop, stale stamps, header safety and hash-seed independence — the
seam every storage backend moves bytes through."""

import os
import pickle
import subprocess
import sys
import zlib

import pytest

from repro.dist.envelope import (ARTIFACT_FORMATS, decode_entry,
                                 encode_entry, plausible_envelope,
                                 read_header)

KEY = ("sg", "a" * 64)
#: a payload that deflates extremely well (like real state graphs)
VALUE = {"states": ["0101" * 64] * 200, "arcs": list(range(64)) * 32}
#: a payload compression cannot shrink: it is stored ``identity``
NOISE = zlib.compress(bytes((i * 97 + 13) % 251 for i in range(4096)))
VERSION = ARTIFACT_FORMATS["sg"]


def v1_envelope(key, value, version):
    """Bytes exactly as the pre-codec store wrote them: header without
    codec/raw_size stamps, payload as a raw pickle."""
    header = {"format": version, "key": repr(key)}
    return (pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL)
            + pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


def codec_of(data):
    return read_header(data)[0]["codec"]


class TestRoundTrip:
    @pytest.mark.parametrize("value, codec", [(VALUE, "zlib"),
                                              (NOISE, "identity")],
                             ids=["zlib", "identity"])
    def test_round_trip(self, value, codec):
        data = encode_entry(KEY, value, VERSION)
        assert codec_of(data) == codec
        status, payload = decode_entry(data, KEY, VERSION)
        assert status == "hit"
        assert payload == value

    def test_zlib_actually_compresses(self):
        data = encode_entry(KEY, VALUE, VERSION)
        header, offset = read_header(data)
        assert header["codec"] == "zlib"
        raw = pickle.dumps(VALUE, protocol=pickle.HIGHEST_PROTOCOL)
        assert header["raw_size"] == len(raw)
        assert len(data) - offset < len(raw) / 2

    def test_incompressible_payload_falls_back_to_identity(self):
        """The stamp records what happened: zlib would not shrink
        this payload, so it is stored as is."""
        data = encode_entry(KEY, NOISE, VERSION)
        header, offset = read_header(data)
        assert header["codec"] == "identity"
        assert header["raw_size"] == len(data) - offset
        assert decode_entry(data, KEY, VERSION)[0] == "hit"

    def test_wrong_format_is_stale(self):
        data = encode_entry(KEY, VALUE, VERSION)
        assert decode_entry(data, KEY, VERSION + 1)[0] == "stale"

    def test_wrong_key_is_stale(self):
        data = encode_entry(KEY, VALUE, VERSION)
        assert decode_entry(data, ("sg", "b" * 64),
                            VERSION)[0] == "stale"

    def test_garbage_is_error(self):
        assert decode_entry(b"not an envelope", KEY,
                            VERSION)[0] == "error"

    def test_corrupt_body_is_error(self):
        data = encode_entry(KEY, VALUE, VERSION)
        header_len = read_header(data)[1]
        torn = data[:header_len] + b"\x00garbage"
        assert decode_entry(torn, KEY, VERSION)[0] == "error"


class TestV1Interop:
    """Pre-codec envelopes keep hitting; unknown stamps stay misses."""

    def test_v1_envelope_decodes_as_hit(self):
        data = v1_envelope(KEY, VALUE, VERSION)
        assert "codec" not in read_header(data)[0]
        status, payload = decode_entry(data, KEY, VERSION)
        assert status == "hit"
        assert payload == VALUE

    def test_identity_payload_is_a_raw_pickle(self):
        """An identity body is the payload pickle itself, exactly as
        a v1 envelope's is."""
        data = encode_entry(KEY, NOISE, VERSION)
        offset = read_header(data)[1]
        assert pickle.loads(data[offset:]) == NOISE

    def test_unknown_codec_stamp_is_stale_not_error(self):
        """An entry compressed by another binary is a miss here — but
        not garbage to unlink: that binary can still read it."""
        header = {"format": VERSION, "key": repr(KEY),
                  "codec": "quantum-lz", "raw_size": 3}
        data = (pickle.dumps(header,
                             protocol=pickle.HIGHEST_PROTOCOL)
                + b"???")
        assert decode_entry(data, KEY, VERSION)[0] == "stale"


class TestHeaderSafety:
    def test_header_reader_refuses_objects(self):
        """A header that smuggles a global reference parses as no
        header at all — the restricted unpickler cannot construct it."""
        hostile = pickle.dumps(pickle.UnpicklingError("x"))
        assert read_header(hostile) is None
        assert not plausible_envelope(hostile)

    def test_plausible_envelope_accepts_real_entries(self):
        assert plausible_envelope(encode_entry(KEY, VALUE, VERSION))
        assert plausible_envelope(v1_envelope(KEY, VALUE, VERSION))


#: run under a fixed ``PYTHONHASHSEED``: encode hazard's state graph,
#: initial synthesis and k=2 mapping into ``argv[1]``; given another
#: seed's output in ``argv[2]``, check that the states, codes, covers
#: and regions stored there are found among this process's equal values
SEEDED_RUN = """
import pickle, sys
from repro.dist.envelope import decode_entry, encode_entry
from repro.pipeline.context import SynthesisContext

context = SynthesisContext.of("hazard")
values = {"sg": context.state_graph(),
          "implementations": context.implementations(),
          "map": context.mapping(2)}
with open(sys.argv[1], "wb") as handle:
    pickle.dump({kind: encode_entry((kind,), value, 1)
                 for kind, value in values.items()}, handle)
if len(sys.argv) > 2:
    with open(sys.argv[2], "rb") as handle:
        theirs = {kind: decode_entry(data, (kind,), 1)[1]
                  for kind, data in pickle.load(handle).items()}
    sg, fresh = theirs["sg"], values["sg"]
    assert set(sg.states) <= set(fresh.states)
    codes = {fresh.code(state) for state in fresh.states}
    assert all(sg.code(state) in codes for state in sg.states)

    def region_covers(implementations):
        return [region_cover for implementation
                in implementations.values()
                for region_cover in implementation.region_covers]

    mine = region_covers(values["implementations"])
    covers = {region_cover.cover for region_cover in mine}
    regions = {region for region_cover in mine
               for region in region_cover.regions}
    for region_cover in region_covers(theirs["implementations"]):
        assert region_cover.cover in covers
        assert all(region in regions for region in region_cover.regions)
    print("found")
"""


class TestHashSeedIndependence:
    """Stored bytes do not depend on ``PYTHONHASHSEED``, and a value
    loaded in another process hashes like that process's own."""

    def test_entries_are_seed_independent(self, tmp_path):
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        outputs = []
        for seed, other in (("0", None), ("1", "0")):
            out = str(tmp_path / f"seed{seed}.pkl")
            argv = [sys.executable, "-c", SEEDED_RUN, out]
            if other is not None:
                argv.append(str(tmp_path / f"seed{other}.pkl"))
            proc = subprocess.run(
                argv, capture_output=True, text=True, timeout=300,
                env={"PYTHONPATH": os.path.abspath(src),
                     "PYTHONHASHSEED": seed})
            assert proc.returncode == 0, proc.stderr[-2000:]
            with open(out, "rb") as handle:
                outputs.append(pickle.load(handle))
        assert proc.stdout.strip() == "found"
        assert outputs[0] == outputs[1]
