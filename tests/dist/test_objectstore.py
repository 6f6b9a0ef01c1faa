"""The S3-compatible backend: spec parsing, round trips against the
in-process fake, the degrade-to-miss failure model, maintenance over
listings, the boto3 transport, and pipeline warm starts through
``--cache-s3``."""

import sys

import pytest

from repro.dist.base import make_store
from repro.dist.envelope import (ARTIFACT_FORMATS, STORE_LAYOUT,
                                 digest_of, encode_entry, kind_of,
                                 read_header)
from repro.dist.objectstore import (ObjectStoreArtifactCache,
                                    TransportError,
                                    parse_object_store_spec)
from repro.dist.remote import RemoteArtifactCache, TieredStore
from repro.dist.s3fake import FakeS3Server
from repro.dist.server import ArtifactServer
from repro.errors import StoreConfigError
from repro.pipeline import DiskArtifactCache, Pipeline, PipelineConfig
from repro.pipeline.store import MISS

KEY = ("sg", "c" * 64)
VALUE = {"states": ["01" * 40] * 100, "arcs": list(range(32)) * 8}
BUCKET = "si-cache"
PREFIX = "team"
DEAD_SPEC = "http://127.0.0.1:1/si-cache/team"


@pytest.fixture
def fake():
    with FakeS3Server(port=0).start_background() as live:
        yield live


@pytest.fixture
def spec(fake):
    return f"{fake.url}/{BUCKET}/{PREFIX}"


@pytest.fixture
def cache(spec):
    return ObjectStoreArtifactCache(spec)


class TestSpecParsing:
    def test_bare_bucket_prefix(self):
        assert (parse_object_store_spec("bucket/team/t1")
                == (None, "bucket", "team/t1"))

    def test_s3_scheme(self):
        assert (parse_object_store_spec("s3://bucket/pre")
                == (None, "bucket", "pre"))

    def test_explicit_endpoint(self):
        assert (parse_object_store_spec("http://h:9000/bucket/pre")
                == ("http://h:9000", "bucket", "pre"))

    def test_endpoint_without_prefix(self):
        assert (parse_object_store_spec("https://host/bucket")
                == ("https://host", "bucket", ""))

    @pytest.mark.parametrize("bad", ["", "   ", "s3://", "http:///x",
                                     "http://host"])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(StoreConfigError):
            parse_object_store_spec(bad)

    def test_bare_spec_without_boto3_is_a_config_error(self,
                                                       monkeypatch):
        # a None entry makes ``import boto3`` fail even where it is
        # installed, so this path is checked on every host
        monkeypatch.setitem(sys.modules, "boto3", None)
        with pytest.raises(StoreConfigError, match="boto3"):
            ObjectStoreArtifactCache("bucket/prefix")


class TestRoundTrip:
    def test_miss_then_put_then_hit(self, cache, traffic):
        assert cache.get(KEY) is MISS
        assert traffic()["remote_misses"] == 1
        assert cache.put(KEY, VALUE)
        assert cache.get(KEY) == VALUE
        counts = traffic()
        assert counts["remote_hits"] == 1
        assert counts["remote_writes"] == 1
        assert counts["remote_bytes_written"] > 0
        assert counts["remote_bytes_read"] == counts["remote_bytes_written"]

    def test_objects_are_codec_stamped_envelopes(self, fake, cache):
        cache.put(KEY, VALUE)
        key = (f"{PREFIX}/{STORE_LAYOUT}/{kind_of(KEY)}"
               f"/{digest_of(KEY)}")
        body = fake.lookup(BUCKET, key)[0]
        assert read_header(body)[0]["codec"] == "zlib"

    def test_same_bytes_any_backend_reads(self, fake, spec, cache):
        """Content addressing is backend-independent: an envelope
        uploaded through HTTP-transport S3 equals a local encode."""
        cache.put(KEY, VALUE)
        _, wire = cache.fetch(KEY)
        version = ARTIFACT_FORMATS[kind_of(KEY)]
        assert wire == encode_entry(KEY, VALUE, version)

    def test_stale_format_is_a_miss(self, cache, monkeypatch, traffic):
        cache.put(KEY, VALUE)
        monkeypatch.setitem(ARTIFACT_FORMATS, "sg",
                            ARTIFACT_FORMATS["sg"] + 1)
        assert cache.get(KEY) is MISS
        assert traffic()["remote_stale"] == 1

    def test_unknown_kind_never_touches_the_wire(self, cache, traffic):
        assert cache.get(("nope", "a" * 64)) is MISS
        assert not cache.put(("nope", "a" * 64), 1)
        assert traffic()["remote_misses"] == 0
        assert traffic()["remote_write_skips"] == 0


class TestFailureModel:
    def test_dead_endpoint_degrades_to_miss_with_cooldown(self,
                                                          traffic):
        cache = ObjectStoreArtifactCache(DEAD_SPEC, timeout=0.5,
                                         cooldown=60.0)
        assert cache.get(KEY) is MISS
        assert traffic()["remote_errors"] == 1
        # inside the cooldown window: no second connection attempt
        assert cache.get(KEY) is MISS
        assert traffic()["remote_errors"] == 1
        assert traffic()["remote_misses"] == 1
        assert not cache.put(KEY, VALUE)
        assert traffic()["remote_write_skips"] == 1

    def test_maintenance_on_dead_endpoint_is_a_noop(self):
        cache = ObjectStoreArtifactCache(DEAD_SPEC, timeout=0.5)
        assert cache.gc() == (0, 0)
        assert cache.clear() == (0, 0)
        assert not cache.healthy()
        report = cache.report()
        assert report.entries == 0

    def test_healthy_endpoint(self, cache):
        assert cache.healthy()


class TestTieredComposition:
    def test_backfill_writes_the_wire_bytes(self, tmp_path, spec,
                                            traffic):
        remote = ObjectStoreArtifactCache(spec)
        remote.put(KEY, VALUE)
        local = DiskArtifactCache(str(tmp_path / "local"))
        tiered = TieredStore(local, ObjectStoreArtifactCache(spec))
        assert tiered.get(KEY) == VALUE
        # the envelope was backfilled verbatim, then re-read locally
        counts = traffic()
        assert counts["disk_bytes_written"] == counts["remote_bytes_read"]
        assert counts["disk_bytes_written"] > 0
        assert local.get(KEY) == VALUE


class TestMakeStore:
    def test_s3_spec_builds_the_object_store(self, spec):
        store = make_store(cache_s3=spec)
        assert isinstance(store, ObjectStoreArtifactCache)

    def test_dir_plus_s3_is_tiered(self, tmp_path, spec):
        store = make_store(cache_dir=str(tmp_path), cache_s3=spec)
        assert isinstance(store, TieredStore)
        assert isinstance(store.remote, ObjectStoreArtifactCache)

    def test_url_plus_s3_is_a_config_error(self, spec):
        with pytest.raises(StoreConfigError):
            make_store(cache_url="http://127.0.0.1:1", cache_s3=spec)

    def test_url_alone_still_builds_the_remote(self):
        store = make_store(cache_url="http://127.0.0.1:1")
        assert isinstance(store, RemoteArtifactCache)


def seed(fake, key, body, *, mtime=None):
    fake.store_object(BUCKET, key, body)
    if mtime is not None:
        with fake._lock:
            stored, _ = fake._objects[(BUCKET, key)]
            fake._objects[(BUCKET, key)] = (stored, mtime)


class TestMaintenance:
    def test_gc_reaps_only_store_owned_layout_roots(self, fake,
                                                    cache):
        cache.put(KEY, VALUE)
        seed(fake, f"{PREFIX}/v0/sg/{'a' * 64}", b"old layout")
        seed(fake, f"{PREFIX}/v99/sg/{'b' * 64}", b"newer binary")
        seed(fake, f"{PREFIX}/{STORE_LAYOUT}/mystery/{'c' * 64}",
             b"unknown kind")
        seed(fake, f"{PREFIX}/README", b"neighbour file")
        seed(fake, "elsewhere/v1/sg/x", b"other prefix")
        removed, freed = cache.gc()
        assert removed == 2                    # v0 + unknown kind
        assert freed == len(b"old layout") + len(b"unknown kind")
        assert fake.lookup(BUCKET, f"{PREFIX}/v99/sg/{'b' * 64}")
        assert fake.lookup(BUCKET, f"{PREFIX}/README")
        assert fake.lookup(BUCKET, "elsewhere/v1/sg/x")
        assert cache.get(KEY) == VALUE         # the live entry stayed

    def test_gc_max_age_uses_last_modified(self, fake, spec):
        import time
        cache = ObjectStoreArtifactCache(spec)
        cache.put(KEY, VALUE)
        stale_key = f"{PREFIX}/{STORE_LAYOUT}/sg/{'d' * 64}"
        seed(fake, stale_key, b"ancient", mtime=time.time() - 10_000)
        removed, _ = cache.gc(max_age_seconds=3600)
        assert removed == 1
        assert fake.lookup(BUCKET, stale_key) is None
        assert cache.get(KEY) == VALUE

    def test_gc_size_budget_keeps_newest(self, fake, spec):
        cache = ObjectStoreArtifactCache(spec)
        layout = f"{PREFIX}/{STORE_LAYOUT}/sg"
        seed(fake, f"{layout}/{'a' * 64}", b"x" * 100, mtime=100.0)
        seed(fake, f"{layout}/{'b' * 64}", b"x" * 100, mtime=200.0)
        seed(fake, f"{layout}/{'c' * 64}", b"x" * 100, mtime=300.0)
        removed, freed = cache.gc(max_bytes=250)
        assert removed == 1
        assert freed == 100
        assert fake.lookup(BUCKET, f"{layout}/{'a' * 64}") is None
        assert fake.lookup(BUCKET, f"{layout}/{'c' * 64}")

    def test_clear_spares_neighbour_objects(self, fake, cache):
        cache.put(KEY, VALUE)
        seed(fake, f"{PREFIX}/README", b"neighbour file")
        removed, freed = cache.clear()
        assert removed == 1
        assert freed > 0
        assert fake.lookup(BUCKET, f"{PREFIX}/README")
        assert cache.get(KEY) is MISS

    def test_report_counts_current_layout_only(self, fake, cache):
        cache.put(KEY, VALUE)
        cache.put(("map", "e" * 64, 2, "global", ()), {"area": 7})
        seed(fake, f"{PREFIX}/v0/sg/{'a' * 64}", b"old layout")
        report = cache.report()
        assert report.entries == 2
        assert set(report.by_kind) == {"sg", "map"}
        assert report.by_kind["sg"][0] == 1
        assert report.root == f"s3://{BUCKET}/{PREFIX}"
        # listings carry no headers: the raw size is unknown
        assert report.raw_bytes < 0
        assert all(raw < 0 for _, _, raw in report.by_kind.values())

    def test_report_prints_no_unmeasured_ratio(self, cache, tmp_path):
        """A compressible entry: the disk store and the daemon read
        its header and print the ratio, the bucket says the raw size
        is unknown instead of printing 1.00x."""
        cache.put(KEY, VALUE)
        pretty = cache.report().pretty()
        assert "raw size unknown" in pretty
        assert "1.00x" not in pretty
        disk = DiskArtifactCache(str(tmp_path / "disk"))
        disk.put(KEY, VALUE)
        with ArtifactServer(str(tmp_path / "served"),
                            port=0).start_background() as server:
            remote = RemoteArtifactCache(server.url)
            remote.put(KEY, VALUE)
            for report in (disk.report(), remote.report()):
                assert report.raw_bytes > report.bytes
                assert "raw size unknown" not in report.pretty()
                assert f"(compression {report.ratio:.2f}x)" in (
                    report.pretty())


class TestListingPagination:
    def test_small_pages_follow_continuation_tokens(self, fake, spec,
                                                    monkeypatch):
        monkeypatch.setattr("repro.dist.s3fake.MAX_KEYS_DEFAULT", 3)
        cache = ObjectStoreArtifactCache(spec)
        digests = [format(i, "x") * 64 for i in range(8)]
        for digest in digests:
            seed(fake, f"{PREFIX}/{STORE_LAYOUT}/sg/{digest[:64]}",
                 b"x" * 10)
        report = cache.report()
        assert report.entries == 8
        removed, _ = cache.clear()
        assert removed == 8


class _FlakyTransport:
    """Dies with TransportError after a set number of calls."""

    def __init__(self, inner, budget):
        self._inner = inner
        self._budget = budget

    def _spend(self):
        if self._budget <= 0:
            raise TransportError("flaky")
        self._budget -= 1

    def get(self, key):
        self._spend()
        return self._inner.get(key)

    def put(self, key, data):
        self._spend()
        self._inner.put(key, data)

    def delete(self, key):
        self._spend()
        self._inner.delete(key)

    def list(self, prefix):
        self._spend()
        return self._inner.list(prefix)


class TestTransportInjection:
    def test_transport_error_midway_stops_gc_cleanly(self, fake,
                                                     spec):
        from repro.dist.objectstore import _HttpTransport
        seed(fake, f"{PREFIX}/v0/sg/{'a' * 64}", b"ten bytes!")
        seed(fake, f"{PREFIX}/v0/sg/{'b' * 64}", b"ten bytes!")
        inner = _HttpTransport(fake.url, BUCKET)
        # budget 2: one list + one delete succeed, second delete dies
        cache = ObjectStoreArtifactCache(
            spec, transport=_FlakyTransport(inner, 2))
        removed, freed = cache.gc()
        assert removed == 1
        assert freed == 10


class TestBoto3Transport:
    """The boto3 transport against the fake, injected like any other:
    dummy credentials, an explicit endpoint, nothing leaves the host."""

    @pytest.fixture
    def cache(self, fake, monkeypatch):
        pytest.importorskip("boto3")
        from repro.dist.objectstore import _Boto3Transport
        for name, value in (("AWS_ACCESS_KEY_ID", "test"),
                            ("AWS_SECRET_ACCESS_KEY", "test"),
                            ("AWS_DEFAULT_REGION", "us-east-1"),
                            ("AWS_EC2_METADATA_DISABLED", "true"),
                            ("AWS_CONFIG_FILE", "/nonexistent"),
                            ("AWS_SHARED_CREDENTIALS_FILE",
                             "/nonexistent")):
            monkeypatch.setenv(name, value)
        transport = _Boto3Transport(BUCKET, endpoint=fake.url)
        return ObjectStoreArtifactCache(f"{BUCKET}/{PREFIX}",
                                        transport=transport)

    def test_round_trip(self, cache, traffic):
        assert cache.get(KEY) is MISS
        assert traffic()["remote_misses"] == 1
        assert cache.put(KEY, VALUE)
        assert cache.get(KEY) == VALUE
        counts = traffic()
        assert counts["remote_hits"] == 1
        assert counts["remote_errors"] == 0
        assert (counts["remote_bytes_read"]
                == counts["remote_bytes_written"] > 0)

    def test_stale_format_is_a_miss(self, cache, monkeypatch, traffic):
        cache.put(KEY, VALUE)
        monkeypatch.setitem(ARTIFACT_FORMATS, "sg",
                            ARTIFACT_FORMATS["sg"] + 1)
        assert cache.get(KEY) is MISS
        assert traffic()["remote_stale"] == 1

    def test_report(self, cache, traffic):
        cache.put(KEY, VALUE)
        report = cache.report()
        assert report.entries == 1
        assert report.bytes == traffic()["remote_bytes_written"]
        assert report.by_kind["sg"][0] == 1
        assert report.root == f"s3://{BUCKET}/{PREFIX}"

    def test_gc_size_budget(self, cache, traffic):
        cache.put(KEY, VALUE)
        assert cache.gc(max_bytes=0) == (
            1, traffic()["remote_bytes_written"])
        assert cache.get(KEY) is MISS
        assert traffic()["remote_errors"] == 0

    def test_clear_spares_neighbour_objects(self, fake, cache, traffic):
        cache.put(KEY, VALUE)
        seed(fake, f"{PREFIX}/README", b"neighbour file")
        removed, freed = cache.clear()
        assert removed == 1
        assert freed == traffic()["remote_bytes_written"]
        assert fake.lookup(BUCKET, f"{PREFIX}/README")
        assert cache.get(KEY) is MISS


CONFIG = dict(libraries=(2,), with_siegel=False, keep_artifacts=False)


class TestPipelineOverObjectStore:
    """The acceptance path: shard workers warm-start through S3."""

    def test_cold_then_warm_through_the_fake(self, spec):
        config = PipelineConfig(cache_s3=spec, **CONFIG)
        cold = Pipeline(config).run("half")
        assert cold.stats["sg"] == 1
        assert cold.stats["remote_writes"] > 0
        warm = Pipeline(config).run("half")    # fresh memory cache
        assert warm.stats["sg"] == 0
        assert warm.stats["implementations"] == 0
        assert warm.stats["map"] == 0
        assert warm.stats["remote_hits"] > 0
        assert warm.row == cold.row

    def test_dead_object_store_never_fails_a_run(self):
        config = PipelineConfig(cache_s3=DEAD_SPEC, **CONFIG)
        record = Pipeline(config).run("half")
        assert record.stats["sg"] == 1         # computed locally
        assert record.stats["remote_hits"] == 0
        assert record.row is not None
