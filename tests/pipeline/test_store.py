"""DiskArtifactCache: persistence, versioning, corruption tolerance,
warm-started pipelines and batch workers."""

import os
import pickle
import threading

import pytest

from repro.pipeline import (ArtifactCache, BatchRunner, DiskArtifactCache,
                            Pipeline, PipelineConfig)
from repro.pipeline.store import ARTIFACT_FORMATS, MISS, STORE_LAYOUT


KEY = ("sg", "f" * 64)


class TestStoreBasics:
    def test_round_trip(self, tmp_path):
        store = DiskArtifactCache(str(tmp_path))
        assert store.get(KEY) is MISS
        assert store.put(KEY, {"value": 42})
        assert store.get(KEY) == {"value": 42}
        assert store.stats.hits == 1
        assert store.stats.misses == 1
        assert store.stats.writes == 1
        assert store.stats.bytes_written > 0

    def test_persists_across_instances(self, tmp_path):
        DiskArtifactCache(str(tmp_path)).put(KEY, "artifact")
        fresh = DiskArtifactCache(str(tmp_path))
        assert fresh.get(KEY) == "artifact"

    def test_distinct_keys_do_not_alias(self, tmp_path):
        store = DiskArtifactCache(str(tmp_path))
        other = ("sg", "e" * 64)
        store.put(KEY, "a")
        store.put(other, "b")
        assert store.get(KEY) == "a"
        assert store.get(other) == "b"

    def test_unknown_kind_is_never_persisted(self, tmp_path):
        store = DiskArtifactCache(str(tmp_path))
        assert not store.put(("stg", "a" * 64), "raw")
        assert store.get(("stg", "a" * 64)) is MISS
        assert store.report().entries == 0

    def test_unpicklable_value_is_skipped_not_raised(self, tmp_path):
        store = DiskArtifactCache(str(tmp_path))
        assert not store.put(KEY, threading.Lock())
        assert store.stats.write_skips == 1
        assert store.get(KEY) is MISS

    def test_overwrite_is_atomic_latest_wins(self, tmp_path):
        store = DiskArtifactCache(str(tmp_path))
        store.put(KEY, "old")
        store.put(KEY, "new")
        assert store.get(KEY) == "new"
        assert store.report().entries == 1


class TestStoreResilience:
    """A bad store entry degrades to recompute, never to a crash."""

    def _entry_path(self, store):
        ((_, path),) = store._entries()
        return path

    def test_corrupt_entry_is_a_miss_and_reaped(self, tmp_path):
        store = DiskArtifactCache(str(tmp_path))
        store.put(KEY, "artifact")
        with open(self._entry_path(store), "wb") as handle:
            handle.write(b"not a pickle at all")
        assert store.get(KEY) is MISS
        assert store.stats.errors == 1
        assert store.report().entries == 0   # unlinked best-effort

    def test_truncated_entry_is_a_miss(self, tmp_path):
        store = DiskArtifactCache(str(tmp_path))
        store.put(KEY, "artifact" * 100)
        path = self._entry_path(store)
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        assert store.get(KEY) is MISS

    def test_stale_format_is_ignored_then_overwritten(self, tmp_path):
        store = DiskArtifactCache(str(tmp_path))
        store.put(KEY, "artifact")
        path = self._entry_path(store)
        with open(path, "wb") as handle:
            pickle.dump({"format": ARTIFACT_FORMATS["sg"] + 1,
                         "key": repr(KEY), "payload": "artifact"},
                        handle)
        assert store.get(KEY) is MISS
        assert store.stats.stale == 1
        store.put(KEY, "recomputed")
        assert store.get(KEY) == "recomputed"

    def test_corrupt_entry_recomputes_through_pipeline(self, tmp_path):
        config = PipelineConfig(libraries=(2,), with_siegel=False,
                                keep_artifacts=False,
                                cache_dir=str(tmp_path))
        cold = Pipeline(config).run("half")
        store = DiskArtifactCache(str(tmp_path))
        for _, path in store._entries():
            with open(path, "wb") as handle:
                handle.write(b"\x80garbage")
        warm = Pipeline(config).run("half")
        assert warm.row == cold.row
        assert warm.stats["sg"] == 1         # recomputed, no crash
        assert warm.stats["disk_errors"] > 0


class TestStoreMaintenance:
    def test_report_counts_by_kind(self, tmp_path):
        store = DiskArtifactCache(str(tmp_path))
        store.put(("sg", "a" * 64), "x")
        store.put(("map", "a" * 64, 2, "global", ()), "y")
        report = store.report()
        assert report.entries == 2
        assert set(report.by_kind) == {"sg", "map"}
        assert "2 entries" in report.pretty()

    def test_clear_removes_entries_only(self, tmp_path):
        stranger = tmp_path / "notes.txt"
        stranger.write_text("keep me")
        store = DiskArtifactCache(str(tmp_path))
        store.put(KEY, "x")
        removed, freed = store.clear()
        assert removed == 1 and freed > 0
        assert store.get(KEY) is MISS
        assert stranger.read_text() == "keep me"

    def test_gc_reaps_stale_and_alien_entries(self, tmp_path):
        store = DiskArtifactCache(str(tmp_path))
        store.put(KEY, "good")
        # a stale-format entry of a valid kind
        stale = tmp_path / STORE_LAYOUT / "map" / "00" / ("0" * 64 + ".pkl")
        stale.parent.mkdir(parents=True)
        with open(stale, "wb") as handle:
            pickle.dump({"format": -1, "key": "k", "payload": 0}, handle)
        # an entry of a kind no current code persists
        alien = tmp_path / STORE_LAYOUT / "ghost" / "00" / ("1" * 64 + ".pkl")
        alien.parent.mkdir(parents=True)
        alien.write_bytes(b"whatever")
        # a leftover temp file from an interrupted write (old enough
        # that it cannot be an in-flight upload)...
        dead = tmp_path / STORE_LAYOUT / "sg" / ".tmp-dead.pkl"
        dead.write_bytes(b"")
        os.utime(dead, (0, 0))
        # ...and a *fresh* temp file: possibly a concurrent PUT on a
        # served store — gc must leave it alone
        live = tmp_path / STORE_LAYOUT / "sg" / ".tmp-inflight.pkl"
        live.write_bytes(b"")
        removed, _ = store.gc()
        assert removed == 3
        assert store.get(KEY) == "good"      # the healthy entry survives
        assert live.exists()                 # in-flight write untouched
        assert not dead.exists()

    def test_gc_leaves_newer_layouts_alone(self, tmp_path):
        """A shared store may be fed by a newer binary; this one's gc
        must not wipe entries it cannot judge."""
        store = DiskArtifactCache(str(tmp_path))
        store.put(KEY, "current")
        newer = tmp_path / "v999" / "sg" / "00" / ("2" * 64 + ".pkl")
        newer.parent.mkdir(parents=True)
        newer.write_bytes(b"a future binary's entry")
        older = tmp_path / "v0" / "sg" / "00" / ("3" * 64 + ".pkl")
        older.parent.mkdir(parents=True)
        older.write_bytes(b"an obsolete entry")
        removed, _ = store.gc()
        assert removed == 1
        assert newer.exists()
        assert not older.exists()

    def test_gc_reads_headers_not_payloads(self, tmp_path):
        """gc must never materialize payloads (mapping results carry
        whole state graphs)."""
        store = DiskArtifactCache(str(tmp_path))
        store.put(KEY, "fine")
        path = store._entries()[0][1]
        with open(path, "rb") as handle:
            data = handle.read()
        # sever the payload: a valid header followed by garbage
        import io
        stream = io.BytesIO(data)
        pickle.load(stream)
        with open(path, "wb") as handle:
            handle.write(data[: stream.tell()] + b"\x80broken payload")
        removed, _ = store.gc()
        assert removed == 0                  # header is valid: kept
        assert store.get(KEY) is MISS        # ...but get() catches it
        assert store.stats.errors == 1
        store = DiskArtifactCache(str(tmp_path))
        store.put(KEY, "old")
        ((_, path),) = store._entries()
        os.utime(path, (0, 0))               # epoch-old
        removed, _ = store.gc(max_age_seconds=3600)
        assert removed == 1


class TestLayeredCache:
    def test_memory_then_disk_then_compute(self, tmp_path):
        disk = DiskArtifactCache(str(tmp_path))
        cache = ArtifactCache(disk=disk)
        computes = []

        def compute():
            computes.append(1)
            return "value"

        assert cache.get_or_compute(KEY, compute) == "value"   # computed
        assert cache.get_or_compute(KEY, compute) == "value"   # memory
        fresh = ArtifactCache(disk=DiskArtifactCache(str(tmp_path)))
        assert fresh.get_or_compute(KEY, compute) == "value"   # disk
        assert len(computes) == 1
        assert fresh.misses == 0
        assert fresh.disk.stats.hits == 1

    def test_telemetry_without_disk_has_zero_counters(self):
        cache = ArtifactCache()
        telemetry = cache.telemetry()
        assert telemetry["disk_hits"] == 0
        assert telemetry["cache_misses"] == 0


BATTERY = PipelineConfig(libraries=(2,), with_siegel=True,
                         keep_artifacts=False)


class TestWarmStart:
    """The acceptance criterion: a warm second run is byte-identical
    and computes zero reach / synthesize artifacts."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_warm_batch_is_identical_and_compute_free(self, tmp_path,
                                                      jobs):
        from dataclasses import replace
        from repro.report import format_rows
        config = replace(BATTERY, cache_dir=str(tmp_path))
        names = ["half", "hazard"]
        runner = BatchRunner(config, jobs=jobs)
        cold = runner.run(names)
        warm = BatchRunner(config, jobs=jobs).run(names)
        assert all(item.ok for item in cold + warm)
        cold_rows = [item.record.row for item in cold]
        warm_rows = [item.record.row for item in warm]
        assert format_rows(warm_rows) == format_rows(cold_rows)
        for item in warm:
            assert item.record.stats["sg"] == 0
            assert item.record.stats["implementations"] == 0
            assert item.record.stats["map"] == 0
            assert item.record.stats["disk_hits"] > 0

    def test_workers_share_one_store(self, tmp_path):
        """A cold parallel batch populates one store: each circuit's
        artifacts are computed once across all workers."""
        from dataclasses import replace
        config = replace(BATTERY, cache_dir=str(tmp_path))
        BatchRunner(config, jobs=2).run(["half", "hazard"])
        report = DiskArtifactCache(str(tmp_path)).report()
        # 2 circuits x (sg, implementations, netlist, 2 mappings)
        assert report.by_kind["sg"][0] == 2
        assert report.by_kind["implementations"][0] == 2
        assert report.by_kind["map"][0] == 4

    def test_cache_dir_off_means_no_disk_io(self):
        record = Pipeline(BATTERY).run("half")
        assert record.stats["disk_hits"] == 0
        assert record.stats["disk_writes"] == 0


class TestGcSizeBudget:
    """``gc(max_bytes=...)``: LRU eviction by last-used mtime — the
    newest entries survive exactly up to the budget."""

    @staticmethod
    def _aged_entries(store, count):
        """``count`` entries with strictly increasing last-used times;
        returns their (path, size) newest-first."""
        entries = []
        for index in range(count):
            key = ("sg", f"{index:064x}")
            store.put(key, "payload-%04d" % index)
            path = store._path(key)
            os.utime(path, (1000.0 + index, 1000.0 + index))
            entries.append((path, os.path.getsize(path)))
        return list(reversed(entries))

    def test_newest_survive_exactly_up_to_budget(self, tmp_path):
        store = DiskArtifactCache(str(tmp_path))
        newest_first = self._aged_entries(store, 5)
        size = newest_first[0][1]              # all entries equal-sized
        budget = 2 * size + size // 2          # room for exactly two
        removed, freed = store.gc(max_bytes=budget)
        assert removed == 3
        assert freed == 3 * size
        survivors = {path for _, path in store._entries()}
        assert survivors == {path for path, _ in newest_first[:2]}

    def test_budget_larger_than_store_removes_nothing(self, tmp_path):
        store = DiskArtifactCache(str(tmp_path))
        self._aged_entries(store, 3)
        assert store.gc(max_bytes=10**9) == (0, 0)
        assert store.report().entries == 3

    def test_zero_budget_empties_the_store(self, tmp_path):
        store = DiskArtifactCache(str(tmp_path))
        self._aged_entries(store, 3)
        removed, _ = store.gc(max_bytes=0)
        assert removed == 3
        assert store.report().entries == 0

    def test_get_refreshes_last_used(self, tmp_path):
        """A *read* entry is recently-used: gc must keep it over a
        younger-written but never-read one."""
        store = DiskArtifactCache(str(tmp_path))
        old = ("sg", "a" * 64)
        young = ("sg", "b" * 64)
        store.put(old, "payload")
        store.put(young, "payload")
        for key, when in ((old, 1000.0), (young, 2000.0)):
            os.utime(store._path(key), (when, when))
        assert store.get(old) == "payload"     # touches mtime to now
        size = os.path.getsize(store._path(old))
        removed, _ = store.gc(max_bytes=size + size // 2)
        assert removed == 1
        assert store.get(old) == "payload"     # read entry survived
        assert store.get(young) is MISS

    def test_cli_gc_max_bytes(self, tmp_path, capsys):
        from repro.cli import main
        store = DiskArtifactCache(str(tmp_path))
        self._aged_entries(store, 4)
        assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                     "--max-bytes", "0"]) == 0
        assert "removed 4 entries" in capsys.readouterr().out
        assert store.report().entries == 0


class TestMissingStoreDirectory:
    """Read-only operations on a store that does not exist yet: empty
    inventory, exit 0, and no directory materializes as a side
    effect."""

    def test_report_on_missing_root_is_empty(self, tmp_path):
        missing = str(tmp_path / "never" / "created")
        store = DiskArtifactCache(missing)
        report = store.report()
        assert report.entries == 0 and report.bytes == 0
        assert "0 entries" in report.pretty()
        assert not os.path.exists(missing)

    def test_constructor_is_side_effect_free(self, tmp_path):
        missing = str(tmp_path / "lazy")
        store = DiskArtifactCache(missing)
        assert not os.path.exists(missing)
        assert store.get(KEY) is MISS          # still nothing created
        assert not os.path.exists(missing)
        store.put(KEY, "x")                    # first write creates it
        assert os.path.exists(missing)

    def test_gc_and_clear_on_missing_root(self, tmp_path):
        store = DiskArtifactCache(str(tmp_path / "void"))
        assert store.gc() == (0, 0)
        assert store.gc(max_bytes=0) == (0, 0)
        assert store.clear() == (0, 0)

    def test_cli_cache_stats_missing_dir_exits_zero(self, tmp_path,
                                                    capsys):
        from repro.cli import main
        missing = str(tmp_path / "no" / "such" / "store")
        assert main(["cache", "stats", "--cache-dir", missing]) == 0
        assert "0 entries, 0 bytes" in capsys.readouterr().out
        assert not os.path.exists(missing)


class TestStatsThreadSafety:
    """One store hammered by many threads (the serve daemon's handler
    pool): counter totals must be exact, not approximately right."""

    THREADS = 8
    ROUNDS = 50

    def test_concurrent_gets_and_puts_count_exactly(self, tmp_path):
        store = DiskArtifactCache(str(tmp_path))
        present = ("sg", "c" * 64)
        absent = ("sg", "d" * 64)
        store.put(present, "shared-payload")
        entry_bytes = store.stats.bytes_written
        barrier = threading.Barrier(self.THREADS)
        failures = []

        def hammer(index):
            try:
                barrier.wait()
                for round_number in range(self.ROUNDS):
                    assert store.get(present) == "shared-payload"
                    assert store.get(absent) is MISS
                    key = ("map", f"{index:02d}{round_number:04d}"
                           + "0" * 58, 2, "global", ())
                    assert store.put(key, (index, round_number))
            except Exception as error:  # pragma: no cover - fail loud
                failures.append(error)

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        total = self.THREADS * self.ROUNDS
        assert store.stats.hits == total
        assert store.stats.misses == total
        assert store.stats.writes == total + 1
        assert store.stats.bytes_read == total * entry_bytes
        assert store.stats.errors == 0

    def test_concurrent_puts_of_one_key_all_count(self, tmp_path):
        store = DiskArtifactCache(str(tmp_path))
        barrier = threading.Barrier(self.THREADS)

        def overwrite():
            barrier.wait()
            for _ in range(self.ROUNDS):
                assert store.put(KEY, "same-value")

        threads = [threading.Thread(target=overwrite)
                   for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert store.stats.writes == self.THREADS * self.ROUNDS
        assert store.report().entries == 1     # idempotent on disk


def _badseq_g() -> str:
    from repro.stg.writer import write_g
    from tests.conftest import chained_sequencer_stg
    return write_g(chained_sequencer_stg())


BADSEQ_G = _badseq_g()


class TestCscArtifact:
    """The "csc" artifact kind through the persistent store: warm runs
    serve the solve (and its telemetry) from disk; a stale format
    stamp degrades to recompute, never to a crash."""

    def _config(self, tmp_path, method="regions"):
        from repro.mapping.decompose import MapperConfig
        return PipelineConfig(
            libraries=(2,), with_siegel=False, keep_artifacts=False,
            mapper=MapperConfig(solve_csc=True, csc_method=method),
            cache_dir=str(tmp_path))

    @pytest.mark.parametrize("method", ["regions", "blocks"])
    def test_warm_run_computes_zero_csc_artifacts(self, tmp_path,
                                                  method):
        config = self._config(tmp_path, method)
        cold = Pipeline(config).run(("badseq", BADSEQ_G))
        assert cold.stats["csc"] == 1
        assert cold.stats["signals_inserted"] >= 1
        warm = Pipeline(config).run(("badseq", BADSEQ_G))
        assert warm.stats["csc"] == 0            # served from the store
        assert warm.stats["sg"] == 0
        assert warm.stats["disk_hits"] > 0
        # telemetry rides on the artifact: a warm run still reports it
        assert warm.stats["signals_inserted"] == \
            cold.stats["signals_inserted"]
        assert warm.stats["candidates_evaluated"] == \
            cold.stats["candidates_evaluated"]
        assert warm.row == cold.row
        assert warm.row.csc_signals == cold.stats["signals_inserted"]
        report = DiskArtifactCache(str(tmp_path)).report()
        assert report.by_kind["csc"][0] == 1

    def test_methods_do_not_alias_in_the_store(self, tmp_path):
        regions = Pipeline(self._config(tmp_path, "regions")).run(
            ("badseq", BADSEQ_G))
        blocks = Pipeline(self._config(tmp_path, "blocks")).run(
            ("badseq", BADSEQ_G))
        # the second method must compute its own solve, not reuse the
        # first one's artifact
        assert regions.stats["csc"] == 1
        assert blocks.stats["csc"] == 1
        report = DiskArtifactCache(str(tmp_path)).report()
        assert report.by_kind["csc"][0] == 2

    # every kind whose pickled classes changed shape in the last
    # format bump (StateGraph, ExcitationRegion, RegionCover)
    @pytest.mark.parametrize("kind", ["sg", "csc", "implementations",
                                      "map"])
    def test_stale_csc_format_recomputes_not_crashes(self, tmp_path,
                                                     monkeypatch, kind):
        config = self._config(tmp_path)
        cold = Pipeline(config).run(("badseq", BADSEQ_G))
        monkeypatch.setitem(ARTIFACT_FORMATS, kind,
                            ARTIFACT_FORMATS[kind] + 1)
        warm = Pipeline(config).run(("badseq", BADSEQ_G))
        assert warm.stats[kind] == 1             # stale: recomputed
        assert warm.stats["disk_stale"] >= 1
        assert warm.row == cold.row
        assert warm.stats["signals_inserted"] == \
            cold.stats["signals_inserted"]


def write_v1_entry(store, key, value):
    """Plant bytes exactly as the pre-codec store wrote them: header
    without codec/raw_size stamps, payload as a raw pickle."""
    import pickle as _pickle
    from repro.pipeline.store import digest_of, kind_of
    header = {"format": ARTIFACT_FORMATS[kind_of(key)],
              "key": repr(key)}
    data = (_pickle.dumps(header, protocol=_pickle.HIGHEST_PROTOCOL)
            + _pickle.dumps(value, protocol=_pickle.HIGHEST_PROTOCOL))
    path = store.raw_path(kind_of(key), digest_of(key))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as handle:
        handle.write(data)
    return path, data


class TestV1Migration:
    """Pre-refactor stores stay warm; entries migrate lazily on hit."""

    VALUE = {"states": ["0101" * 64] * 200}

    def test_v1_entry_hits_and_reencodes_in_place(self, tmp_path):
        store = DiskArtifactCache(str(tmp_path))
        path, v1_bytes = write_v1_entry(store, KEY, self.VALUE)
        assert store.get(KEY) == self.VALUE
        assert store.stats.hits == 1
        # the hit migrated the entry: smaller, codec-stamped
        from repro.pipeline.store import read_header
        with open(path, "rb") as handle:
            migrated = handle.read()
        assert len(migrated) < len(v1_bytes)
        assert read_header(migrated)[0]["codec"] == "zlib"
        assert store.stats.writes == 1
        # second hit reads the v2 entry and does NOT rewrite again
        assert store.get(KEY) == self.VALUE
        assert store.stats.writes == 1

    def test_identity_store_leaves_v1_entries_alone(self, tmp_path):
        store = DiskArtifactCache(str(tmp_path), codec="identity")
        path, v1_bytes = write_v1_entry(store, KEY, self.VALUE)
        assert store.get(KEY) == self.VALUE
        with open(path, "rb") as handle:
            assert handle.read() == v1_bytes

    def test_gc_keeps_valid_v1_entries(self, tmp_path):
        store = DiskArtifactCache(str(tmp_path))
        write_v1_entry(store, KEY, self.VALUE)
        removed, _ = store.gc()
        assert removed == 0
        assert store.get(KEY) == self.VALUE

    def test_report_reads_v1_raw_size_from_the_body(self, tmp_path):
        store = DiskArtifactCache(str(tmp_path))
        _, v1_bytes = write_v1_entry(store, KEY, self.VALUE)
        report = store.report()
        assert report.entries == 1
        assert report.bytes == len(v1_bytes)
        assert report.raw_bytes < report.bytes   # payload < envelope

    def test_warm_pipeline_from_v1_store_computes_nothing(self,
                                                          tmp_path):
        """The acceptance criterion: a store written before this
        refactor still warm-starts the pipeline."""
        from dataclasses import replace
        config = replace(BATTERY, cache_dir=str(tmp_path))
        cold = Pipeline(config).run("half")
        assert cold.stats["sg"] == 1
        # rewrite every entry as its v1 (pre-codec) equivalent
        store = DiskArtifactCache(str(tmp_path))
        rewritten = 0
        for _, path in store._entries():
            from repro.pipeline.store import (decode_entry,
                                              read_header)
            with open(path, "rb") as handle:
                data = handle.read()
            header, offset = read_header(data)
            v1_header = {"format": header["format"],
                         "key": header["key"]}
            if "codec" in header:
                import zlib as _zlib
                payload = (_zlib.decompress(data[offset:])
                           if header["codec"] == "zlib"
                           else data[offset:])
            else:
                payload = data[offset:]
            with open(path, "wb") as handle:
                handle.write(pickle.dumps(
                    v1_header, protocol=pickle.HIGHEST_PROTOCOL)
                    + payload)
            rewritten += 1
        assert rewritten > 0
        warm = Pipeline(config).run("half")
        assert warm.stats["sg"] == 0
        assert warm.stats["implementations"] == 0
        assert warm.stats["map"] == 0
        assert warm.stats["disk_hits"] > 0
        assert warm.row == cold.row


class TestCompressionRatio:
    """The acceptance criterion: >= 2x on state-graph artifacts."""

    def test_sg_artifacts_compress_at_least_2x(self, tmp_path):
        from dataclasses import replace
        config = replace(BATTERY, cache_dir=str(tmp_path))
        for name in ("alloc-outbound", "chu133", "chu150"):
            Pipeline(config).run(name)
        report = DiskArtifactCache(str(tmp_path)).report()
        count, stored, raw = report.by_kind["sg"]
        assert count == 3
        assert raw >= 2 * stored
        # and the overall ratio survives the pretty-printer
        assert "compression" in report.pretty()

    def test_ratio_is_visible_per_kind(self, tmp_path):
        store = DiskArtifactCache(str(tmp_path))
        store.put(KEY, {"states": ["0101" * 64] * 200})
        pretty = store.report().pretty()
        assert any(line.split()[:1] == ["sg"]
                   for line in pretty.splitlines())
