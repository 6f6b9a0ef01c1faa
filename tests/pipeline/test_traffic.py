"""The one counting path for cache and store traffic.

:func:`count_traffic` writes every tier's traffic onto the metrics
registry; :func:`traffic_stats` reads counter samples — a journal's
or the registry's — back as the 18 ``RunRecord.stats`` counters."""

import threading

from repro.obs.metrics import close_journal, open_journal, use_registry
from repro.pipeline import ArtifactCache, Pipeline, PipelineConfig
from repro.pipeline.store import count_traffic, traffic_stats

STATS_KEYS = (
    ["cache_hits", "cache_misses"]
    + [f"{layer}_{op}" for layer in ("disk", "remote")
       for op in ("hits", "misses", "stale", "errors", "writes",
                  "write_skips", "bytes_read", "bytes_written")])


def series(registry):
    return {sample.key: sample.value for sample in registry.snapshot()}


class TestCountTraffic:
    def test_memory_tier_counts_cache_ops(self):
        with use_registry() as registry:
            count_traffic("memory", hit=2, miss=1, store_fill=1)
            assert series(registry) == {
                'si_cache_ops_total{op="hit"}': 2,
                'si_cache_ops_total{op="miss"}': 1,
                'si_cache_ops_total{op="store_fill"}': 1,
            }

    def test_store_tier_splits_ops_and_bytes(self):
        with use_registry() as registry:
            count_traffic("disk", hits=1, bytes_read=10)
            count_traffic("remote", writes=1, bytes_written=7)
            assert series(registry) == {
                'si_store_ops_total{tier="disk",op="hits"}': 1,
                'si_store_bytes_total{tier="disk",direction="read"}': 10,
                'si_store_ops_total{tier="remote",op="writes"}': 1,
                'si_store_bytes_total{tier="remote",direction="written"}':
                    7,
            }

    def test_amounts_accumulate(self):
        with use_registry() as registry:
            for _ in range(3):
                count_traffic("disk", misses=1, bytes_read=4)
            counts = series(registry)
        assert counts['si_store_ops_total{tier="disk",op="misses"}'] == 3
        assert counts[
            'si_store_bytes_total{tier="disk",direction="read"}'] == 12

    def test_zero_amounts_create_no_series(self):
        with use_registry() as registry:
            count_traffic("disk", hits=0, bytes_read=0)
            count_traffic("memory", miss=0)
            assert series(registry) == {}

    def test_exposition_shows_the_counted_series(self):
        with use_registry() as registry:
            count_traffic("s3", errors=2)
            text = registry.render_prometheus()
        assert '# TYPE si_store_ops counter' in text
        assert 'si_store_ops_total{tier="s3",op="errors"} 2' in text


class TestTrafficStats:
    def test_eighteen_zero_filled_keys_in_report_order(self):
        stats = traffic_stats({})
        assert list(stats) == STATS_KEYS
        assert set(stats.values()) == {0}

    def test_every_key_reads_its_own_series(self):
        """Each store counter lands on exactly its own key, so no two
        ops or directions share a series."""
        for op in ("hits", "misses", "stale", "errors", "writes",
                   "write_skips", "bytes_read", "bytes_written"):
            with use_registry():
                count_traffic("disk", **{op: 3})
                stats = traffic_stats()
            assert {key: value for key, value in stats.items()
                    if value} == {f"disk_{op}": 3}

    def test_remote_keys_sum_daemon_and_bucket_tiers(self):
        with use_registry():
            count_traffic("remote", hits=1, bytes_read=5)
            count_traffic("s3", hits=2, bytes_read=6)
            stats = traffic_stats()
        assert stats["remote_hits"] == 3
        assert stats["remote_bytes_read"] == 11
        assert stats["disk_hits"] == 0

    def test_cache_fills_are_not_run_stats(self):
        with use_registry():
            count_traffic("memory", hit=1, miss=1, store_fill=4)
            stats = traffic_stats()
        assert (stats["cache_hits"], stats["cache_misses"]) == (1, 1)
        assert sum(stats.values()) == 2

    def test_unrelated_series_are_ignored(self):
        stats = traffic_stats({
            "si_requests_total": 9.0,
            'si_store_ops_total{tier="local",op="hits"}': 4.0,
            'si_store_ops_total{tier="disk",op="hits"}': 2.0,
        })
        assert {key: value for key, value in stats.items()
                if value} == {"disk_hits": 2}

    def test_journal_and_registry_agree_on_one_thread(self):
        with use_registry():
            journal = open_journal()
            try:
                count_traffic("memory", hit=1)
                count_traffic("disk", writes=2, bytes_written=30)
            finally:
                close_journal()
            assert traffic_stats(journal) == traffic_stats()

    def test_journal_leaves_out_other_threads(self):
        with use_registry():
            journal = open_journal()
            try:
                count_traffic("disk", hits=1)
                worker = threading.Thread(
                    target=count_traffic, args=("disk",),
                    kwargs={"hits": 5})
                worker.start()
                worker.join()
            finally:
                close_journal()
            assert traffic_stats(journal)["disk_hits"] == 1
            assert traffic_stats()["disk_hits"] == 6


def test_run_stats_leave_out_traffic_before_the_run():
    """``Pipeline.run`` opens its journal at the start of the run:
    traffic counted earlier on the same thread is not the run's."""
    config = PipelineConfig(libraries=(2,), with_siegel=False,
                            keep_artifacts=False)
    with use_registry():
        count_traffic("disk", hits=5, bytes_read=100)
        count_traffic("memory", hit=7)
        record = Pipeline(config, cache=ArtifactCache()).run("half")
        totals = traffic_stats()
    assert record.stats["disk_hits"] == 0
    assert record.stats["disk_bytes_read"] == 0
    assert record.stats["cache_hits"] == totals["cache_hits"] - 7
    assert record.stats["cache_misses"] == totals["cache_misses"] > 0
