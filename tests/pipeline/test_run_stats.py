"""``RunRecord.stats`` counter attribution.

A run's cache and store counters come from a counter journal open on
its own thread for the whole run, so they hold exactly the traffic the
run made: a counter series first created mid-run counts in full, and
other runs over the same shared cache — before, after or at the same
time — never count."""

import threading

from repro.obs.metrics import use_registry
from repro.pipeline import (ArtifactCache, DiskArtifactCache, Pipeline,
                            PipelineConfig)
from repro.pipeline.store import traffic_stats

CONFIG = PipelineConfig(libraries=(2,), with_siegel=False,
                        keep_artifacts=False)


def test_mid_run_counter_is_attributed_in_full(tmp_path):
    """In a fresh registry the first store write creates its counter
    series mid-run; the run still reports every write."""
    with use_registry():
        cache = ArtifactCache(disk=DiskArtifactCache(str(tmp_path)))
        record = Pipeline(CONFIG, cache=cache).run("half")
        totals = traffic_stats()
    assert record.stats["disk_writes"] == totals["disk_writes"] > 0
    assert (record.stats["disk_bytes_written"]
            == totals["disk_bytes_written"])


def test_preexisting_counters_still_diff():
    with use_registry():
        cache = ArtifactCache()
        pipeline = Pipeline(CONFIG, cache=cache)
        pipeline.run("half")
        second = pipeline.run("half")
    # the warm second run serves everything from memory: its own
    # counters show hits, not misses
    assert second.stats["cache_hits"] > 0
    assert second.stats["cache_misses"] == 0


def test_raced_runs_report_only_their_own_traffic(tmp_path):
    """Two threads run different circuits through one shared cache,
    held in lockstep at the start of ``reach`` and the end of
    ``report``, so all of each run's traffic happens while the other
    run is open.  Each record still reports exactly its solo run's
    cache and disk counters."""
    names = ("half", "hazard")

    def traffic(stats):
        return {key: value for key, value in stats.items()
                if key.startswith(("cache_", "disk_"))}

    solo = {}
    for name in names:
        cache = ArtifactCache(
            disk=DiskArtifactCache(str(tmp_path / f"solo-{name}")))
        solo[name] = traffic(Pipeline(CONFIG, cache=cache).run(name).stats)

    barrier = threading.Barrier(len(names), timeout=60)

    def lockstep(event):
        if (event["stage"], event["status"]) in (("reach", "start"),
                                                 ("report", "done")):
            barrier.wait()

    shared = ArtifactCache(disk=DiskArtifactCache(str(tmp_path / "shared")))
    pipeline = Pipeline(CONFIG, cache=shared, on_stage=lockstep)
    raced, failures = {}, []

    def run(name):
        try:
            raced[name] = traffic(pipeline.run(name).stats)
        except Exception as error:  # pragma: no cover - fail loud
            failures.append(error)
            barrier.abort()

    threads = [threading.Thread(target=run, args=(name,))
               for name in names]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not failures
    assert solo["half"]["disk_writes"] > 0
    assert raced == solo
