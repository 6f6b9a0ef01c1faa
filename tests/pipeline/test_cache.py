"""ArtifactCache concurrency: one compute per key, exact hit/miss
accounting, and recovery when the in-flight computation fails."""

import threading

from repro.obs.metrics import use_registry
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.store import traffic_stats


def memory_counts():
    """``(hits, misses)`` of the current registry."""
    counts = traffic_stats()
    return counts["cache_hits"], counts["cache_misses"]


class TestRaceAccounting:
    def test_concurrent_requests_compute_once(self):
        cache = ArtifactCache()
        computes = []
        release = threading.Event()
        started = threading.Event()

        def compute():
            computes.append(threading.get_ident())
            started.set()
            release.wait(timeout=5)
            return "artifact"

        results = []

        def worker():
            results.append(cache.get_or_compute("key", compute))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        with use_registry():
            threads[0].start()
            assert started.wait(timeout=5)
            for thread in threads[1:]:
                thread.start()
            release.set()
            for thread in threads:
                thread.join(timeout=5)
            counts = memory_counts()

        assert results == ["artifact"] * 8
        assert len(computes) == 1            # the race never recomputes
        assert (len(cache), *counts) == (1, 7, 1)

    def test_failed_compute_lets_waiters_retry(self):
        cache = ArtifactCache()
        attempts = []
        first_started = threading.Event()
        fail_now = threading.Event()

        def flaky():
            attempts.append(None)
            if len(attempts) == 1:
                first_started.set()
                fail_now.wait(timeout=5)
                raise RuntimeError("boom")
            return 42

        errors = []
        results = []

        def first():
            try:
                cache.get_or_compute("key", flaky)
            except RuntimeError as error:
                errors.append(error)

        def second():
            results.append(cache.get_or_compute("key", flaky))

        thread_a = threading.Thread(target=first)
        thread_b = threading.Thread(target=second)
        with use_registry():
            thread_a.start()
            assert first_started.wait(timeout=5)
            thread_b.start()
            fail_now.set()
            thread_a.join(timeout=5)
            thread_b.join(timeout=5)
            counts = memory_counts()

        assert len(errors) == 1              # the owner saw the failure
        assert results == [42]               # the waiter retried and won
        assert len(attempts) == 2
        assert (len(cache), *counts) == (1, 0, 1)

    def test_sequential_hit_miss_counts(self, traffic):
        cache = ArtifactCache()
        assert cache.get_or_compute("k", lambda: 1) == 1
        assert cache.get_or_compute("k", lambda: 2) == 1
        assert cache.get_or_compute("j", lambda: 3) == 3
        counts = traffic()
        assert (counts["cache_hits"], counts["cache_misses"]) == (1, 2)
        assert "k" in cache and len(cache) == 2
        cache.clear()
        assert len(cache) == 0 and "k" not in cache
