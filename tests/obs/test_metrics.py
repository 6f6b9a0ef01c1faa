"""The metrics registry: instrument semantics, exposition format,
registration invariants, and the process-default swap."""

import threading

import pytest

from repro.errors import ReproError
from repro.obs.metrics import (Counter, Gauge, Histogram,
                               MetricsRegistry, close_journal,
                               default_registry, open_journal,
                               use_registry)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_value_total(self, registry):
        counter = registry.counter("si_t_total", "help", ("op",))
        counter.inc(op="hit")
        counter.inc(2, op="hit")
        counter.inc(5, op="miss")
        assert counter.value(op="hit") == 3
        assert counter.value(op="miss") == 5
        assert counter.total() == 8

    def test_negative_increment_rejected(self, registry):
        counter = registry.counter("si_t_total")
        with pytest.raises(ReproError):
            counter.inc(-1)

    def test_total_suffix_normalized(self, registry):
        """``x_total`` and ``x`` are the same counter (the exposition
        re-appends the suffix), never ``x_total_total``."""
        a = registry.counter("si_t_total")
        b = registry.counter("si_t")
        assert a is b
        a.inc()
        (sample,) = a.samples()
        assert sample.name == "si_t_total"

    def test_labels_must_match_declaration(self, registry):
        counter = registry.counter("si_t_total", "", ("op",))
        with pytest.raises(ReproError):
            counter.inc()                      # missing label
        with pytest.raises(ReproError):
            counter.inc(tier="disk")           # wrong label


class TestGauge:
    def test_set_inc_dec(self, registry):
        gauge = registry.gauge("si_depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value() == 13

    def test_labeled_series_are_independent(self, registry):
        gauge = registry.gauge("si_entries", "", ("kind",))
        gauge.set(3, kind="sg")
        gauge.set(7, kind="map")
        assert gauge.value(kind="sg") == 3
        assert gauge.value(kind="map") == 7


class TestHistogram:
    def test_cumulative_buckets(self, registry):
        hist = registry.histogram("si_h", "", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        assert hist.count() == 3
        assert hist.sum() == pytest.approx(5.55)
        by_le = {sample.labels[-1][1]: sample.value
                 for sample in hist.samples()
                 if sample.name == "si_h_bucket"}
        assert by_le == {"0.1": 1, "1": 2, "+Inf": 3}

    def test_inf_bucket_auto_appended(self, registry):
        hist = registry.histogram("si_h", "", buckets=(1.0,))
        assert hist.buckets[-1] == float("inf")

    def test_duplicate_buckets_rejected(self):
        with pytest.raises(ReproError):
            Histogram("si_h", "", buckets=(1.0, 1.0))


class TestRegistry:
    def test_same_name_same_instrument(self, registry):
        assert registry.gauge("si_g") is registry.gauge("si_g")

    def test_kind_mismatch_rejected(self, registry):
        registry.counter("si_x_total")
        with pytest.raises(ReproError):
            registry.gauge("si_x")

    def test_label_mismatch_rejected(self, registry):
        registry.counter("si_x_total", "", ("op",))
        with pytest.raises(ReproError):
            registry.counter("si_x_total", "", ("tier",))

    def test_invalid_names_rejected(self, registry):
        with pytest.raises(ReproError):
            registry.counter("0bad")
        with pytest.raises(ReproError):
            registry.counter("si_x_total", "", ("bad-label",))
        with pytest.raises(ReproError):
            registry.counter("si_x_total", "", ("a", "a"))

    def test_journal_records_counters_only(self, registry):
        journal = open_journal()
        try:
            registry.counter("si_c_total", "", ("op",)).inc(3, op="hit")
            registry.gauge("si_g").set(9)
            registry.histogram("si_h").observe(0.1)
        finally:
            assert close_journal() is journal
        assert journal == {'si_c_total{op="hit"}': 3}

    def test_journals_nest_and_close_innermost_first(self, registry):
        counter = registry.counter("si_c_total")
        outer = open_journal()
        inner = open_journal()
        counter.inc()
        # both hold the same, hence equal: closing must still pick by
        # position
        assert close_journal() is inner
        counter.inc(2)
        assert close_journal() is outer
        assert (inner, outer) == ({"si_c_total": 1}, {"si_c_total": 3})

    def test_journal_sees_only_its_own_thread(self, registry):
        counter = registry.counter("si_c_total")
        journal = open_journal()
        try:
            worker = threading.Thread(target=counter.inc, args=(5,))
            worker.start()
            worker.join()
            counter.inc()
        finally:
            close_journal()
        assert journal == {"si_c_total": 1}
        assert counter.total() == 6


class TestExposition:
    def test_prometheus_text_shape(self, registry):
        registry.counter("si_c_total", "Counts things.",
                         ("op",)).inc(2, op="hit")
        registry.gauge("si_g", "A level.").set(1.5)
        text = registry.render_prometheus()
        lines = text.splitlines()
        assert "# HELP si_c Counts things." in lines
        assert "# TYPE si_c counter" in lines
        assert 'si_c_total{op="hit"} 2' in lines
        assert "# TYPE si_g gauge" in lines
        assert "si_g 1.5" in lines
        assert text.endswith("\n")

    def test_label_values_escaped(self, registry):
        registry.counter("si_c_total", "", ("p",)).inc(
            1, p='a"b\\c\nd')
        text = registry.render_prometheus()
        assert 'si_c_total{p="a\\"b\\\\c\\nd"} 1' in text

    def test_render_is_deterministic(self):
        """Identical state renders identical bytes whatever the
        registration order — the /metrics contract."""
        one, two = MetricsRegistry(), MetricsRegistry()
        for registry, order in ((one, ("si_a", "si_b")),
                                (two, ("si_b", "si_a"))):
            for name in order:
                registry.counter(name + "_total", "h").inc(4)
        assert one.render_prometheus() == two.render_prometheus()


class TestDefaultRegistry:
    def test_use_registry_swaps_and_restores(self):
        before = default_registry()
        with use_registry() as fresh:
            assert default_registry() is fresh
            assert fresh is not before
        assert default_registry() is before

    def test_use_registry_accepts_explicit(self):
        mine = MetricsRegistry()
        with use_registry(mine):
            default_registry().counter("si_t_total").inc()
        assert mine.counter("si_t_total").total() == 1


class TestThreadSafety:
    def test_concurrent_updates_are_exact(self, registry):
        counter = registry.counter("si_c_total", "", ("op",))
        hist = registry.histogram("si_h")
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            for _ in range(500):
                counter.inc(op="hit")
                hist.observe(0.01)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value(op="hit") == 4000
        assert hist.count() == 4000
