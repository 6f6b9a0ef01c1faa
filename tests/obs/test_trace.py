"""The span tracer: nesting, stage spans beside the stage events,
stat deltas, Chrome export, the trace-file loader, and the Table-1
byte-identity guarantee with tracing on."""

import json
import threading

import pytest

from repro.dist.jobs import canonical_row_bytes
from repro.errors import ReproError
from repro.obs import metrics
from repro.obs.metrics import use_registry
from repro.obs.trace import (Tracer, current_tracer, format_summary,
                             format_tree, load_trace, summarize_trace,
                             trace_span, write_chrome_trace)
from repro.pipeline import Pipeline, PipelineConfig


def span_by_name(tracer, name):
    (found,) = [span for span in tracer.snapshot()
                if span.name == name]
    return found


class TestSpans:
    def test_nesting_and_parentage(self):
        tracer = Tracer()
        with tracer.span("outer", "stage"):
            with tracer.span("inner", "map"):
                pass
        outer = span_by_name(tracer, "outer")
        inner = span_by_name(tracer, "inner")
        assert inner.parent_id == outer.span_id
        assert (outer.depth, inner.depth) == (0, 1)
        assert outer.duration >= inner.duration >= 0
        assert inner.start >= outer.start

    def test_enter_returns_mutable_args(self):
        tracer = Tracer()
        with tracer.span("x", "map", target="csig") as args:
            args["outcome"] = "accepted"
        span = span_by_name(tracer, "x")
        assert span.args == {"target": "csig", "outcome": "accepted"}

    def test_raising_spans_close_their_own_records(self):
        """An exception leaves through every ``with``: each span ends
        with a duration, the thread's stack and counter journals are
        empty again, and the next span is a fresh root whose stats
        are its own."""
        with use_registry() as registry:
            counter = registry.counter("si_t_total")
            tracer = Tracer()
            with pytest.raises(RuntimeError):
                with tracer.span("outer", "stage"):
                    counter.inc()
                    with tracer.span("inner", "circuit"):
                        counter.inc(2)
                        raise RuntimeError("stage failed")
            with tracer.span("after", "stage"):
                counter.inc(4)
        outer = span_by_name(tracer, "outer")
        inner = span_by_name(tracer, "inner")
        after = span_by_name(tracer, "after")
        assert inner.parent_id == outer.span_id
        assert outer.duration >= inner.duration >= 0
        assert (outer.args["stats"], inner.args["stats"]) == (
            {"si_t_total": 3}, {"si_t_total": 2})
        assert after.parent_id is None and after.depth == 0
        assert after.args["stats"] == {"si_t_total": 4}
        assert tracer._stack() == []
        assert metrics._journals.stack == []

    def test_cpu_time_recorded(self):
        tracer = Tracer()
        with tracer.span("busy"):
            sum(range(10000))
        assert span_by_name(tracer, "busy").cpu >= 0


class TestCurrentTracer:
    def test_trace_span_without_tracer_is_shared_noop(self):
        assert current_tracer() is None
        handle = trace_span("anything", "map")
        assert handle is trace_span("other")     # one shared object
        with handle as args:
            assert args is None                  # callers must tolerate

    def test_activate_installs_and_restores(self):
        tracer = Tracer()
        with tracer.activate():
            assert current_tracer() is tracer
            with trace_span("seen", "map"):
                pass
        assert current_tracer() is None
        assert span_by_name(tracer, "seen").name == "seen"


class TestProgressBridge:
    """Stage progress and the trace agree: each ``done`` event the
    pipeline's ``on_stage`` callback hears has its own closed
    ``stage:<name>`` span, timed inside the reported seconds."""

    def test_stage_events_become_spans(self):
        events = []
        tracer = Tracer()
        with use_registry():
            with tracer.activate():
                Pipeline(PipelineConfig(libraries=(2,),
                                        with_siegel=False,
                                        keep_artifacts=False),
                         on_stage=events.append).run("half")
        done = [e for e in events if e["status"] == "done"]
        spans = [span for span in tracer.snapshot()
                 if span.category == "stage"]
        assert [span.name for span in spans] == [
            f"stage:{e['stage']}" for e in done]
        for span, event in zip(spans, done):
            assert span.parent_id is None
            assert 0 <= span.duration <= event["seconds"] + 1e-6
            assert "reported_seconds" not in span.args


class TestStatDeltas:
    def test_delta_category_attaches_counter_diffs(self):
        with use_registry() as registry:
            tracer = Tracer()
            with tracer.span("work", "stage"):
                registry.counter("si_t_total", "", ("op",)).inc(
                    3, op="hit")
        span = span_by_name(tracer, "work")
        assert span.args["stats"] == {'si_t_total{op="hit"}': 3}
        assert not any(key.startswith("_") for key in span.args)

    def test_zero_increments_are_left_out(self):
        with use_registry() as registry:
            tracer = Tracer()
            with tracer.span("work", "stage"):
                registry.counter("si_t_total").inc(0)
        assert "stats" not in span_by_name(tracer, "work").args

    def test_non_delta_category_attaches_nothing(self):
        with use_registry() as registry:
            tracer = Tracer()
            with tracer.span("work", "map"):
                registry.counter("si_t_total").inc()
        assert "stats" not in span_by_name(tracer, "work").args


class TestChromeExport:
    def test_event_shape(self):
        tracer = Tracer()
        with tracer.span("outer", "stage", detail="d"):
            with tracer.span("inner"):
                pass
        document = tracer.chrome_trace()
        assert document["displayTimeUnit"] == "ms"
        meta = [e for e in document["traceEvents"] if e["ph"] == "M"]
        assert meta and meta[0]["name"] == "thread_name"
        complete = {e["name"]: e for e in document["traceEvents"]
                    if e["ph"] == "X"}
        outer, inner = complete["outer"], complete["inner"]
        assert outer["cat"] == "stage"
        assert outer["dur"] >= inner["dur"] >= 0
        assert inner["args"]["parent_id"] == outer["args"]["span_id"]
        assert not any(key.startswith("_")
                       for key in outer["args"])

    def test_write_load_roundtrip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a", "stage"):
            with tracer.span("b", "map"):
                pass
        path = str(tmp_path / "run.trace.json")
        assert write_chrome_trace(path, tracer) == 2
        events = load_trace(path)
        assert [e["name"] for e in events] == ["a", "b"]
        assert all(e["ph"] == "X" for e in events)

    def test_written_file_is_the_tracer_document(self, tmp_path):
        """``--trace`` files are ``Tracer.chrome_trace()`` dumped with
        one-space indent and a final newline, thread names included."""
        tracer = Tracer()
        with tracer.span("main", "stage"):
            pass

        def traced():
            with tracer.span("job", "job"):
                pass

        worker = threading.Thread(target=traced, name="worker-1")
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        path = tmp_path / "run.trace.json"
        assert write_chrome_trace(str(path), tracer) == 2
        document = tracer.chrome_trace()
        assert path.read_text(encoding="utf-8") \
            == json.dumps(document, indent=1) + "\n"
        names = {e["args"]["name"] for e in document["traceEvents"]
                 if e["ph"] == "M"}
        assert "worker-1" in names

    def test_load_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(ReproError):
            load_trace(str(bad))
        bad.write_text('"a bare string"')
        with pytest.raises(ReproError):
            load_trace(str(bad))

    def test_summarize_and_format(self):
        events = [
            {"name": "x", "ph": "X", "ts": 0, "dur": 2000, "tid": 1,
             "args": {"span_id": 1}},
            {"name": "x", "ph": "X", "ts": 3000, "dur": 4000, "tid": 1,
             "args": {"span_id": 2}},
            {"name": "y", "ph": "X", "ts": 0, "dur": 1000, "tid": 1,
             "args": {"span_id": 3}},
        ]
        rows = summarize_trace(events)
        assert rows[0] == {"name": "x", "count": 2, "total_ms": 6.0,
                           "mean_ms": 3.0, "max_ms": 4.0}
        text = format_summary(rows, top=1)
        assert "x" in text and "1 more span names" in text

    def test_format_tree_indents_children(self):
        events = [
            {"name": "parent", "ph": "X", "ts": 0, "dur": 5000,
             "tid": 1, "args": {"span_id": 1}},
            {"name": "child", "ph": "X", "ts": 1000, "dur": 1000,
             "tid": 1, "args": {"span_id": 2, "parent_id": 1}},
        ]
        lines = format_tree(events).splitlines()
        assert lines[0] == "thread 1:"
        assert lines[1].startswith("  parent")
        assert lines[2].startswith("    child")


class TestPipelineUnderTracer:
    CONFIG = dict(libraries=(2,), with_siegel=False,
                  keep_artifacts=False)

    def test_stage_spans_cover_the_run(self):
        with use_registry():
            tracer = Tracer()
            with tracer.activate():
                Pipeline(PipelineConfig(**self.CONFIG)).run("half")
        names = [span.name for span in tracer.snapshot()]
        for stage in ("load", "reach", "synthesize", "map", "report"):
            assert f"stage:{stage}" in names

    def test_row_bytes_identical_with_tracing_on(self):
        """--trace must be pure observation: the Table-1 row bytes
        with a tracer active equal the untraced run's bytes."""
        with use_registry():
            plain = Pipeline(PipelineConfig(**self.CONFIG)).run("half")
        with use_registry():
            tracer = Tracer()
            with tracer.activate():
                traced = Pipeline(
                    PipelineConfig(**self.CONFIG)).run("half")
        assert canonical_row_bytes(plain.row) \
            == canonical_row_bytes(traced.row)


class TestJsonExportIsSerializable:
    def test_span_to_json_roundtrips(self):
        with use_registry() as registry:
            tracer = Tracer()
            with tracer.span("j", "job", id="abc"):
                registry.counter("si_t_total").inc()
        payloads = [span.to_json() for span in tracer.snapshot()]
        assert json.loads(json.dumps(payloads)) == payloads
