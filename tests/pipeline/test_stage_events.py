"""The pipeline's stage observers: the ``on_stage`` callback the job
service streams from, and the ``stage:<name>`` spans under a tracer —
on a clean run and on one whose ``reach`` stage raises."""

import pytest

from repro.errors import ConsistencyError
from repro.obs.metrics import use_registry
from repro.obs.trace import Tracer
from repro.pipeline.run import Pipeline, PipelineConfig
from tests.dist.test_jobs import BROKEN_G

CONFIG = PipelineConfig(libraries=(2,), with_siegel=False,
                        keep_artifacts=False)


def test_pipeline_emits_stage_events():
    events = []
    record = Pipeline(CONFIG, on_stage=events.append).run("half")
    assert record.row is not None
    stages = [e["stage"] for e in events if e["status"] == "start"]
    assert stages == ["load", "reach", "synthesize", "map", "report"]
    done = {e["stage"]: e["seconds"] for e in events
            if e["status"] == "done"}
    assert set(done) == set(stages)
    assert all(s >= 0 and round(s, 6) == s for s in done.values())
    # each stage's start comes right before its done: stages never
    # overlap
    assert [(e["stage"], e["status"]) for e in events] == [
        (stage, status) for stage in stages
        for status in ("start", "done")]
    assert all(set(e) == {"stage", "status"} for e in events
               if e["status"] == "start")


def test_failing_stage_is_reported_and_its_span_closed():
    """An exception in ``reach`` still ends that stage for both
    observers: the callback hears its ``done`` and the span closes
    under the enclosing ``job`` span."""
    events = []
    tracer = Tracer()
    with use_registry():
        with tracer.activate():
            with pytest.raises(ConsistencyError):
                with tracer.span("job", "job"):
                    Pipeline(CONFIG, on_stage=events.append).run(
                        ("broken", BROKEN_G))
    assert [(e["stage"], e["status"]) for e in events] == [
        ("load", "start"), ("load", "done"),
        ("reach", "start"), ("reach", "done")]
    assert events[-1]["seconds"] >= 0
    spans = {span.name: span for span in tracer.snapshot()}
    assert set(spans) == {"job", "stage:load", "stage:reach"}
    job = spans["job"]
    for stage in ("stage:load", "stage:reach"):
        assert spans[stage].parent_id == job.span_id
        assert spans[stage].duration is not None
        assert spans[stage].category == "stage"
    assert job.duration is not None
