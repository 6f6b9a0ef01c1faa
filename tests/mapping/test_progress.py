"""Unit tests for the Property 3.1 / 3.2 progress filters."""

import pytest

from repro.boolean.divisors import algebraic_division
from repro.boolean.sop import SopCover
from repro.mapping.partition import IPartition, compute_insertion_sets
from repro.mapping.progress import (ProgressEvent, _extended_quiescent,
                                    check_property_31, check_property_32,
                                    emit_progress, estimate_global_impact,
                                    progress_hook)
from repro.sg.regions import excitation_regions, quiescent_region
from repro.synthesis.cover import synthesize_all


def cover(text):
    return SopCover.from_string(text)


class TestProperty31:
    def test_clean_substitution_passes(self, celement_sg):
        # Decompose c+'s cover (a b) by f = a b itself is excluded in
        # practice; use f = a with quotient b.
        regions = excitation_regions(celement_sg, "c+")
        target = cover("a b")
        function = cover("a")
        quotient, remainder = algebraic_division(target, function)
        partition = compute_insertion_sets(celement_sg, function)
        result = check_property_31(celement_sg, regions[0], regions,
                                   target, function, quotient,
                                   remainder, partition)
        assert result.holds, result.reasons

    def test_result_is_truthy_protocol(self, celement_sg):
        regions = excitation_regions(celement_sg, "c+")
        function = cover("a")
        quotient, remainder = algebraic_division(cover("a b"), function)
        partition = compute_insertion_sets(celement_sg, function)
        result = check_property_31(celement_sg, regions[0], regions,
                                   cover("a b"), function, quotient,
                                   remainder, partition)
        assert bool(result) == result.holds


class TestExtendedQuiescent:
    """QR′ must absorb the signal's *following* ER when x- fires on
    its doorstep or inside it — the documented Property-3.1 extension
    whose implementation used to be dead code (regression: the loop
    over quiescent-state successors could never fire, because the
    stable closure excludes signal-excited states by construction)."""

    def _partition(self, sg, er_minus):
        """A hand-crafted I-partition: only ``er_minus`` matters to
        the extension; the remaining blocks just tile the graph."""
        return IPartition(function=SopCover.from_string("a b"),
                          er_plus=0, er_minus=er_minus, s1=0,
                          s0=sg.encoding().full_mask & ~er_minus)

    def test_grows_when_x_minus_fires_inside_the_next_er(
            self, celement_sg):
        """ER(x-) inside ER(c-): the falling edge of x happens inside
        the next excitation of c, so QR(c+)′ must include ER(c-)."""
        regions = excitation_regions(celement_sg, "c+")
        next_er = excitation_regions(celement_sg, "c-")[0]
        quiescent = quiescent_region(celement_sg, regions[0], regions)
        partition = self._partition(celement_sg, next_er.bits)
        # the scenario the old code missed: no quiescent state is in
        # ER(x-) — x- fires inside the following ER itself
        assert not quiescent & partition.er_minus
        extended = _extended_quiescent(celement_sg, regions[0],
                                       regions, partition)
        # the region actually grew
        assert extended & quiescent == quiescent and extended != quiescent
        assert extended & next_er.bits == next_er.bits

    def test_grows_when_x_minus_pends_on_the_doorstep(self,
                                                      celement_sg):
        """ER(x-) at a quiescent entry state of ER(c-): the pre-fix
        doorstep clause already handled this; it must keep working."""
        regions = excitation_regions(celement_sg, "c+")
        next_er = excitation_regions(celement_sg, "c-")[0]
        quiescent = quiescent_region(celement_sg, regions[0], regions)
        index = celement_sg.encoding().index
        doorstep = sum(1 << index[source] for source in {
            source for s in next_er.states
            for _, source in celement_sg.predecessors(s)})
        entry = doorstep & quiescent
        assert entry                          # sanity: ER(c-) follows QR
        partition = self._partition(celement_sg, entry)
        extended = _extended_quiescent(celement_sg, regions[0],
                                       regions, partition)
        assert extended & next_er.bits == next_er.bits

    def test_no_growth_without_x_minus_nearby(self, celement_sg):
        """With ER(x-) far from the following ER the extension must
        stay exactly the restricted quiescent region."""
        regions = excitation_regions(celement_sg, "c+")
        quiescent = quiescent_region(celement_sg, regions[0], regions)
        er_plus_region = excitation_regions(celement_sg, "c+")[0]
        partition = self._partition(celement_sg, er_plus_region.bits)
        extended = _extended_quiescent(celement_sg, regions[0],
                                       regions, partition)
        assert extended == quiescent


class TestProperty32:
    def test_untouched_region_is_bounded(self, celement_sg):
        # Insert x = a b: does c-'s cover stay bounded?  x's regions
        # live in the rising phase, away from SR(c-).
        partition = compute_insertion_sets(celement_sg, cover("a b"))
        regions = excitation_regions(celement_sg, "c-")
        impl = synthesize_all(celement_sg)["c"]
        reset_cover = impl.reset_covers[0].cover
        result = check_property_32(celement_sg, regions[0], regions,
                                   reset_cover, partition)
        assert result.event == "c-"
        # Either x never triggers c- or the growth is bounded.
        assert result.bounded or result.becomes_trigger

    def test_trigger_detection_on_own_region(self, celement_sg):
        partition = compute_insertion_sets(celement_sg, cover("a b"))
        regions = excitation_regions(celement_sg, "c+")
        impl = synthesize_all(celement_sg)["c"]
        set_cover = impl.set_covers[0].cover
        result = check_property_32(celement_sg, regions[0], regions,
                                   set_cover, partition)
        # ER(x+) overlaps ER(c+) (both fire when a=b=1), so x+ becomes
        # a trigger for c+.
        assert result.becomes_trigger


class TestProgressHooks:
    def test_no_observer_is_a_noop(self):
        emit_progress("reach", "start")  # must not raise

    def test_hook_sees_events_in_order(self):
        seen = []
        with progress_hook(seen.append):
            emit_progress("reach", "start")
            emit_progress("reach", "done", seconds=0.25)
        emit_progress("map", "start")    # after the scope: unobserved
        assert [(e.stage, e.status) for e in seen] == [
            ("reach", "start"), ("reach", "done")]
        assert seen[1].seconds == 0.25

    def test_hooks_nest_and_unwind(self):
        outer, inner = [], []
        with progress_hook(outer.append):
            with progress_hook(inner.append):
                emit_progress("csc")
            emit_progress("map")
        assert [e.stage for e in outer] == ["csc", "map"]
        assert [e.stage for e in inner] == ["csc"]

    def test_broken_observer_does_not_kill_the_run(self):
        seen = []

        def bomb(event):
            raise RuntimeError("observer crashed")

        with progress_hook(seen.append):
            with progress_hook(bomb):
                emit_progress("verify", "done")
        assert [e.stage for e in seen] == ["verify"]

    def test_hooks_are_thread_local(self):
        import threading
        seen = []
        with progress_hook(seen.append):
            worker = threading.Thread(
                target=lambda: emit_progress("synthesize"))
            worker.start()
            worker.join()
        assert seen == []                 # other thread, other stack

    def test_event_json_shape(self):
        event = ProgressEvent("map", "done", seconds=0.5)
        assert event.to_json() == {"stage": "map", "status": "done",
                                   "seconds": 0.5}
        assert ProgressEvent("load").to_json() == {"stage": "load",
                                                   "status": "note"}

    def test_pipeline_emits_stage_events(self):
        from repro.pipeline.run import Pipeline, PipelineConfig
        events = []
        pipeline = Pipeline(PipelineConfig(libraries=(2,),
                                           with_siegel=False,
                                           keep_artifacts=False))
        with progress_hook(events.append):
            record = pipeline.run("half")
        assert record.row is not None
        stages = [e.stage for e in events if e.status == "start"]
        assert stages == ["load", "reach", "synthesize", "map",
                          "report"]
        done = {e.stage: e.seconds for e in events
                if e.status == "done"}
        assert set(done) == set(stages)
        assert all(s is not None and s >= 0 for s in done.values())


class TestGlobalImpact:
    def test_estimate_counts(self, celement_sg):
        partition = compute_insertion_sets(celement_sg, cover("a b"))
        units = {}
        for event in ("c+", "c-"):
            regions = excitation_regions(celement_sg, event)
            impl = synthesize_all(celement_sg)["c"]
            rc = impl.cover_of_event(event)[0]
            units[(event, 1)] = (regions[0], rc.cover)
        bounded, unbounded = estimate_global_impact(
            celement_sg, units, partition, ("c+", 1))
        assert bounded + unbounded == 1  # only c- is "other"
