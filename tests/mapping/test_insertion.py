"""Unit tests for SG event insertion (state splitting)."""

from unittest import mock

import pytest

import repro.mapping.insertion as insertion
from repro._util import FrozenVector
from repro.boolean.sop import SopCover
from repro.errors import InsertionError, SpeedIndependenceError
from repro.mapping.csc import csc_conflicts
from repro.mapping.insertion import (fresh_name, insert_signal,
                                     plan_insertion, verify_insertion)
from repro.mapping.partition import (IPartition, compute_insertion_sets,
                                     compute_insertion_sets_from_states)
from repro.sg.graph import StateGraph
from repro.sg.properties import check_speed_independence, csc_violations
from repro.sg.reachability import state_graph_of
from repro.sg.regions import encoding_atoms
from repro.verify.conformance import weakly_bisimilar


def cover(text):
    return SopCover.from_string(text)


def crossing_case():
    """An output-only four-phase cycle ``a+ b+ a- b-`` and a partition
    with ``ER(x+) = {p1}`` and ``ER(x-) = {p2}``: the arc ``p1 -b+->
    p2`` crosses from ER(x+) into ER(x-) on level 0."""
    sg = StateGraph("cycle", [], ["a", "b"])
    codes = [(0, 0), (1, 0), (1, 1), (0, 1)]
    for k, (a, b) in enumerate(codes):
        sg.add_state(f"p{k}", FrozenVector({"a": a, "b": b}))
    for k, event in enumerate(["a+", "b+", "a-", "b-"]):
        sg.add_arc(f"p{k}", event, f"p{(k + 1) % 4}")
    sg.set_initial("p0")
    return sg, IPartition(SopCover.zero(), 0b0010, 0b0100, 0, 0b1001)


@pytest.fixture
def inserted(celement_sg):
    partition = compute_insertion_sets(celement_sg, cover("a b"))
    new_sg = insert_signal(celement_sg, partition, "x")
    return celement_sg, new_sg, partition


class TestStructure:
    def test_new_signal_declared(self, inserted):
        _, new_sg, _ = inserted
        assert "x" in new_sg.outputs
        assert "x" in new_sg.signals

    def test_name_collision_rejected(self, celement_sg):
        partition = compute_insertion_sets(celement_sg, cover("a b"))
        with pytest.raises(InsertionError):
            insert_signal(celement_sg, partition, "a")

    def test_fresh_name_skips_taken_names(self, celement_sg):
        partition = compute_insertion_sets(celement_sg, cover("a b"))
        new_sg = insert_signal(celement_sg, partition, "x1")
        assert fresh_name(new_sg, "x", 0) == "x0"
        assert fresh_name(new_sg, "x", 1) == "x2"

    def test_er_states_split(self, inserted):
        old_sg, new_sg, partition = inserted
        for state in old_sg.encoding().states_of(partition.er_plus):
            assert (state, 0) in new_sg
            assert (state, 1) in new_sg
            events = {e for e, _ in new_sg.successors((state, 0))}
            assert "x+" in events

    def test_codes_extended(self, inserted):
        old_sg, new_sg, _ = inserted
        for (old_state, level) in new_sg.states:
            code = new_sg.code((old_state, level))
            assert code["x"] == level
            for signal in old_sg.signals:
                assert code[signal] == old_sg.code(old_state)[signal]

    def test_x_fires_both_ways(self, inserted):
        _, new_sg, _ = inserted
        events = {e for s in new_sg.states
                  for e, _ in new_sg.successors(s)}
        assert "x+" in events and "x-" in events


class TestSemantics:
    def test_new_sg_fully_implementable(self, inserted):
        _, new_sg, _ = inserted
        report = check_speed_independence(new_sg)
        assert report.implementable, report.all_violations()[:3]

    def test_every_old_state_reachable(self, inserted):
        old_sg, new_sg, _ = inserted
        survivors = {state for (state, _) in new_sg.states}
        assert survivors == set(old_sg.states)

    def test_weak_bisimulation_with_spec(self, inserted):
        old_sg, new_sg, _ = inserted
        assert weakly_bisimilar(old_sg, new_sg, {"x"})

    def test_inputs_not_delayed(self, inserted):
        old_sg, new_sg, _ = inserted
        for (old_state, level) in new_sg.states:
            old_inputs = {e for e in old_sg.enabled(old_state)
                          if old_sg.is_input_event(e)}
            new_events = set(new_sg.enabled((old_state, level)))
            assert old_inputs <= new_events

    def test_outputs_may_be_delayed_but_fire(self, inserted):
        # c+ still fires somewhere in the new SG.
        _, new_sg, _ = inserted
        events = {e for s in new_sg.states
                  for e, _ in new_sg.successors(s)}
        assert "c+" in events and "c-" in events

    def test_no_trial_calls_csc_violations(self, celement_sg, monkeypatch):
        """Trials are decided by the plan's conflict count: neither a
        CSC-solver trial (require_csc=False) nor a mapper trial computes
        CSC violations.  Only the commit check does."""
        import repro.mapping.insertion
        import repro.sg.properties
        from repro.sg.properties import csc_violations
        calls = []

        def counted(sg):
            calls.append(sg)
            return csc_violations(sg)
        # both the name insertion resolves and the one the property
        # suite resolves
        monkeypatch.setattr(repro.mapping.insertion, "csc_violations",
                            counted)
        monkeypatch.setattr(repro.sg.properties, "csc_violations",
                            counted)
        partition = compute_insertion_sets(celement_sg, cover("a b"))
        insert_signal(celement_sg, partition, "x", require_csc=False)
        new_sg = insert_signal(celement_sg, partition, "x")
        assert calls == []
        verify_insertion(new_sg, "x")
        assert calls == [new_sg]


class TestPlan:
    def test_counts_before_building(self, celement_sg):
        partition = compute_insertion_sets(celement_sg, cover("a b"))
        plan = plan_insertion(celement_sg, partition, "x")
        new_sg = insert_signal(celement_sg, partition, "x", plan=plan)
        assert plan.copies == len(new_sg)
        assert plan.conflicts == len(csc_conflicts(new_sg)) == 0

    def test_max_states_rejects_before_building(self, celement_sg):
        partition = compute_insertion_sets(celement_sg, cover("a b"))
        plan = plan_insertion(celement_sg, partition, "x")
        with mock.patch.object(insertion, "_split_graph") as build:
            with pytest.raises(InsertionError, match="more than"):
                insert_signal(celement_sg, partition, "x",
                              max_states=plan.copies - 1, plan=plan)
        assert not build.called

    def test_crossing_names_state_and_arc(self):
        sg, partition = crossing_case()
        with pytest.raises(InsertionError) as rejection:
            plan_insertion(sg, partition, "x", require_csc=False)
        violation = ("output event x+ enabled at ('p1', 0) is disabled "
                     "by b+")
        assert str(rejection.value).endswith(
            f"{violation}, which crosses from ER(x+) into ER(x-)")
        # built anyway, the graph shows the suite the same violation,
        # and the commit check raises on it
        with mock.patch.object(insertion, "_check_crossing"):
            new_sg = insert_signal(sg, partition, "x",
                                   require_csc=False)
        assert violation in check_speed_independence(new_sg).persistency
        with pytest.raises(SpeedIndependenceError, match="disabled by b+"):
            verify_insertion(new_sg, "x", require_csc=False)

    def test_csc_rejection_names_the_conflicts(self):
        from tests.conftest import chained_sequencer_stg
        sg = state_graph_of(chained_sequencer_stg())
        conflicted = 0
        for _, block in encoding_atoms(sg):
            try:
                partition = compute_insertion_sets_from_states(sg, block)
                plan = plan_insertion(sg, partition, "x",
                                      require_csc=False)
            except InsertionError:
                continue
            if not plan.conflicts:
                continue
            conflicted += 1
            new_sg = insert_signal(sg, partition, "x", require_csc=False,
                                   plan=plan)
            with pytest.raises(InsertionError) as rejection:
                plan_insertion(sg, partition, "x")
            assert str(rejection.value) == (
                "insertion of 'x' breaks the specification: "
                + "; ".join(csc_violations(new_sg)[:3]))
        assert conflicted


class TestResynthesis:
    def test_inserted_signal_synthesizable(self, inserted):
        from repro.synthesis.cover import synthesize_all
        _, new_sg, _ = inserted
        impls = synthesize_all(new_sg)
        assert set(impls) == {"c", "x"}
        # x realizes (a b) on its rise; its complete cover should be
        # exactly the seed function here.
        x_impl = impls["x"]
        assert x_impl.max_complexity() <= 2

    def test_acknowledgment_appears(self, inserted):
        # c's new covers must mention x (x is acknowledged), otherwise
        # the insertion would be a hazard.
        from repro.synthesis.cover import synthesize_all
        _, new_sg, _ = inserted
        impls = synthesize_all(new_sg)
        supports = set()
        for rc in impls["c"].region_covers:
            supports.update(rc.cover.support)
        if impls["c"].is_combinational:
            supports.update(impls["c"].complete.support)
        assert "x" in supports
