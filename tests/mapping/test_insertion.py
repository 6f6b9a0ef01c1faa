"""Unit tests for SG event insertion (state splitting)."""

import pytest

from repro.boolean.sop import SopCover
from repro.errors import InsertionError
from repro.mapping.insertion import insert_signal
from repro.mapping.partition import compute_insertion_sets
from repro.sg.properties import check_speed_independence
from repro.verify.conformance import weakly_bisimilar


def cover(text):
    return SopCover.from_string(text)


@pytest.fixture
def inserted(celement_sg):
    partition = compute_insertion_sets(celement_sg, cover("a b"))
    new_sg = insert_signal(celement_sg, partition, "x").sg
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

    def test_accepted_trial_skips_the_csc_check(self, celement_sg,
                                                monkeypatch):
        """A CSC-solver trial (require_csc=False) that is accepted
        never computes CSC violations: nothing would read them."""
        import repro.mapping.insertion
        import repro.sg.properties
        from repro.sg.properties import csc_violations
        calls = []

        def counted(sg):
            calls.append(sg)
            return csc_violations(sg)
        # both the name insert_signal resolves and the one the
        # property suite resolves
        monkeypatch.setattr(repro.mapping.insertion, "csc_violations",
                            counted)
        monkeypatch.setattr(repro.sg.properties, "csc_violations",
                            counted)
        partition = compute_insertion_sets(celement_sg, cover("a b"))
        insert_signal(celement_sg, partition, "x", require_csc=False)
        assert calls == []
        insert_signal(celement_sg, partition, "x", require_csc=True)
        assert len(calls) == 1


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
