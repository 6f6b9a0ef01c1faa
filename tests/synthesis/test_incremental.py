"""Incremental resynthesis: identity with the full pass, dirtiness
classification, and the no-region-cover regression."""

import pytest

from repro._util import FrozenVector
from repro.boolean.sop import SopCover
from repro.mapping.insertion import insert_signal
from repro.mapping.partition import compute_insertion_sets
from repro.sg.graph import StateGraph
from repro.synthesis.cover import (ResynthesisStats, SignalImplementation,
                                   resynthesize_signal, synthesize_all,
                                   synthesize_signal)


def _same_implementation(left: SignalImplementation,
                         right: SignalImplementation) -> bool:
    """Structural equality of two implementations, covers included."""
    if (left.signal != right.signal
            or left.combinational != right.combinational
            or left.complete != right.complete
            or left.complete_complement != right.complete_complement):
        return False
    for mine, theirs in ((left.set_covers, right.set_covers),
                         (left.reset_covers, right.reset_covers)):
        if len(mine) != len(theirs):
            return False
        for rc_a, rc_b in zip(mine, theirs):
            if (rc_a.cover != rc_b.cover
                    or rc_a.complement != rc_b.complement
                    or rc_a.quiescent != rc_b.quiescent
                    or [ (r.event, r.index, r.states) for r in rc_a.regions]
                    != [ (r.event, r.index, r.states) for r in rc_b.regions]):
                return False
    return True


class TestIncrementalMatchesFull:
    def test_celement_after_insertion(self, celement_sg):
        old_implementations = synthesize_all(celement_sg)
        partition = compute_insertion_sets(celement_sg,
                                           SopCover.from_string("a b"))
        inserted = insert_signal(celement_sg, partition, "x")
        full = synthesize_all(inserted.sg)
        reused = {}
        for signal in full:
            incremental, reused[signal] = resynthesize_signal(
                inserted.sg, signal, old_implementations.get(signal),
                inserted.changes)
            assert _same_implementation(incremental, full[signal]), signal
        assert not reused["x"]           # the new signal has no old covers


class TestChangeSummary:
    def test_split_states_and_levels(self, celement_sg):
        partition = compute_insertion_sets(celement_sg,
                                           SopCover.from_string("a b"))
        inserted = insert_signal(celement_sg, partition, "x")
        changes = inserted.changes
        new_states = inserted.sg.states
        assert changes.signal == "x"
        # Every split state has both copies in the new graph; every
        # unsplit state's single copy sits at its level, and the copy
        # index maps point at the (state, level) identities.
        for i, state in enumerate(celement_sg.states):
            held = [level for level in (0, 1)
                    if changes.copies[level][i] >= 0]
            for level in held:
                copy = new_states[changes.copies[level][i]]
                assert copy == (state, level)
                assert inserted.sg.code(copy)["x"] == level
            if (changes.split >> i) & 1:
                assert held == [0, 1]
            else:
                (level,) = held
                assert (changes.levels[level] >> i) & 1
                assert not (changes.levels[1 - level] >> i) & 1
        covered = changes.split | changes.levels[0] | changes.levels[1]
        assert covered == celement_sg.encoding().full_mask
        assert changes.split == partition.er_plus | partition.er_minus
        assert "split=" in repr(changes)

    def test_stats_repr(self):
        stats = ResynthesisStats(resynthesized=2, reused=3)
        assert stats.total == 5
        assert "reused=3" in repr(stats)


class TestConstantOutput:
    def _constant_output_sg(self) -> StateGraph:
        sg = StateGraph("const", inputs=["a"], outputs=["z"])
        sg.add_state("s0", FrozenVector({"a": 0, "z": 0}))
        sg.add_state("s1", FrozenVector({"a": 1, "z": 0}))
        sg.add_arc("s0", "a+", "s1")
        sg.add_arc("s1", "a-", "s0")
        sg.set_initial("s0")
        return sg

    def test_no_excitation_regions_does_not_crash(self):
        """Regression: max() over the empty region-cover sequence used
        to raise ValueError for a never-switching output."""
        sg = self._constant_output_sg()
        impl = synthesize_signal(sg, "z")
        assert impl.set_covers == [] and impl.reset_covers == []
        assert impl.complete is not None
        assert impl.is_combinational
        assert impl.max_complexity() == 0
