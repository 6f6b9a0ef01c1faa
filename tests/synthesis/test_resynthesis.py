"""Synthesis from posed problems: the order the mapper poses and
solves them in gives fresh synthesis, and the no-region-cover
regression."""

from repro._util import FrozenVector
from repro.boolean.sop import SopCover
from repro.mapping.insertion import insert_signal
from repro.mapping.partition import compute_insertion_sets
from repro.sg.graph import StateGraph
from repro.synthesis.cover import (SignalImplementation, SignalProblems,
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


class TestPosedFirst:
    def test_celement_after_insertion(self, celement_sg):
        """The mapper poses every output's problems for its bound
        before it solves any: solving them then gives what fresh
        synthesis gives, and leaves the posed problems as they were
        (the monotonicity repair works on a copy of OFF)."""
        partition = compute_insertion_sets(celement_sg,
                                           SopCover.from_string("a b"))
        new_sg = insert_signal(celement_sg, partition, "x")
        full = synthesize_all(new_sg)
        assert set(full) == {"c", "x"}
        for signal in full:
            problems = SignalProblems(new_sg, signal)
            posed = [(set(p.on), set(p.off))
                     for p in problems.all_groups()]
            problems.complete()
            impl = resynthesize_signal(problems)
            assert _same_implementation(impl, full[signal]), signal
            assert posed == [(p.on, p.off) for p in problems.all_groups()]


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
