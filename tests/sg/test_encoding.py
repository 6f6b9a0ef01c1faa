"""Unit tests for :mod:`repro.sg.encoding`."""

import pytest

from repro._util import FrozenVector
from repro.errors import CscViolation
from repro.sg.encoding import next_state_ints, next_value
from repro.sg.graph import StateGraph


def vec(**kwargs):
    return FrozenVector(kwargs)


class TestNextValue:
    def test_stable_states(self, celement_sg):
        for state in celement_sg.states:
            code = celement_sg.code(state)
            implied = next_value(celement_sg, state, "c")
            if celement_sg.is_excited(state, "c"):
                assert implied == 1 - code["c"]
            else:
                assert implied == code["c"]

    def test_next_state_ints_partition(self, celement_sg):
        on, off = next_state_ints(celement_sg, "c", celement_sg.signals)
        assert not (set(on) & set(off))
        assert len(on) + len(off) == len(
            {celement_sg.code(s) for s in celement_sg.states})

    def test_csc_violation_detected(self):
        sg = StateGraph("bad", [], ["a", "b"])
        sg.add_state(0, vec(a=0, b=0))
        sg.add_state(1, vec(a=1, b=0))
        sg.add_state(2, vec(a=0, b=0))  # same code, different future
        sg.add_state(3, vec(a=0, b=1))
        sg.add_arc(0, "a+", 1)
        sg.add_arc(1, "a-", 2)
        sg.add_arc(2, "b+", 3)
        sg.add_arc(3, "b-", 0)
        sg.set_initial(0)
        # state 0 implies a rises (next=1); state 2 implies a stays 0.
        with pytest.raises(CscViolation):
            next_state_ints(sg, "a", sg.signals)


class TestCodeGroups:
    def test_shared_codes_in_first_occurrence_order(self):
        sg = StateGraph("groups", [], ["a", "b"])
        for state, code in enumerate([vec(a=0, b=0), vec(a=1, b=0),
                                      vec(a=0, b=0), vec(a=0, b=1),
                                      vec(a=1, b=0), vec(a=0, b=0)]):
            sg.add_state(state, code)
        sg.add_arc(0, "a+", 1)
        sg.set_initial(0)
        enc = sg.encoding()
        # state 3's code is its own: only shared codes form a group
        assert enc.code_groups() == [[0, 2, 5], [1, 4]]
        assert enc.code_groups() is enc.code_groups()
        bit, _ = enc.event_masks()
        assert enc.signal_events_mask({"a"}) == bit["a+"]
        assert enc.signal_events_mask({"b"}) == 0
