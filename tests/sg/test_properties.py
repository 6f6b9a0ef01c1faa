"""Unit tests for the SG property suite."""

import pytest

from repro._util import FrozenVector
from repro.errors import CscViolation, SpeedIndependenceError
from repro.sg.graph import StateGraph
from repro.sg.properties import (assert_implementable,
                                 check_speed_independence,
                                 commutativity_violations,
                                 consistency_violations, csc_violations,
                                 determinism_violations,
                                 persistency_violations)


def vec(**kwargs):
    return FrozenVector(kwargs)


def chain_sg():
    """a+ then b+ then a- then b-, cyclic; all outputs."""
    sg = StateGraph("chain", [], ["a", "b"])
    codes = [vec(a=0, b=0), vec(a=1, b=0), vec(a=1, b=1), vec(a=0, b=1)]
    for i, code in enumerate(codes):
        sg.add_state(i, code)
    sg.add_arc(0, "a+", 1)
    sg.add_arc(1, "b+", 2)
    sg.add_arc(2, "a-", 3)
    sg.add_arc(3, "b-", 0)
    sg.set_initial(0)
    return sg


def wrong_direction_sg():
    """a+ fires from an a=1 state: two consistency violations."""
    sg = StateGraph("bad", [], ["a"])
    sg.add_state(0, vec(a=1))
    sg.add_state(1, vec(a=0))
    sg.add_arc(0, "a+", 1)
    sg.set_initial(0)
    return sg


def other_signal_changed_sg():
    sg = StateGraph("bad", [], ["a", "b"])
    sg.add_state(0, vec(a=0, b=0))
    sg.add_state(1, vec(a=1, b=1))
    sg.add_arc(0, "a+", 1)
    sg.set_initial(0)
    return sg


def duplicate_label_sg():
    sg = StateGraph("bad", [], ["a", "b"])
    sg.add_state(0, vec(a=0, b=0))
    sg.add_state(1, vec(a=1, b=0))
    sg.add_state(2, vec(a=1, b=0))
    sg.add_arc(0, "a+", 1)
    sg.add_arc(0, "a+", 2)
    sg.set_initial(0)
    return sg


def diverging_diamond_sg():
    sg = StateGraph("bad", [], ["a", "b", "c"])
    sg.add_state(0, vec(a=0, b=0, c=0))
    sg.add_state(1, vec(a=1, b=0, c=0))
    sg.add_state(2, vec(a=0, b=1, c=0))
    sg.add_state(3, vec(a=1, b=1, c=0))
    sg.add_state(4, vec(a=1, b=1, c=1))
    # complete the second leg differently: a+;b+ -> 3 but b+;a+ -> 4
    sg.add_arc(0, "a+", 1)
    sg.add_arc(0, "b+", 2)
    sg.add_arc(1, "b+", 3)
    sg.add_arc(2, "a+", 4)  # wrong target (also inconsistent code)
    sg.set_initial(0)
    return sg


def one_leg_sg():
    sg = StateGraph("half", [], ["a", "b"])
    sg.add_state(0, vec(a=0, b=0))
    sg.add_state(1, vec(a=1, b=0))
    sg.add_state(2, vec(a=0, b=1))
    sg.add_arc(0, "a+", 1)
    sg.add_arc(0, "b+", 2)
    sg.set_initial(0)
    return sg


def disabling_sg(disabled_signal_is_input):
    inputs = ["a"] if disabled_signal_is_input else []
    outputs = ["b"] + ([] if disabled_signal_is_input else ["a"])
    sg = StateGraph("bad", inputs, outputs)
    sg.add_state(0, vec(a=0, b=0))
    sg.add_state(1, vec(a=0, b=1))
    sg.add_state(3, vec(a=1, b=0))
    sg.add_state(4, vec(a=1, b=1))
    # a+ enabled at 0; firing b+ leads to 1 where a+ is gone —
    # the only non-persistency.  b+ survives a+ (0→3→4).
    sg.add_arc(0, "b+", 1)
    sg.add_arc(0, "a+", 3)
    sg.add_arc(3, "b+", 4)
    sg.add_arc(4, "a-", 1)
    sg.add_arc(1, "b-", 0)
    sg.set_initial(0)
    return sg


def csc_conflict_sg():
    sg = StateGraph("bad", [], ["a", "b"])
    sg.add_state(0, vec(a=0, b=0))
    sg.add_state(1, vec(a=1, b=0))
    sg.add_state(2, vec(a=0, b=0))  # same code as 0
    sg.add_state(3, vec(a=0, b=1))
    sg.add_arc(0, "a+", 1)
    sg.add_arc(1, "a-", 2)
    sg.add_arc(2, "b+", 3)
    sg.add_arc(3, "b-", 0)
    sg.set_initial(0)
    return sg


#: every violating graph above (the packed-vs-reference suite in
#: test_properties_hypothesis.py runs on all of them)
VIOLATING = (wrong_direction_sg, other_signal_changed_sg,
             duplicate_label_sg, diverging_diamond_sg, one_leg_sg,
             lambda: disabling_sg(False), lambda: disabling_sg(True),
             csc_conflict_sg)


class TestCleanGraph:
    def test_all_checks_pass(self, celement_sg):
        report = check_speed_independence(celement_sg)
        assert report.implementable
        assert report.speed_independent
        assert not report.all_violations()
        assert bool(report)

    def test_chain_passes(self):
        report = check_speed_independence(chain_sg())
        assert report.implementable

    def test_assert_implementable_silent(self, celement_sg):
        assert_implementable(celement_sg)


class TestConsistency:
    def test_wrong_direction_detected(self):
        problems = consistency_violations(wrong_direction_sg())
        assert len(problems) >= 1

    def test_other_signal_changed_detected(self):
        assert any("also changes" in p
                   for p in consistency_violations(
                       other_signal_changed_sg()))


class TestDeterminism:
    def test_duplicate_label_detected(self):
        assert determinism_violations(duplicate_label_sg())


class TestCommutativity:
    def test_diverging_diamond_detected(self):
        assert commutativity_violations(diverging_diamond_sg())

    def test_one_leg_only_is_not_commutativity_issue(self):
        assert not commutativity_violations(one_leg_sg())


class TestPersistency:
    def test_output_disabling_detected(self):
        sg = disabling_sg(disabled_signal_is_input=False)
        assert persistency_violations(sg)

    def test_input_disabling_tolerated(self):
        sg = disabling_sg(disabled_signal_is_input=True)
        assert not persistency_violations(sg)
        assert persistency_violations(sg, include_inputs=True)


class TestCsc:
    def test_same_code_different_outputs_detected(self):
        sg = csc_conflict_sg()
        assert csc_violations(sg)
        with pytest.raises(CscViolation):
            assert_implementable(sg)

    def test_same_code_same_outputs_ok(self, two_er_sg):
        assert not csc_violations(two_er_sg)
