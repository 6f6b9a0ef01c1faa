"""Unit tests for the StateGraph data structure."""

import pytest

from repro._util import FrozenVector
from repro.errors import StgError
from repro.sg.graph import (Diamond, StateGraph, event_direction,
                            event_signal, opposite_event)


def vec(**kwargs):
    return FrozenVector(kwargs)


class TestEventHelpers:
    def test_event_signal(self):
        assert event_signal("req+") == "req"
        assert event_signal("a-") == "a"

    def test_event_direction(self):
        assert event_direction("a+") == "+"
        assert event_direction("a-") == "-"

    def test_opposite_event(self):
        assert opposite_event("a+") == "a-"
        assert opposite_event("a-") == "a+"


@pytest.fixture
def diamond_sg():
    """a+ and b+ concurrent from the initial state."""
    sg = StateGraph("diamond", ["a"], ["b"])
    sg.add_state("s0", vec(a=0, b=0))
    sg.add_state("sa", vec(a=1, b=0))
    sg.add_state("sb", vec(a=0, b=1))
    sg.add_state("st", vec(a=1, b=1))
    sg.add_arc("s0", "a+", "sa")
    sg.add_arc("s0", "b+", "sb")
    sg.add_arc("sa", "b+", "st")
    sg.add_arc("sb", "a+", "st")
    sg.set_initial("s0")
    return sg


class TestStructure:
    def test_signal_partition_disjoint(self):
        with pytest.raises(StgError):
            StateGraph("x", ["a"], ["a"])

    def test_code_must_cover_signals(self):
        sg = StateGraph("x", ["a"], ["b"])
        with pytest.raises(StgError):
            sg.add_state(0, vec(a=0))

    def test_duplicate_state_rejected(self, diamond_sg):
        with pytest.raises(StgError):
            diamond_sg.add_state("s0", vec(a=0, b=0))

    def test_arc_validation(self, diamond_sg):
        with pytest.raises(StgError):
            diamond_sg.add_arc("s0", "z+", "sa")
        with pytest.raises(StgError):
            diamond_sg.add_arc("nope", "a+", "sa")

    def test_duplicate_arc_ignored(self, diamond_sg):
        before = len(diamond_sg.successors("s0"))
        diamond_sg.add_arc("s0", "a+", "sa")
        assert len(diamond_sg.successors("s0")) == before

    def test_successor_unique(self, diamond_sg):
        assert diamond_sg.successor("s0", "a+") == "sa"
        assert diamond_sg.successor("s0", "a-") is None

    def test_enabled_sorted(self, diamond_sg):
        assert diamond_sg.enabled("s0") == ["a+", "b+"]

    def test_is_excited(self, diamond_sg):
        assert diamond_sg.is_excited("s0", "a")
        assert not diamond_sg.is_excited("st", "a")

    def test_predecessors(self, diamond_sg):
        preds = diamond_sg.predecessors("st")
        assert ("b+", "sa") in preds and ("a+", "sb") in preds


class TestAlgorithms:
    def test_diamonds_found(self, diamond_sg):
        diamonds = diamond_sg.diamonds()
        assert len(diamonds) == 1
        d = diamonds[0]
        assert d.bottom == "s0" and d.top == "st"
        assert {d.event_a, d.event_b} == {"a+", "b+"}
        assert set(d.states) == {"s0", "sa", "sb", "st"}
        assert d.path_a_first[1] in ("sa", "sb")

    def test_diamond_cache_invalidation(self, diamond_sg):
        assert len(diamond_sg.diamonds()) == 1
        diamond_sg.add_state("extra", vec(a=1, b=1))
        # adding a state alone cannot create a diamond
        assert len(diamond_sg.diamonds()) == 1

    def test_copy_equivalent(self, diamond_sg):
        clone = diamond_sg.copy()
        assert len(clone) == len(diamond_sg)
        assert clone.initial == diamond_sg.initial
        assert clone.enabled("s0") == diamond_sg.enabled("s0")

    def test_bfs_rank_deterministic_and_complete(self, diamond_sg):
        rank = diamond_sg.bfs_rank()
        assert rank[diamond_sg.states.index(diamond_sg.initial)] == 0
        assert sorted(rank) == list(range(len(diamond_sg)))
        assert diamond_sg.bfs_rank() is rank          # cached

    def test_bfs_rank_invalidated_by_mutation(self, diamond_sg):
        rank = diamond_sg.bfs_rank()
        diamond_sg.add_state("extra", vec(a=1, b=1))
        diamond_sg.add_arc("st", "a-", "extra")
        fresh = diamond_sg.bfs_rank()
        assert fresh is not rank
        assert len(fresh) == len(diamond_sg)
        assert fresh[diamond_sg.states.index("extra")] < len(diamond_sg)

    def test_bfs_rank_shared_by_copy(self, diamond_sg):
        rank = diamond_sg.bfs_rank()
        clone = diamond_sg.copy()
        assert clone.bfs_rank() is rank
        # mutating the clone detaches only the clone's cache
        clone.add_state("extra", vec(a=1, b=1))
        assert clone.bfs_rank() is not rank
        assert diamond_sg.bfs_rank() is rank

    def test_relabel_bfs_names(self, diamond_sg):
        renamed = diamond_sg.relabel()
        assert renamed.initial == "s0"
        assert len(renamed) == len(diamond_sg)
        assert renamed.enabled("s0") == ["a+", "b+"]

    def test_to_dot_contains_states(self, diamond_sg):
        dot = diamond_sg.to_dot()
        assert "digraph" in dot and "a+" in dot
