"""Unit tests for :mod:`repro.stg.petri`."""

import pickle

import pytest

from repro.errors import PetriNetError
from repro.stg.petri import Marking, PetriNet


@pytest.fixture
def handshake():
    """A two-transition cycle: p0 -> t1 -> p1 -> t2 -> p0."""
    net = PetriNet("handshake")
    net.add_place("p0", marked=True)
    net.add_place("p1")
    net.add_transition("t1")
    net.add_transition("t2")
    net.add_arc("p0", "t1")
    net.add_arc("t1", "p1")
    net.add_arc("p1", "t2")
    net.add_arc("t2", "p0")
    return net


class TestStructure:
    def test_places_and_transitions_sorted(self, handshake):
        assert handshake.places == ("p0", "p1")
        assert handshake.transitions == ("t1", "t2")

    def test_name_collision_rejected(self):
        net = PetriNet()
        net.add_place("n")
        with pytest.raises(PetriNetError):
            net.add_transition("n")

    def test_arc_requires_existing_nodes(self):
        net = PetriNet()
        net.add_place("p")
        with pytest.raises(PetriNetError):
            net.add_arc("p", "missing")

    def test_arc_must_be_bipartite(self):
        net = PetriNet()
        net.add_place("p")
        net.add_place("q")
        with pytest.raises(PetriNetError):
            net.add_arc("p", "q")

    def test_presets_postsets(self, handshake):
        assert handshake.preset("t1") == frozenset({"p0"})
        assert handshake.postset("t1") == frozenset({"p1"})
        assert handshake.place_preset("p1") == frozenset({"t1"})
        assert handshake.place_postset("p1") == frozenset({"t2"})

    def test_unknown_transition_raises(self, handshake):
        with pytest.raises(PetriNetError):
            handshake.preset("zz")

    def test_choice_and_merge_places(self):
        net = PetriNet()
        net.add_place("p")
        net.add_transition("t1")
        net.add_transition("t2")
        net.add_arc("p", "t1")
        net.add_arc("p", "t2")
        assert net.is_choice_place("p")
        net2 = PetriNet()
        net2.add_place("q")
        net2.add_transition("u1")
        net2.add_transition("u2")
        net2.add_arc("u1", "q")
        net2.add_arc("u2", "q")
        assert net2.is_merge_place("q")


class TestFiring:
    def test_initial_marking(self, handshake):
        assert handshake.initial_marking == frozenset({"p0"})

    def test_marking_validation(self, handshake):
        with pytest.raises(PetriNetError):
            handshake.set_initial_marking(["nope"])

    def test_enabled(self, handshake):
        assert handshake.enabled(frozenset({"p0"})) == ["t1"]

    def test_fire(self, handshake):
        after = handshake.fire("t1", frozenset({"p0"}))
        assert after == frozenset({"p1"})

    def test_markings_pickle_their_places_sorted(self, handshake):
        after = handshake.fire("t1", handshake.initial_marking)
        assert isinstance(after, Marking)
        marking = Marking({"q", "p", "r"})
        assert marking == frozenset({"p", "q", "r"})
        assert hash(marking) == hash(frozenset({"p", "q", "r"}))
        restored = pickle.loads(pickle.dumps(marking))
        assert isinstance(restored, Marking) and restored == marking
        assert pickle.dumps(marking) == pickle.dumps(
            Marking(["p", "q", "r"]))
        assert marking.__reduce__() == (Marking, (["p", "q", "r"],))

    def test_fire_disabled_raises(self, handshake):
        with pytest.raises(PetriNetError):
            handshake.fire("t2", frozenset({"p0"}))

    def test_one_safety_enforced(self):
        net = PetriNet()
        net.add_place("p", marked=True)
        net.add_place("q", marked=True)
        net.add_transition("t")
        net.add_arc("p", "t")
        net.add_arc("t", "q")  # q already marked -> unsafe
        with pytest.raises(PetriNetError):
            net.fire("t", net.initial_marking)

    def test_concurrent_transitions(self):
        net = PetriNet()
        for p in ("p1", "p2"):
            net.add_place(p, marked=True)
        for t in ("t1", "t2"):
            net.add_transition(t)
        net.add_place("q1")
        net.add_place("q2")
        net.add_arc("p1", "t1")
        net.add_arc("t1", "q1")
        net.add_arc("p2", "t2")
        net.add_arc("t2", "q2")
        marking = net.initial_marking
        assert net.enabled(marking) == ["t1", "t2"]
        after1 = net.fire("t1", marking)
        assert net.is_enabled("t2", after1)


class TestCopy:
    def test_copy_independent(self, handshake):
        clone = handshake.copy()
        clone.add_transition("t3")
        assert "t3" not in handshake.transitions
        assert clone.initial_marking == handshake.initial_marking
