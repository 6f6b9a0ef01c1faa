"""Unit tests for weak-bisimulation conformance checking."""

import pytest

from repro._util import FrozenVector
from repro.boolean.sop import SopCover
from repro.mapping.insertion import insert_signal
from repro.mapping.partition import compute_insertion_sets
from repro.sg.graph import StateGraph
from repro.verify.conformance import weakly_bisimilar


def vec(**kwargs):
    return FrozenVector(kwargs)


def relabel(sg: StateGraph) -> StateGraph:
    """A copy whose states are renamed ``s0, s1, ...`` in BFS order
    from the initial state."""
    order = [sg.initial]
    seen = {sg.initial}
    for state in order:  # the list grows while it is read: a BFS
        for _, target in sg.successors(state):
            if target not in seen:
                seen.add(target)
                order.append(target)
    names = {state: f"s{k}" for k, state in enumerate(order)}
    renamed = StateGraph(sg.name, sg.inputs, sg.outputs)
    for state in order:
        renamed.add_state(names[state], sg.code(state))
    for state in order:
        for event, target in sg.successors(state):
            renamed.add_arc(names[state], event, names[target])
    renamed.set_initial("s0")
    return renamed


class TestIdentity:
    def test_graph_bisimilar_to_itself(self, celement_sg):
        assert weakly_bisimilar(celement_sg, celement_sg, set())

    def test_copy_bisimilar(self, celement_sg):
        assert weakly_bisimilar(celement_sg, celement_sg.copy(), set())

    def test_relabel_bisimilar(self, celement_sg):
        assert weakly_bisimilar(celement_sg, relabel(celement_sg), set())


class TestInsertionConformance:
    def test_insertion_is_weakly_bisimilar(self, celement_sg):
        partition = compute_insertion_sets(
            celement_sg, SopCover.from_string("a b"))
        new_sg = insert_signal(celement_sg, partition, "x")
        assert weakly_bisimilar(celement_sg, new_sg, {"x"})

    def test_alphabet_mismatch_fails(self, celement_sg, two_er_sg):
        assert not weakly_bisimilar(celement_sg, two_er_sg, set())


class TestBehaviouralDifferences:
    def _cycle(self, name, events_to_codes):
        """Build a single-cycle SG from (event, post-code) pairs."""
        events, codes = zip(*events_to_codes)
        signals = sorted(codes[0].keys())
        sg = StateGraph(name, [], signals)
        previous_code = codes[-1]
        sg.add_state(0, previous_code)
        for i, code in enumerate(codes[:-1], start=1):
            sg.add_state(i, code)
        n = len(codes)
        for i in range(n):
            sg.add_arc(i % n, events[i], (i + 1) % n)
        sg.set_initial(0)
        return sg

    def test_missing_behaviour_detected(self):
        # spec: a+ b+ a- b- ; impl: a+ a- (no b at all, different
        # alphabet) — and also a same-alphabet wrong-order variant.
        spec = self._cycle("spec", [
            ("a+", vec(a=1, b=0)), ("b+", vec(a=1, b=1)),
            ("a-", vec(a=0, b=1)), ("b-", vec(a=0, b=0))])
        impl = self._cycle("impl", [
            ("b+", vec(a=0, b=1)), ("a+", vec(a=1, b=1)),
            ("b-", vec(a=1, b=0)), ("a-", vec(a=0, b=0))])
        assert not weakly_bisimilar(spec, impl, set())

    def test_tau_loop_tolerated(self):
        spec = self._cycle("spec", [
            ("a+", vec(a=1)), ("a-", vec(a=0))])
        impl = StateGraph("impl", [], ["a", "t"])
        impl.add_state(0, vec(a=0, t=0))
        impl.add_state(1, vec(a=0, t=1))
        impl.add_state(2, vec(a=1, t=1))
        impl.add_state(3, vec(a=1, t=0))
        impl.add_arc(0, "t+", 1)
        impl.add_arc(1, "a+", 2)
        impl.add_arc(2, "t-", 3)
        impl.add_arc(3, "a-", 0)
        impl.set_initial(0)
        assert weakly_bisimilar(spec, impl, {"t"})
