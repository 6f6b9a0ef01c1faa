"""The packed SI property suite against object-level references.

The five checks of :mod:`repro.sg.properties` run on packed codes and
per-state event masks.  The references below are the straightforward
object-level formulations — ``sg.code(...)`` and ``sg.successors(...)``
per arc, codes grouped as mappings — and the packed checks must return
*equal lists in order* on:

* random labelled graphs (:func:`graphs`: often inconsistent,
  nondeterministic or non-commutative, with input ``a``);
* random live/safe handshake STGs (clean except for CSC);
* the hand-built violating graphs of ``test_properties.py``.

The one intended difference: the reference persistency check iterates
a state's enabled events in sorted order, where an iteration over the
raw event set would follow the hash seed.
"""

from typing import Dict, FrozenSet, List, Set

import pytest
from hypothesis import given, settings

from repro.sg.graph import StateGraph, event_signal
from repro.sg.properties import (check_speed_independence,
                                 commutativity_violations,
                                 consistency_violations, csc_violations,
                                 determinism_violations,
                                 persistency_violations)
from tests.mapping.test_properties_hypothesis import handshake_sgs
from tests.sg.test_bitset_encoding_hypothesis import graphs
from tests.sg.test_properties import VIOLATING

# ----------------------------------------------------------------------
# Object-level references
# ----------------------------------------------------------------------


def ref_consistency(sg: StateGraph) -> List[str]:
    problems: List[str] = []
    for state in sg.states:
        before = sg.code(state)
        for event, target in sg.successors(state):
            after = sg.code(target)
            signal, direction = event[:-1], event[-1]
            want = 0 if direction == "+" else 1
            if before[signal] != want:
                problems.append(
                    f"{event} fires at {state!r} where {signal}={before[signal]}")
            if after[signal] != 1 - want:
                problems.append(f"{event} does not flip {signal} "
                                f"at {state!r}")
            changed = [s for s in sg.signals
                       if s != signal and before[s] != after[s]]
            if changed:
                problems.append(f"{event} at {state!r} also changes "
                                f"{changed}")
    return problems


def ref_determinism(sg: StateGraph) -> List[str]:
    problems: List[str] = []
    for state in sg.states:
        targets: Dict[str, Set] = {}
        for event, target in sg.successors(state):
            targets.setdefault(event, set()).add(target)
        for event, where in targets.items():
            if len(where) > 1:
                problems.append(
                    f"event {event} at state {state!r} leads to "
                    f"{len(where)} different states")
    return problems


def ref_commutativity(sg: StateGraph) -> List[str]:
    problems: List[str] = []
    for bottom in sg.states:
        arcs = sg.successors(bottom)
        for i, (event_a, side_a) in enumerate(arcs):
            for event_b, side_b in arcs[i + 1:]:
                if event_a == event_b:
                    continue
                tops_ab = {t for e, t in sg.successors(side_a)
                           if e == event_b}
                tops_ba = {t for e, t in sg.successors(side_b)
                           if e == event_a}
                if tops_ab and tops_ba and not (tops_ab & tops_ba):
                    problems.append(
                        f"events {event_a}/{event_b} from {bottom!r} do "
                        "not commute (the two orders reach different "
                        "states)")
    return problems


def ref_persistency(sg: StateGraph,
                    include_inputs: bool = False) -> List[str]:
    problems: List[str] = []
    enabled_map: Dict = {
        state: {event for event, _ in sg.successors(state)}
        for state in sg.states}
    for state, enabled in enabled_map.items():
        for event in sorted(enabled):
            if not include_inputs and sg.is_input_event(event):
                continue
            for other, target in sg.successors(state):
                if other == event:
                    continue
                if event not in enabled_map[target]:
                    problems.append(
                        f"output event {event} enabled at {state!r} is "
                        f"disabled by {other}")
    return problems


def states_by_code(sg: StateGraph) -> Dict[FrozenSet, List]:
    """Group the states by their binary code, keyed by the code as a
    *mapping* (frozenset of items), never an ordering of the signal
    vector."""
    by_code: Dict[FrozenSet, List] = {}
    for state in sg.states:
        by_code.setdefault(frozenset(sg.code(state).items()),
                           []).append(state)
    return by_code


def ref_csc(sg: StateGraph) -> List[str]:
    problems: List[str] = []
    outputs = set(sg.outputs)
    for code, states in states_by_code(sg).items():
        if len(states) < 2:
            continue
        reference = None
        for state in states:
            enabled_outputs = frozenset(
                e for e in sg.enabled(state)
                if event_signal(e) in outputs)
            if reference is None:
                reference = enabled_outputs
            elif enabled_outputs != reference:
                bits = "".join(str(v) for _, v in sorted(code))
                problems.append(
                    f"states sharing code {bits} enable different "
                    f"output events ({sorted(reference)} vs "
                    f"{sorted(enabled_outputs)})")
                break
    return problems


def ref_report(sg: StateGraph) -> Dict[str, List[str]]:
    """The reference counterpart of :func:`check_speed_independence`."""
    return {"consistency": ref_consistency(sg),
            "determinism": ref_determinism(sg),
            "commutativity": ref_commutativity(sg),
            "persistency": ref_persistency(sg),
            "csc": ref_csc(sg)}


# ----------------------------------------------------------------------
# Packed == reference
# ----------------------------------------------------------------------


def assert_suite_matches(sg: StateGraph) -> None:
    assert consistency_violations(sg) == ref_consistency(sg)
    assert determinism_violations(sg) == ref_determinism(sg)
    assert commutativity_violations(sg) == ref_commutativity(sg)
    for include_inputs in (False, True):
        assert persistency_violations(sg, include_inputs) \
            == ref_persistency(sg, include_inputs)
    assert csc_violations(sg) == ref_csc(sg)
    report = check_speed_independence(sg)
    assert {name: getattr(report, name) for name in ref_report(sg)} \
        == ref_report(sg)


class TestPackedSuite:
    @given(graphs())
    @settings(max_examples=300, deadline=None)
    def test_random_graphs(self, sg):
        assert_suite_matches(sg)

    @given(handshake_sgs())
    @settings(max_examples=25, deadline=None)
    def test_handshake_graphs(self, sg):
        assert_suite_matches(sg)

    @pytest.mark.parametrize("build", VIOLATING)
    def test_violating_graphs(self, build):
        assert_suite_matches(build())

    def test_reference_sees_violations(self):
        """The random family is not vacuous: it yields violations of
        every kind the suite checks."""
        kinds = set()

        @given(graphs())
        @settings(max_examples=300, deadline=None)
        def collect(sg):
            kinds.update(name for name, found in ref_report(sg).items()
                         if found)
        collect()
        assert kinds == {"consistency", "determinism", "commutativity",
                         "persistency", "csc"}
