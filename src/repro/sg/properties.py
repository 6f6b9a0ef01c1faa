"""The speed-independence property suite for state graphs.

§2.1 of the paper requires, for implementability:

* **consistency** — checked structurally at SG construction
  (:mod:`repro.sg.reachability`) and re-checkable here;
* **speed-independence** = determinism + commutativity + output
  persistency;
* **Complete State Coding (CSC)** — equal codes ⇒ equal enabled output
  events.

Each check returns a list of human-readable violation strings;
:func:`check_speed_independence` bundles everything into a
:class:`PropertyReport`.  ``assert_*`` wrappers raise the corresponding
library exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.errors import (ConsistencyError, CscViolation,
                          SpeedIndependenceError)
from repro.sg.graph import StateGraph


def consistency_violations(sg: StateGraph) -> List[str]:
    """Arc-level consistency of the binary encoding.

    Runs on the packed codes: a consistent arc satisfies ``before ^
    after == 1 << bit(signal)`` with the right before-value, so the
    common case is one XOR and one compare per arc.
    """
    enc = sg.encoding()
    codes, bit, states = enc.codes, enc.bit, enc.states
    problems: List[str] = []
    for i, arcs in enumerate(enc.arcs):
        before = codes[i]
        for event, j in arcs:
            signal = event[:-1]
            pos = bit[signal]
            flip = 1 << pos
            want = 0 if event[-1] == "+" else flip
            diff = before ^ codes[j]
            if diff == flip and before & flip == want:
                continue
            state = states[i]
            if before & flip != want:
                problems.append(f"{event} fires at {state!r} where "
                                f"{signal}={(before >> pos) & 1}")
            if codes[j] & flip != flip ^ want:
                problems.append(f"{event} does not flip {signal} "
                                f"at {state!r}")
            if diff & ~flip:
                changed = [enc.signals[k]
                           for k in enc.iter_bits(diff & ~flip)]
                problems.append(f"{event} at {state!r} also changes "
                                f"{changed}")
    return problems


def determinism_violations(sg: StateGraph) -> List[str]:
    """No state may have two outgoing arcs with the same event label."""
    enc = sg.encoding()
    problems: List[str] = []
    for i, arcs in enumerate(enc.arcs):
        if len({event for event, _ in arcs}) == len(arcs):
            continue
        targets: Dict[str, Set[int]] = {}
        for event, j in arcs:
            targets.setdefault(event, set()).add(j)
        for event, where in targets.items():
            if len(where) > 1:
                problems.append(
                    f"event {event} at state {enc.states[i]!r} leads to "
                    f"{len(where)} different states")
    return problems


def commutativity_violations(sg: StateGraph) -> List[str]:
    """Both interleavings of two events must reach the same state.

    Only applies when both interleavings *exist*; a missing second leg
    is a persistency issue, not a commutativity one.
    """
    enc = sg.encoding()
    succ = enc.arcs
    problems: List[str] = []
    for bottom, arcs in enumerate(succ):
        for k, (event_a, side_a) in enumerate(arcs):
            for event_b, side_b in arcs[k + 1:]:
                if event_a == event_b:
                    continue
                tops_ab = {t for e, t in succ[side_a] if e == event_b}
                if not tops_ab:
                    continue
                tops_ba = {t for e, t in succ[side_b] if e == event_a}
                if tops_ba and not tops_ab & tops_ba:
                    problems.append(
                        f"events {event_a}/{event_b} from "
                        f"{enc.states[bottom]!r} do not "
                        "commute (the two orders reach different "
                        "states)")
    return problems


def persistency_violations(sg: StateGraph,
                           include_inputs: bool = False) -> List[str]:
    """Output events must stay enabled until they fire.

    For every state where event ``u`` is enabled and another event ``b``
    fires, ``u`` must still be enabled in the successor.  Input events
    are exempt unless ``include_inputs`` (inputs are controlled by the
    environment; their non-persistency is an environment choice, not a
    hazard).  Runs on per-state enabled-event masks; within one state
    the violations are listed by sorted event, then by arc.
    """
    enc = sg.encoding()
    bit, masks = enc.event_masks()
    watched = 0
    for event, mask in bit.items():
        if include_inputs or not sg.is_input_event(event):
            watched |= mask
    events = sorted(bit)
    problems: List[str] = []
    for i, arcs in enumerate(enc.arcs):
        watch = masks[i] & watched
        if not watch:
            continue
        lost = [watch & ~masks[j] & ~bit[other] for other, j in arcs]
        union = 0
        for mask in lost:
            union |= mask
        for k in enc.iter_bits(union):
            for (other, _), mask in zip(arcs, lost):
                if (mask >> k) & 1:
                    problems.append(
                        f"output event {events[k]} enabled at "
                        f"{enc.states[i]!r} is disabled by {other}")
    return problems


def csc_violations(sg: StateGraph) -> List[str]:
    """Complete State Coding: same code ⇒ same enabled output events.

    States are grouped by packed code (first occurrence order) and
    compared by their enabled-output event masks.
    """
    enc = sg.encoding()
    bit, masks = enc.event_masks()
    outputs = set(sg.outputs)
    output_mask = 0
    for event, mask in bit.items():
        if event[:-1] in outputs:
            output_mask |= mask
    by_code: Dict[int, List[int]] = {}
    for i, code in enumerate(enc.codes):
        by_code.setdefault(code, []).append(i)
    events = sorted(bit)
    width = len(enc.signals)
    problems: List[str] = []
    for code, group in by_code.items():
        if len(group) < 2:
            continue
        reference = masks[group[0]] & output_mask
        for i in group[1:]:
            enabled = masks[i] & output_mask
            if enabled != reference:
                bits = "".join(str((code >> k) & 1) for k in range(width))
                problems.append(
                    f"states sharing code {bits} enable different "
                    f"output events "
                    f"({[events[k] for k in enc.iter_bits(reference)]} vs "
                    f"{[events[k] for k in enc.iter_bits(enabled)]})")
                break
    return problems


@dataclass
class PropertyReport:
    """Outcome of the full SG property suite."""

    consistency: List[str] = field(default_factory=list)
    determinism: List[str] = field(default_factory=list)
    commutativity: List[str] = field(default_factory=list)
    persistency: List[str] = field(default_factory=list)
    csc: List[str] = field(default_factory=list)

    @property
    def speed_independent(self) -> bool:
        return not (self.determinism or self.commutativity
                    or self.persistency)

    @property
    def implementable(self) -> bool:
        return self.speed_independent and not (self.consistency
                                               or self.csc)

    def all_violations(self) -> List[str]:
        return (self.consistency + self.determinism + self.commutativity
                + self.persistency + self.csc)

    def __bool__(self) -> bool:
        return self.implementable


def check_speed_independence(sg: StateGraph) -> PropertyReport:
    """Run the complete property suite on a state graph."""
    return PropertyReport(
        consistency=consistency_violations(sg),
        determinism=determinism_violations(sg),
        commutativity=commutativity_violations(sg),
        persistency=persistency_violations(sg),
        csc=csc_violations(sg),
    )


def assert_implementable(sg: StateGraph) -> None:
    """Raise the appropriate exception on the first failed property."""
    report = check_speed_independence(sg)
    if report.consistency:
        raise ConsistencyError("; ".join(report.consistency[:3]))
    if report.determinism or report.commutativity or report.persistency:
        raise SpeedIndependenceError("; ".join(
            (report.determinism + report.commutativity
             + report.persistency)[:3]))
    if report.csc:
        raise CscViolation("; ".join(report.csc[:3]))
