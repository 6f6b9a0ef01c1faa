"""Packed region queries, partition growth and progress filters against
set-based references.

The mapping core computes on bitsets over state indices: the SR/QR
queries of :mod:`repro.sg.regions`, the next-state ON/OFF sets of
:mod:`repro.sg.encoding`, I-partition growth in
:mod:`repro.mapping.partition` and Properties 3.1/3.2 in
:mod:`repro.mapping.progress`.  The references below are the
straightforward formulations on Python sets of state identities; the
growth reference visits region states in index order, as the packed
code does.  For every input both must agree exactly — the same state
sets, the same reasons in the same order — or raise the same error
with the same message.

Inputs: random handshake STGs (blocks drawn from the CSC solver's
region algebra, random covers and regions for the properties) and every
candidate the mapper tries on hazard, seq_mix and trimos-send.
"""

from types import SimpleNamespace
from typing import Dict, List, Sequence, Set, Tuple

import pytest
from hypothesis import given, settings, strategies as st

import repro.mapping.decompose as decompose
from repro._util import FrozenVector
from repro.bench_suite import benchmark
from repro.boolean.cube import Cube
from repro.boolean.minimize import _vector_int
from repro.boolean.sop import SopCover
from repro.errors import CscViolation, InsertionError
from repro.mapping.decompose import map_circuit
from repro.mapping.partition import (IPartition, _validate_crossings,
                                     compute_insertion_sets,
                                     compute_insertion_sets_from_states)
from repro.mapping.progress import (_extended_quiescent, check_property_31,
                                    check_property_32)
from repro.sg.encoding import next_state_ints, next_value
from repro.sg.graph import State, StateGraph
from repro.sg.regions import (ExcitationRegion, all_excitation_regions,
                              encoding_atoms, excitation_regions,
                              quiescent_region, stable_closure,
                              switching_region)
from repro.synthesis.library import GateLibrary
from tests.mapping.test_properties_hypothesis import handshake_sgs

# ----------------------------------------------------------------------
# Set-based references
# ----------------------------------------------------------------------


def states_of(sg: StateGraph, bits: int) -> Set[State]:
    return {state for i, state in enumerate(sg.states) if (bits >> i) & 1}


def ref_switching_region(sg: StateGraph,
                         region: ExcitationRegion) -> Set[State]:
    return {target for state in region.states
            for event, target in sg.successors(state)
            if event == region.event}


def ref_stable_closure(sg: StateGraph,
                       region: ExcitationRegion) -> Set[State]:
    stable = {s for s in sg.states if not sg.is_excited(s, region.signal)}
    closure = ref_switching_region(sg, region) & stable
    frontier = list(closure)
    while frontier:
        for _, target in sg.successors(frontier.pop()):
            if target in stable and target not in closure:
                closure.add(target)
                frontier.append(target)
    return closure


def ref_quiescent_region(sg: StateGraph, region,
                         siblings: Sequence[ExcitationRegion] = ()
                         ) -> Set[State]:
    group = ((region,) if isinstance(region, ExcitationRegion)
             else tuple(region))
    mine = {member.index for member in group}
    restricted: Set[State] = set()
    for member in group:
        restricted |= ref_stable_closure(sg, member)
    for sibling in siblings:
        if sibling.event == group[0].event and sibling.index not in mine:
            restricted -= ref_stable_closure(sg, sibling)
    return restricted


def ref_next_state_sets(sg: StateGraph, signal: str
                        ) -> Tuple[List[FrozenVector], List[FrozenVector]]:
    on = {sg.code(s) for s in sg.states if next_value(sg, s, signal)}
    off = {sg.code(s) for s in sg.states if not next_value(sg, s, signal)}
    clash = on & off
    if clash:
        sample = min(clash, key=lambda v: _vector_int(v, sg.signals))
        raise CscViolation(
            f"next-state function of {signal!r} is ill-defined on code "
            f"{sample!r} (CSC violation)")
    return (sorted(on, key=lambda v: _vector_int(v, sg.signals)),
            sorted(off, key=lambda v: _vector_int(v, sg.signals)))


def ref_diamonds(sg: StateGraph) -> List[Tuple]:
    """``(bottom, event_a, event_b, side_a, side_b, top)`` identities:
    bottoms in state order, event pairs in arc order, tops in state
    order."""
    index = {state: i for i, state in enumerate(sg.states)}
    found = []
    for bottom in sg.states:
        arcs = sg.successors(bottom)
        for k, (event_a, side_a) in enumerate(arcs):
            for event_b, side_b in arcs[k + 1:]:
                if event_a == event_b:
                    continue
                tops = ({t for e, t in sg.successors(side_a) if e == event_b}
                        & {t for e, t in sg.successors(side_b)
                           if e == event_a})
                for top in sorted(tops, key=index.__getitem__):
                    found.append((bottom, event_a, event_b, side_a, side_b,
                                  top))
    return found


def ref_input_border(sg: StateGraph, half: Set[State]) -> Set[State]:
    return {state for state in half
            if any(source not in half
                   for _, source in sg.predecessors(state))}


def ref_grow(sg: StateGraph, seed: Set[State], half: Set[State],
             label: str) -> Set[State]:
    """The sequential repair fixpoint, visiting states in index order."""
    index = {state: i for i, state in enumerate(sg.states)}
    diamonds_at: Dict[State, List[int]] = {}
    diamonds = ref_diamonds(sg)
    for position, (bottom, _, _, side_a, side_b, top) in enumerate(diamonds):
        for state in (bottom, side_a, side_b, top):
            entries = diamonds_at.setdefault(state, [])
            if not entries or entries[-1] != position:
                entries.append(position)
    region = set(seed)

    def pull(state: State, reason: str) -> bool:
        if state in region:
            return False
        if state not in half:
            raise InsertionError(
                f"{label} must absorb {state!r} ({reason}) but it lies "
                "in the opposite half-space")
        region.add(state)
        return True

    while True:
        changed = False
        for state in sorted(region, key=index.__getitem__):
            for _, source in sg.predecessors(state):
                if source in half and source not in region:
                    changed |= pull(source, "well-formedness")
        for state in sorted(region, key=index.__getitem__):
            for event, target in sg.successors(state):
                if not sg.is_input_event(event):
                    continue
                if target in half and target not in region:
                    changed |= pull(target, f"input event {event}")
                elif target not in half:
                    raise InsertionError(
                        f"{label}: input event {event} would be delayed "
                        f"at {state!r} and its target leaves the "
                        "half-space")
        touched: List[int] = []
        for state in sorted(region, key=index.__getitem__):
            for position in diamonds_at.get(state, ()):
                if position not in touched:
                    touched.append(position)
        for position in touched:
            bottom, _, _, side_a, side_b, top = diamonds[position]
            bottom_in, side_a_in, side_b_in, top_in = (
                s in region for s in (bottom, side_a, side_b, top))
            if side_a_in and side_b_in and not top_in:
                changed |= pull(top, "interior diamond closure")
                continue
            exits_a = (int(bottom_in and not side_a_in)
                       + int(side_a_in and not top_in))
            exits_b = (int(bottom_in and not side_b_in)
                       + int(side_b_in and not top_in))
            if exits_a > exits_b:
                changed |= pull(side_b, "diamond closure")
            elif exits_b > exits_a:
                changed |= pull(side_a, "diamond closure")
        if not changed:
            return region


_ALLOWED = {("S0", "S0"), ("S0", "S+"), ("S+", "S+"), ("S+", "S1"),
            ("S+", "S-"), ("S1", "S1"), ("S1", "S-"), ("S-", "S-"),
            ("S-", "S0"), ("S-", "S+")}


def ref_insertion_sets(sg: StateGraph, ones: Set[State],
                       function=None) -> SimpleNamespace:
    label = (function.to_string() if function is not None
             else f"<{len(ones)}-state block>")
    ones = set(ones)
    zeros = set(sg.states) - ones
    if not ones or not zeros:
        raise InsertionError(f"insertion block {label} is constant on "
                             "the reachable states")
    er_plus = ref_input_border(sg, ones)
    er_minus = ref_input_border(sg, zeros)
    if not er_plus or not er_minus:
        raise InsertionError(f"insertion block {label} never changes value")
    er_plus = ref_grow(sg, er_plus, ones, "ER(x+)")
    er_minus = ref_grow(sg, er_minus, zeros, "ER(x-)")
    partition = SimpleNamespace(er_plus=er_plus, er_minus=er_minus,
                                s1=ones - er_plus, s0=zeros - er_minus)
    ref_validate_crossings(sg, partition)
    return partition


def ref_validate_crossings(sg: StateGraph, partition) -> None:
    blocks = {}
    for name, block in (("S0", partition.s0), ("S1", partition.s1),
                        ("S-", partition.er_minus),
                        ("S+", partition.er_plus)):
        blocks.update(dict.fromkeys(block, name))
    for state in sg.states:
        for event, target in sg.successors(state):
            if (blocks[state], blocks[target]) not in _ALLOWED:
                raise InsertionError(
                    f"arc {event} crosses {blocks[state]} → "
                    f"{blocks[target]}, which is not allowed in an "
                    "I-partition")


def ref_extended_quiescent(sg, region, siblings, partition) -> Set[State]:
    quiescent = ref_quiescent_region(sg, region, siblings)
    extended = set(quiescent)
    for direction in ("+", "-"):
        for er in excitation_regions(sg, region.signal + direction):
            if er.states & quiescent:
                continue
            doorstep = {source for s in er.states
                        for _, source in sg.predecessors(s)}
            if not doorstep & quiescent:
                continue
            if (er.states | doorstep) & partition.er_minus:
                extended |= er.states
    return extended


def ref_property_31(sg, region, siblings, divisor, quotient, remainder,
                    partition) -> List[str]:
    reasons: List[str] = []
    er = region.states
    quiescent = ref_quiescent_region(sg, region, siblings)
    extended = ref_extended_quiescent(sg, region, siblings, partition)
    inside = er | extended

    def fg_only(state):
        code = sg.code(state)
        return (divisor.evaluate(code) and quotient.evaluate(code)
                and not remainder.evaluate(code))

    if any(fg_only(s) and s in partition.er_plus
           and any(t in er and t not in partition.er_plus
                   for _, t in sg.successors(s)) for s in er):
        reasons.append(f"cond1: {region.event} relies on f·g at a state "
                       "where x may still be 0")
    if any(s not in inside and s in partition.er_minus
           and quotient.evaluate(sg.code(s)) for s in sg.states):
        reasons.append("cond2: x·g can evaluate to 1 outside ER ∪ QR′ "
                       f"of {region.event}")
    if any(fg_only(s) and s in partition.er_plus for s in quiescent):
        reasons.append(f"cond3: cover of {region.event} would rise late "
                       "in its quiescent region")
    hot = {s for s in extended
           if s in partition.er_minus and quotient.evaluate(sg.code(s))}
    if any(not (remainder.evaluate(sg.code(p)) or quotient.evaluate(
            sg.code(p))) for s in hot for _, p in sg.predecessors(s)):
        reasons.append("cond4: non-monotonous fall of x·g into "
                       f"QR′ of {region.event}")
    return reasons


def ref_property_32(sg, region, cover, partition) -> Tuple:
    overlap = region.states & (partition.er_plus | partition.er_minus)
    if not overlap:
        return (region.event, False, True, False)
    replaced = any(source not in region.states for s in overlap
                   for _, source in sg.predecessors(s))
    switching = ref_switching_region(sg, region)
    cond2 = not ((partition.er_plus | partition.er_minus) & switching)
    cond3 = not any(cover.evaluate(sg.code(s)) for s in partition.er_minus)
    return (region.event, True, cond2 and cond3, replaced)


# ----------------------------------------------------------------------
# Packed == reference
# ----------------------------------------------------------------------


def as_sets(sg: StateGraph, partition: IPartition) -> SimpleNamespace:
    return SimpleNamespace(**{name: states_of(sg, getattr(partition, name))
                              for name in ("er_plus", "er_minus", "s1",
                                           "s0")})


def assert_same_growth(sg: StateGraph, ones: int, function=None):
    """Grow both ways; return the packed partition (None when both
    rejected the block with the same message)."""
    try:
        got = compute_insertion_sets_from_states(sg, ones, function)
    except InsertionError as error:
        got = str(error)
    try:
        want = ref_insertion_sets(sg, states_of(sg, ones), function)
    except InsertionError as error:
        want = str(error)
    if isinstance(want, str):
        assert got == want
        return None
    assert not isinstance(got, str), got
    assert vars(as_sets(sg, got)) == vars(want)
    return got


def assert_same_regions(sg: StateGraph) -> None:
    enc = sg.encoding()
    ids = enc.states
    assert [(ids[bottom], event_a, event_b, ids[side_a], ids[side_b],
             ids[top]) for bottom, event_a, event_b, side_a, side_b, top
            in enc.diamonds()] == ref_diamonds(sg)
    for event in enc.events:
        regions = excitation_regions(sg, event)
        for region in regions:
            assert states_of(sg, region.bits) == region.states
            assert states_of(sg, switching_region(sg, region)) \
                == ref_switching_region(sg, region)
            assert states_of(sg, stable_closure(sg, region)) \
                == ref_stable_closure(sg, region)
            assert states_of(sg, quiescent_region(sg, region, regions)) \
                == ref_quiescent_region(sg, region, regions)
        if len(regions) > 1:
            assert states_of(sg, quiescent_region(sg, regions[:2],
                                                  regions)) \
                == ref_quiescent_region(sg, regions[:2], regions)


def assert_same_next_state(sg: StateGraph, signal: str) -> None:
    try:
        got = next_state_ints(sg, signal, sg.signals)
    except CscViolation as error:
        got = str(error)
    try:
        on, off = ref_next_state_sets(sg, signal)
        want = ([_vector_int(v, sg.signals) for v in on],
                [_vector_int(v, sg.signals) for v in off])
    except CscViolation as error:
        want = str(error)
    assert got == want


def assert_same_properties(sg, region, siblings, cover, divisor, quotient,
                           remainder, partition) -> None:
    sets = as_sets(sg, partition)
    assert states_of(sg, _extended_quiescent(sg, region, siblings,
                                             partition)) \
        == ref_extended_quiescent(sg, region, siblings, sets)
    assert check_property_31(sg, region, siblings, cover, divisor,
                             quotient, remainder, partition).reasons \
        == ref_property_31(sg, region, siblings, divisor, quotient,
                           remainder, sets)
    result = check_property_32(sg, region, siblings, cover, partition)
    assert (result.event, result.becomes_trigger, result.bounded,
            result.replaces_trigger) \
        == ref_property_32(sg, region, cover, sets)


@st.composite
def drawn_blocks(draw, sg):
    """A block of ``sg``'s states: an atom of the CSC solver's region
    algebra, optionally cut by a second atom, or an arbitrary set."""
    atoms = [bits for _, bits in encoding_atoms(sg)]
    block = draw(st.sampled_from(atoms))
    how = draw(st.sampled_from(["atom", "and", "or", "minus", "any"]))
    other = draw(st.sampled_from(atoms))
    if how == "and":
        block &= other
    elif how == "or":
        block |= other
    elif how == "minus":
        block &= ~other
    elif how == "any":
        block = draw(st.integers(0, sg.encoding().full_mask))
    return block


@st.composite
def drawn_covers(draw, signals):
    cubes = draw(st.lists(st.dictionaries(st.sampled_from(signals),
                                          st.integers(0, 1), max_size=3),
                          max_size=3))
    return SopCover([Cube(literals) for literals in cubes])


class TestHandshakeGraphs:
    @given(handshake_sgs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_growth_matches_reference(self, sg, data):
        assert_same_growth(sg, data.draw(drawn_blocks(sg)))

    @given(handshake_sgs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_crossing_check_matches_reference(self, sg, data):
        """Grown partitions never violate the crossing rules (the input
        borders and rule 2 exclude every forbidden arc), so the check
        is driven with arbitrary four-block tilings instead."""
        blocks = data.draw(st.lists(st.integers(0, 3), min_size=len(sg),
                                    max_size=len(sg)))
        bits = [sum(1 << i for i, b in enumerate(blocks) if b == k)
                for k in range(4)]
        partition = IPartition(SopCover.zero(), *bits)
        try:
            _validate_crossings(sg, partition)
            got = None
        except InsertionError as error:
            got = str(error)
        try:
            ref_validate_crossings(sg, as_sets(sg, partition))
            want = None
        except InsertionError as error:
            want = str(error)
        assert got == want

    @given(handshake_sgs())
    @settings(max_examples=50, deadline=None)
    def test_region_queries_and_next_state_match_reference(self, sg):
        assert_same_regions(sg)
        for signal in sg.signals:
            assert_same_next_state(sg, signal)

    @given(handshake_sgs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_properties_match_reference(self, sg, data):
        partition = assert_same_growth(sg, data.draw(drawn_blocks(sg)))
        if partition is None:
            return
        region = data.draw(st.sampled_from(all_excitation_regions(sg)))
        siblings = excitation_regions(sg, region.event)
        covers = [data.draw(drawn_covers(sg.signals)) for _ in range(4)]
        assert_same_properties(sg, region, siblings, *covers, partition)


class TestMapperCandidates:
    @pytest.mark.parametrize("name", ["hazard", "seq_mix", "trimos-send"])
    def test_every_candidate_matches(self, name, monkeypatch):
        grown, p31, p32 = [], [], []

        def grow_spy(sg, function):
            grown.append((sg, function))
            return compute_insertion_sets(sg, function)

        def p31_spy(sg, region, siblings, cover, divisor, quotient,
                    remainder, partition):
            p31.append((sg, region, siblings, cover, divisor, quotient,
                        remainder, partition))
            return check_property_31(sg, region, siblings, cover, divisor,
                                     quotient, remainder, partition)

        real_impact = decompose.estimate_global_impact

        def impact_spy(sg, covers_by_region, partition, target_key):
            p32.append((sg, dict(covers_by_region), partition, target_key))
            return real_impact(sg, covers_by_region, partition, target_key)

        monkeypatch.setattr(decompose, "compute_insertion_sets", grow_spy)
        monkeypatch.setattr(decompose, "check_property_31", p31_spy)
        monkeypatch.setattr(decompose, "estimate_global_impact", impact_spy)
        map_circuit(benchmark(name), GateLibrary(2))
        assert grown and p32
        # only trimos-send has oversized region covers at k=2 (the
        # others' are complete covers, which Property 3.1 skips)
        assert bool(p31) == (name == "trimos-send")
        graphs = {id(sg): sg for sg, _ in grown}
        for sg in graphs.values():
            assert_same_regions(sg)
            for signal in sg.outputs:
                assert_same_next_state(sg, signal)
        for sg, function in grown:
            assert_same_growth(sg, sg.encoding().cover_bits(function),
                               function)
        for sg, region, siblings, cover, *rest, partition in p31:
            assert_same_properties(sg, region, siblings, cover, *rest,
                                   partition)
        for sg, covers_by_region, partition, target_key in p32:
            sets = as_sets(sg, partition)
            by_event: Dict[str, List[ExcitationRegion]] = {}
            for region, _ in covers_by_region.values():
                by_event.setdefault(region.event, []).append(region)
            for key, (region, cover) in covers_by_region.items():
                if key == target_key:
                    continue
                result = check_property_32(sg, region,
                                           by_event[region.event], cover,
                                           partition)
                assert (result.event, result.becomes_trigger,
                        result.bounded, result.replaces_trigger) \
                    == ref_property_32(sg, region, cover, sets)
