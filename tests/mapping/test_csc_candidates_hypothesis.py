"""Executable specification of the CSC solver's bitset candidate algebra.

The solver builds, ranks and filters its candidate blocks on the
graph's packed :class:`~repro.sg.encoding.Encoding` (state sets are
int bitsets).  The set-based formulations below are the reference
semantics, kept only here: every kernel must reproduce them element by
element and in order — same labels, same state sets, same ranking keys,
same conflict pairs — because the candidate order decides which signal
the solver inserts.  The solver builds only the blocks that can reach
the first ``limit`` places of the ranking, so its ranked output is
compared with a prefix of the reference ranking of the whole family.

The properties run on random handshake STGs, on chained sequencers and
alternators, on sequencers sharing a choice place with a second
handshake (whose slices run through cycles), and on graphs taken
mid-solve after one or two insertions (whose states are nested
``(state, level)`` tuples).
"""

import itertools
import re
import sys
from typing import FrozenSet, List, Sequence, Set, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.mapping.csc import (CSC_METHODS, CscConfig, _conflict_pairs,
                               _event_slices, _insert_best_region_block,
                               _insert_first_improving_block,
                               _ranked_blocks, csc_conflicts)
from repro._util import FrozenVector
from repro.sg.graph import State, StateGraph, event_signal
from repro.sg.properties import csc_violations
from repro.sg.reachability import state_graph_of
from repro.sg.regions import encoding_atoms, excitation_regions
from repro.stg.builders import marked_graph
from repro.stg.parser import parse_g
from tests.conftest import alternator_stg, chained_sequencer_stg
from tests.mapping.test_partition_reference import (ref_input_border,
                                                    ref_quiescent_region,
                                                    ref_switching_region)
from tests.mapping.test_properties_hypothesis import handshake_sgs
from tests.sg.test_properties_hypothesis import states_by_code

# ----------------------------------------------------------------------
# Set-based references
# ----------------------------------------------------------------------


def ref_csc_conflicts(sg: StateGraph) -> List[Tuple[State, State]]:
    by_code = states_by_code(sg)
    outputs = set(sg.outputs)
    conflicts = []
    for states in by_code.values():
        if len(states) < 2:
            continue
        enabled = {
            state: frozenset(e for e in sg.enabled(state)
                             if event_signal(e) in outputs)
            for state in states}
        for i, left in enumerate(states):
            for right in states[i + 1:]:
                if enabled[left] != enabled[right]:
                    conflicts.append((left, right))
    return conflicts


def _arc_events(sg: StateGraph) -> List[str]:
    return sorted({event for state in sg.states
                   for event, _ in sg.successors(state)})


def ref_encoding_atoms(sg: StateGraph) -> List[Tuple[str, FrozenSet]]:
    atoms: List[Tuple[str, FrozenSet]] = []
    seen: Set[FrozenSet] = set()

    def add(label, states):
        states = frozenset(states)
        if not states or len(states) == len(sg) or states in seen:
            return
        seen.add(states)
        atoms.append((label, states))

    for event in _arc_events(sg):
        regions = excitation_regions(sg, event)
        cones = []
        for region in regions:
            cone = (ref_switching_region(sg, region)
                    | ref_quiescent_region(sg, region, regions))
            if cone:
                label = (f"SR∪QR({event})" if len(regions) == 1
                         else f"SR∪QR_{region.index}({event})")
                cones.append((label, frozenset(cone)))
        for label, cone in cones:
            add(label, cone)
        if len(cones) > 1:
            add(f"SR∪QR({event})",
                frozenset().union(*(cone for _, cone in cones)))
        for region in regions:
            add(f"ER({event})" if len(regions) == 1
                else f"ER_{region.index}({event})", region.states)
        if len(regions) > 1:
            add(f"ER({event})",
                frozenset().union(*(r.states for r in regions)))
    for signal in sg.signals:
        add(f"[{signal}=1]",
            {s for s in sg.states if sg.code(s)[signal]})
    return atoms


def ref_forward_until(sg: StateGraph, sources: Set[State],
                      stop: str) -> Set[State]:
    block: Set[State] = set()
    frontier = [s for s in sources
                if stop not in {e for e, _ in sg.successors(s)}]
    block.update(frontier)
    while frontier:
        state = frontier.pop()
        for _, target in sg.successors(state):
            if target in block:
                continue
            if stop in {e for e, _ in sg.successors(target)}:
                continue
            block.add(target)
            frontier.append(target)
    return block


def ref_slices(sg: StateGraph) -> List[Tuple[str, Set[State]]]:
    """Every "after u until v" slice, undeduplicated, u outer."""
    events = _arc_events(sg)
    slices = []
    for start in events:
        start_states: Set[State] = set()
        for region in excitation_regions(sg, start):
            start_states |= ref_switching_region(sg, region)
        for stop in events:
            if stop != start:
                slices.append((f"after {start} until {stop}",
                               ref_forward_until(sg, start_states, stop)))
    return slices


def ref_event_blocks(sg: StateGraph) -> List[Tuple[str, Set[State]]]:
    blocks = []
    seen: Set[FrozenSet] = set()
    for label, block in ref_slices(sg):
        key = frozenset(block)
        if not block or len(block) == len(sg) or key in seen:
            continue
        seen.add(key)
        blocks.append((label, block))
    return blocks


def ref_region_blocks(sg: StateGraph) -> List[Tuple[str, Set[State]]]:
    atoms = ref_encoding_atoms(sg)
    blocks = []
    seen: Set[FrozenSet] = set()

    def add(label, states):
        states = frozenset(states)
        if not states or len(states) == len(sg) or states in seen:
            return
        seen.add(states)
        blocks.append((label, set(states)))

    for label, atom in atoms:
        add(label, atom)
    for i, (label_a, atom_a) in enumerate(atoms):
        for label_b, atom_b in atoms[i + 1:]:
            add(f"{label_a} ∩ {label_b}", atom_a & atom_b)
            add(f"{label_a} − {label_b}", atom_a - atom_b)
            add(f"{label_b} − {label_a}", atom_b - atom_a)
    for label, block in ref_event_blocks(sg):
        add(label, block)
    return blocks


def ref_ranked_blocks(sg: StateGraph, blocks,
                      conflicts: Sequence[Tuple[State, State]],
                      with_borders: bool = False):
    ranked = []
    for label, block in blocks:
        split = sum(1 for left, right in conflicts
                    if (left in block) != (right in block))
        if not split:
            continue
        if with_borders:
            complement = set(sg.states) - block
            border = (len(ref_input_border(sg, block))
                      + len(ref_input_border(sg, complement)))
            key = (-split, border, len(block), label)
        else:
            key = (-split, len(block), label)
        ranked.append((key, label, block))
    ranked.sort(key=lambda item: item[0])
    return ranked


# ----------------------------------------------------------------------
# Graphs
# ----------------------------------------------------------------------


def falling_alternator_stg(outputs: int):
    """An alternator whose outputs idle high and pulse low: its
    conflicting states differ only in *falling* output events."""
    def edge(sign: str, i: int) -> str:
        return f"r{sign}" if i == 1 else f"r{sign}/{i}"

    arcs = []
    for i in range(1, outputs + 1):
        arcs += [(edge("+", i), f"o{i}-"), (f"o{i}-", edge("-", i)),
                 (edge("-", i), f"o{i}+")]
        if i < outputs:
            arcs.append((f"o{i}+", edge("+", i + 1)))
    return marked_graph(f"falling{outputs}", ["r"],
                        [f"o{i}" for i in range(1, outputs + 1)], arcs,
                        [(f"o{outputs}+", "r+")])


def choice_sequencer_stg(stages: int):
    """A chained sequencer and a plain ``x``/``b`` handshake sharing one
    choice place: at every return to the initial state the environment
    picks a loop.  Cutting the graph at an event of either loop leaves
    the other loop's cycle intact, so these are the graphs whose slices
    run through cycles."""
    arcs = [("p0", "r+"), ("r+", "ro1+")]
    for i in range(1, stages + 1):
        arcs += [(f"ro{i}+", f"ai{i}+"), (f"ai{i}+", f"ro{i}-"),
                 (f"ro{i}-", f"ai{i}-")]
        if i < stages:
            arcs.append((f"ai{i}-", f"ro{i + 1}+"))
    arcs += [(f"ai{stages}-", "a+"), ("a+", "r-"), ("r-", "a-"),
             ("a-", "p0"), ("p0", "x+"), ("x+", "b+"), ("b+", "x-"),
             ("x-", "b-"), ("b-", "p0")]
    stages_of = range(1, stages + 1)
    return parse_g("\n".join(
        [f".model choice{stages}",
         ".inputs r x " + " ".join(f"ai{i}" for i in stages_of),
         ".outputs a b " + " ".join(f"ro{i}" for i in stages_of),
         ".graph"]
        + [f"{source} {target}" for source, target in arcs]
        + [".marking { p0 }", ".end", ""]))


BUILDERS = {"seqcsc": chained_sequencer_stg, "alternator": alternator_stg,
            "falling": falling_alternator_stg,
            "choice": choice_sequencer_stg}

#: ranking prefixes compared with the reference: the smallest cuts,
#: the solver's default budget and the whole ranking
LIMITS = (1, 2, 24, sys.maxsize)


def mid_solve(sg: StateGraph, method: str, steps: int) -> StateGraph:
    """The graph after the solver's first ``steps`` insertions (fewer if
    it is solved or stalls first)."""
    strategy = (_insert_best_region_block if method == "regions"
                else _insert_first_improving_block)
    for index in range(steps):
        conflicts = _conflict_pairs(sg)
        if not conflicts:
            break
        step = strategy(sg, conflicts, f"csc{index}",
                        CscConfig(method=method))
        if step is None:
            break
        sg = step[0]
    return sg


@st.composite
def candidate_sgs(draw):
    """A handshake STG, a chained sequencer, an alternator of either
    phase or a choice sequencer, taken before the solver starts or
    after one or two insertions."""
    if draw(st.booleans()):
        base = draw(handshake_sgs())
    else:
        family = draw(st.sampled_from(sorted(BUILDERS)))
        base = state_graph_of(BUILDERS[family](draw(st.integers(2, 5))))
    return mid_solve(base, draw(st.sampled_from(CSC_METHODS)),
                     draw(st.integers(0, 2)))


def unpacked(sg: StateGraph, items):
    """Replace the bitset in the last position of every item by its set
    of states."""
    enc = sg.encoding()
    return [(*item[:-1], set(enc.states_of(item[-1]))) for item in items]


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------


def _check_candidate_families(sg):
    enc = sg.encoding()
    assert [(label, frozenset(enc.states_of(bits)))
            for label, bits in encoding_atoms(sg)] == ref_encoding_atoms(sg)
    assert [("".join(parts), set(enc.states_of(bits)))
            for parts, bits in _event_slices(enc)] == ref_slices(sg)


def _check_ranking(sg):
    """Every method and limit: the solver's ranked output is the
    prefix of the reference ranking of the whole family."""
    conflicts = ref_csc_conflicts(sg)
    index = sg.encoding().index
    pairs = [(index[left], index[right]) for left, right in conflicts]
    for method, family in (("blocks", ref_event_blocks(sg)),
                           ("regions", ref_region_blocks(sg))):
        reference = ref_ranked_blocks(sg, family, conflicts,
                                      with_borders=method == "regions")
        for limit in LIMITS:
            assert unpacked(sg, _ranked_blocks(sg, pairs, method,
                                               limit)) == \
                reference[:limit]


def _violation_codes(sg):
    return {re.search(r"sharing code (\d+) ", problem).group(1)
            for problem in csc_violations(sg)}


def _check_conflicts(sg):
    conflicts = csc_conflicts(sg)
    assert conflicts == ref_csc_conflicts(sg)
    assert bool(conflicts) == bool(csc_violations(sg))
    assert {"".join(str(v) for _, v in sg.code(left).items())
            for left, _ in conflicts} == _violation_codes(sg)


class TestCandidateAlgebra:
    @given(candidate_sgs())
    @settings(max_examples=25, deadline=None)
    def test_blocks_match_set_reference(self, sg):
        _check_candidate_families(sg)

    @given(candidate_sgs())
    @settings(max_examples=25, deadline=None)
    def test_ranking_matches_set_reference(self, sg):
        _check_ranking(sg)

    @given(candidate_sgs())
    @settings(max_examples=25, deadline=None)
    def test_conflicts_match_set_reference(self, sg):
        _check_conflicts(sg)


@pytest.mark.parametrize("family", sorted(BUILDERS))
@pytest.mark.parametrize("size", [2, 3, 4])
@pytest.mark.parametrize("method", CSC_METHODS)
@pytest.mark.parametrize("steps", [1, 2])
def test_mid_solve_graphs_match_set_reference(family, size, method, steps):
    """Fixed mid-solve cases: the inserted signals split states into
    ``(state, level)`` tuples, which the kernels must index like any
    other state."""
    sg = mid_solve(state_graph_of(BUILDERS[family](size)), method, steps)
    assert all(isinstance(state, tuple) for state in sg.states)
    _check_candidate_families(sg)
    _check_ranking(sg)
    _check_conflicts(sg)


def test_family_cuts_inside_a_tie_group():
    """Somewhere in the fixed family a cut falls inside a group of
    equal split, and there the prefixes still match the reference: the
    tie-breaking of the lazily keyed groups is checked, not only whole
    groups."""
    for family, size, method, steps in itertools.product(
            sorted(BUILDERS), [2, 3, 4], CSC_METHODS, [0, 1, 2]):
        sg = mid_solve(state_graph_of(BUILDERS[family](size)), method,
                       steps)
        ranked = _ranked_blocks(sg, _conflict_pairs(sg), method,
                                sys.maxsize)
        if any(len(ranked) > limit
               and ranked[limit - 1][0][0] == ranked[limit][0][0]
               for limit in LIMITS[:-1]):
            _check_ranking(sg)
            return
    pytest.fail("no cut falls inside a tie group of equal split")


def _cyclic_stops(sg: StateGraph) -> List[str]:
    """Stop events ``v`` whose cut graph (the states not enabling
    ``v``) still has a cycle: some state reaches itself inside it."""
    return [stop for stop in _arc_events(sg)
            if any(state in ref_forward_until(
                sg, {target for _, target in sg.successors(state)}, stop)
                for state in sg.states)]


@pytest.mark.parametrize("size", [2, 3, 4])
def test_choice_slices_run_through_cycles(size):
    """No sequencer, alternator or handshake graph keeps a cycle once
    cut at an event, so only the choice sequencers check that the
    per-stop reach tables handle cycles."""
    sg = state_graph_of(choice_sequencer_stg(size))
    assert _cyclic_stops(sg)
    _check_candidate_families(sg)
    _check_ranking(sg)


def test_constant_signal_half_space_is_not_an_atom():
    """A signal that never toggles makes its half-space the full state
    set, which no atom or candidate block may be."""
    sg = StateGraph("constant", ["r", "k"], ["a"])
    for state, (r, a) in {"s0": (0, 0), "s1": (1, 0), "s2": (1, 1),
                          "s3": (0, 1)}.items():
        sg.add_state(state, FrozenVector({"r": r, "a": a, "k": 1}))
    for source, event, target in (("s0", "r+", "s1"), ("s1", "a+", "s2"),
                                  ("s2", "r-", "s3"), ("s3", "a-", "s0")):
        sg.add_arc(source, event, target)
    sg.set_initial("s0")
    assert "[k=1]" not in [label for label, _ in encoding_atoms(sg)]
    _check_candidate_families(sg)
