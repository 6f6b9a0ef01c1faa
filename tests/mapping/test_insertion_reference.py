"""Packed signal insertion against the object-level reference.

:func:`repro.mapping.insertion.insert_signal` finds the reachable
copies on per-level bitsets and builds the split graph straight in the
int-indexed layout.  The reference below is the straightforward
object-level formulation: it adds *every* copy and arc one at a time,
prunes the copies the initial state cannot reach, and verifies the
result with the object-level property suite.  For every input both
must agree exactly — state order, codes, successor and predecessor
order of every state, initial state and :class:`InsertionChanges` — or
raise :class:`InsertionError` with the same message.

Inputs: blocks drawn on random handshake STGs (grown into
I-partitions by :func:`compute_insertion_sets_from_states`), graphs
after one or two such insertions, and every candidate partition the
mapper tries on hazard, seq_mix and trimos-send.
"""

from typing import Dict, List, Set, Tuple

import pytest
from hypothesis import given, settings, strategies as st

import repro.mapping.decompose as decompose
from repro._util import FrozenVector
from repro.bench_suite import benchmark
from repro.boolean.sop import SopCover
from repro.errors import InsertionError
from repro.mapping.decompose import map_circuit
from repro.mapping.insertion import (InsertionChanges, InsertionResult,
                                     insert_signal)
from repro.mapping.partition import (IPartition, compute_insertion_sets,
                                     compute_insertion_sets_from_states)
from repro.sg.graph import State, StateGraph
from repro.sg.regions import encoding_atoms
from repro.synthesis.library import GateLibrary
from tests.mapping.test_properties_hypothesis import handshake_sgs
from tests.sg.test_properties_hypothesis import ref_report

# ----------------------------------------------------------------------
# Object-level reference
# ----------------------------------------------------------------------


def ref_insert_signal(sg: StateGraph, partition: IPartition, name: str,
                      require_csc: bool = True) -> InsertionResult:
    if name in sg.signals:
        raise InsertionError(f"signal name {name!r} already in use")
    index = {state: i for i, state in enumerate(sg.states)}

    def copies(state: State) -> List[int]:
        try:
            block = partition.block_of(index[state])
        except InsertionError:
            raise InsertionError(f"state {state!r} not in any block")
        if block in ("S+", "S-"):
            return [0, 1]
        return [1] if block == "S1" else [0]

    def members(bits: int) -> List[State]:
        return [state for i, state in enumerate(sg.states)
                if (bits >> i) & 1]

    full = StateGraph(sg.name, sg.inputs, list(sg.outputs) + [name])
    for state in sg.states:
        base = sg.code(state)
        for level in copies(state):
            full.add_state((state, level),
                           FrozenVector({**base.as_dict(), name: level}))
    arcs = []
    # x transitions inside the excitation regions.
    for state in members(partition.er_plus):
        arcs.append(((state, 0), f"{name}+", (state, 1)))
    for state in members(partition.er_minus):
        arcs.append(((state, 1), f"{name}-", (state, 0)))
    # Original arcs replicated level-wise.
    for state in sg.states:
        source_levels = copies(state)
        for event, target in sg.successors(state):
            target_levels = copies(target)
            for level in source_levels:
                if level in target_levels:
                    arcs.append(((state, level), event, (target, level)))
    for source, event, target in arcs:
        full.add_arc(source, event, target)
    full.set_initial((sg.initial,
                      partition.initial_value(index[sg.initial])))

    # Prune the copies the initial state cannot reach, keeping the
    # order in which states and arcs were added.
    keep = {full.initial}
    frontier = [full.initial]
    while frontier:
        for _, target in full.successors(frontier.pop()):
            if target not in keep:
                keep.add(target)
                frontier.append(target)
    new_sg = StateGraph(full.name, full.inputs, full.outputs)
    for state in full.states:
        if state in keep:
            new_sg.add_state(state, full.code(state))
    for source, event, target in arcs:
        if source in keep:
            new_sg.add_arc(source, event, target)
    new_sg.set_initial(full.initial)

    ref_verify_insertion(sg, new_sg, name, require_csc=require_csc)

    split = 0
    levels = [0, 0]
    copies_at: Tuple[List[int], List[int]] = ([-1] * len(sg),
                                              [-1] * len(sg))
    for k, (original, level) in enumerate(new_sg.states):
        copies_at[level][index[original]] = k
    for i in range(len(sg)):
        held = [level for level in (0, 1) if copies_at[level][i] >= 0]
        if len(held) > 1:
            split |= 1 << i
        elif held:
            levels[held[0]] |= 1 << i
    return InsertionResult(new_sg, InsertionChanges(
        name, split, (levels[0], levels[1]), copies_at))


def ref_verify_insertion(old_sg: StateGraph, new_sg: StateGraph,
                         name: str, require_csc: bool = True) -> None:
    reachable: Dict[State, List[int]] = {}
    for original, level in new_sg.states:
        reachable.setdefault(original, []).append(level)
    for state in old_sg.states:
        if state not in reachable:
            raise InsertionError(
                f"insertion of {name!r} makes original state {state!r} "
                "unreachable")
    for state in old_sg.states:
        inputs_enabled = [e for e in old_sg.enabled(state)
                          if old_sg.is_input_event(e)]
        if not inputs_enabled:
            continue
        for level in reachable[state]:
            enabled_here = set(new_sg.enabled((state, level)))
            for event in inputs_enabled:
                if event not in enabled_here:
                    raise InsertionError(
                        f"input event {event} is delayed by {name!r} at "
                        f"state {state!r} (level {level})")
    report = ref_report(new_sg)
    speed_independent = not (report["determinism"]
                             or report["commutativity"]
                             or report["persistency"])
    ok = speed_independent and not report["consistency"] and (
        not report["csc"] or not require_csc)
    if not ok:
        violations = [v for kind in ("consistency", "determinism",
                                     "commutativity", "persistency", "csc")
                      for v in report[kind]]
        raise InsertionError(
            f"insertion of {name!r} breaks the specification: "
            + "; ".join(violations[:3]))
    fires = any(event in (f"{name}+", f"{name}-")
                for state in new_sg.states
                for event, _ in new_sg.successors(state))
    if not fires:
        raise InsertionError(f"inserted signal {name!r} never fires")


# ----------------------------------------------------------------------
# Packed == reference
# ----------------------------------------------------------------------


def _outcome(insert, sg, partition, name, require_csc):
    try:
        return insert(sg, partition, name, require_csc=require_csc)
    except InsertionError as error:
        return str(error)


def assert_same_insertion(sg: StateGraph, partition: IPartition,
                          name: str, require_csc: bool = True):
    """Run both insertions; return the packed result (None when both
    rejected the partition with the same message)."""
    got = _outcome(insert_signal, sg, partition, name, require_csc)
    want = _outcome(ref_insert_signal, sg, partition, name, require_csc)
    if isinstance(want, str):
        assert got == want
        return None
    assert not isinstance(got, str), got
    new, ref = got.sg, want.sg
    assert (new.name, new.inputs, new.outputs, new.signals) \
        == (ref.name, ref.inputs, ref.outputs, ref.signals)
    assert new.states == ref.states
    assert new.initial == ref.initial
    for state in ref.states:
        assert new.code(state) == ref.code(state)
        assert new.successors(state) == ref.successors(state)
        assert new.predecessors(state) == ref.predecessors(state)
    assert got.changes.signal == want.changes.signal
    assert got.changes.split == want.changes.split
    assert got.changes.levels == want.changes.levels
    assert got.changes.copies == want.changes.copies
    return got


@st.composite
def drawn_partitions(draw, sg):
    """An I-partition grown from a block of ``sg``'s states (None when
    the block admits none): an atom of the CSC solver's region algebra
    (a cone, an excitation region or a signal half-space), optionally
    cut by a second atom, or an arbitrary state set."""
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
        block = draw(st.integers(1, sg.encoding().full_mask))
    try:
        return compute_insertion_sets_from_states(sg, block)
    except InsertionError:
        return None


class TestDrawnBlocks:
    @given(handshake_sgs(), st.data(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_one_and_two_insertions(self, sg, data, require_csc):
        partition = data.draw(drawn_partitions(sg))
        if partition is None:
            return
        result = assert_same_insertion(sg, partition, "zz", require_csc)
        if result is None:
            return
        # again, on the split graph: (state, level) identities nest
        second = data.draw(drawn_partitions(result.sg))
        if second is not None:
            assert_same_insertion(result.sg, second, "zy", require_csc)

    @given(handshake_sgs(), st.data(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_block_assignments(self, sg, data, require_csc):
        """Unvalidated four-block partitions — overlapping or missing
        blocks included — drive every rejection path: unreachable
        originals, delayed inputs, broken SI properties, a silent
        signal."""
        # bit 0: ER(x+), bit 1: ER(x-), bit 2: S1, bit 3: S0
        masks = data.draw(st.lists(
            st.sampled_from([1, 2, 4, 8, 1, 2, 4, 8, 3, 5]),
            min_size=len(sg), max_size=len(sg)))
        if data.draw(st.integers(0, 9)) == 0:
            masks[data.draw(st.integers(0, len(sg) - 1))] = 0
        blocks = [sum(1 << i for i, m in enumerate(masks) if m >> k & 1)
                  for k in range(4)]
        partition = IPartition(SopCover.zero(), blocks[0], blocks[1],
                               blocks[2], blocks[3])
        assert_same_insertion(sg, partition, "zz", require_csc)

    def test_name_collision_and_unassigned_state(self, celement_sg):
        partition = compute_insertion_sets(celement_sg,
                                           SopCover.from_string("a b"))
        assert assert_same_insertion(celement_sg, partition, "x")
        assert_same_insertion(celement_sg, partition, "a")
        partial = IPartition(partition.function, partition.er_plus,
                             partition.er_minus, partition.s1, 0)
        assert_same_insertion(celement_sg, partial, "x")
        silent = IPartition(partition.function, 0, 0, 0,
                            celement_sg.encoding().full_mask)
        with pytest.raises(InsertionError, match="never fires"):
            insert_signal(celement_sg, silent, "x")
        assert_same_insertion(celement_sg, silent, "x")


class TestMapperCandidates:
    @pytest.mark.parametrize("name", ["hazard", "seq_mix", "trimos-send"])
    def test_every_candidate_matches(self, name, monkeypatch):
        calls = []
        real = decompose.insert_signal

        def spy(sg, partition, signal, **kwargs):
            calls.append((sg, partition, signal))
            return real(sg, partition, signal, **kwargs)

        monkeypatch.setattr(decompose, "insert_signal", spy)
        map_circuit(benchmark(name), GateLibrary(2))
        assert calls
        accepted = 0
        sizes: Set[int] = set()
        for sg, partition, signal in calls:
            sizes.add(len(sg.signals))
            if assert_same_insertion(sg, partition, signal) is not None:
                accepted += 1
        assert accepted
        if name != "hazard":
            # later candidates run on graphs split by earlier insertions
            assert len(sizes) > 1
