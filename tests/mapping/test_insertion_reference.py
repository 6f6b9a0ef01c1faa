"""Packed signal insertion against the object-level reference.

:func:`repro.mapping.insertion.insert_signal` decides a trial on
per-level bitsets (:func:`~repro.mapping.insertion.plan_insertion`) and
builds the split graph straight in the int-indexed layout.  The
reference below is the straightforward object-level formulation: it
adds *every* copy and arc one at a time, prunes the copies the initial
state cannot reach, and verifies the result with the object-level
property suite.  For every grown partition both must agree exactly —
state order, codes, successor and predecessor order of every state,
and the initial state — or both raise :class:`InsertionError`.  The
messages agree too, except where the suite finds a speed-independence
violation: there the plan's crossing test rejects instead, and its
message names one crossing state and arc in the words of one of the
suite's violations.

The crossing test is the plan's only SI check, so it is checked as an
oracle property: on every grown partition it rejects exactly when the
reference suite finds an SI violation.  The plan's two counts, the
would-be graph's CSC conflict pairs and its states, are checked against
the built graph on every partition, arbitrary block assignments
included.

Inputs: blocks drawn on random handshake STGs (grown into I-partitions
by :func:`compute_insertion_sets_from_states`), graphs after one or two
such insertions, seed functions on fork/join STGs, unvalidated block
assignments, and every candidate partition the mapper tries on hazard,
seq_mix and trimos-send.
"""

import re
from collections import Counter
from typing import Dict, List, Set
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.mapping.decompose as decompose
import repro.mapping.insertion as insertion
from repro._util import FrozenVector
from repro.bench_suite import benchmark
from repro.boolean.sop import SopCover
from repro.errors import InsertionError, SpeedIndependenceError
from repro.mapping.csc import _conflict_pairs
from repro.mapping.decompose import map_circuit
from repro.mapping.insertion import (InsertionPlan, insert_signal,
                                     plan_insertion, verify_insertion)
from repro.mapping.partition import (IPartition, compute_insertion_sets,
                                     compute_insertion_sets_from_states)
from repro.sg.graph import State, StateGraph
from repro.sg.regions import encoding_atoms
from repro.synthesis.library import GateLibrary
from tests.mapping.test_properties_hypothesis import (handshake_sgs,
                                                      seed_functions,
                                                      small_sgs)
from tests.sg.test_properties_hypothesis import ref_report

# ----------------------------------------------------------------------
# Object-level reference
# ----------------------------------------------------------------------


class SuiteRejection(InsertionError):
    """The reference suite's rejection, with every consistency and SI
    violation it found in ``si`` (empty when only CSC failed)."""

    def __init__(self, message: str, si: List[str]):
        super().__init__(message)
        self.si = si


def ref_insert_signal(sg: StateGraph, partition: IPartition, name: str,
                      require_csc: bool = True) -> StateGraph:
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
    return new_sg


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
    si = [v for kind in ("consistency", "determinism", "commutativity",
                         "persistency")
          for v in report[kind]]
    if si or (report["csc"] and require_csc):
        raise SuiteRejection(
            f"insertion of {name!r} breaks the specification: "
            + "; ".join((si + report["csc"])[:3]), si)
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
        return error


#: the plan's SI rejection: one crossing state and arc, named as the
#: output persistency violation the suite reports for them
CROSSING = re.compile(
    r"breaks the specification: (output event \S+ enabled at .+ is "
    r"disabled by [^\s,]+), which crosses from ER\(\S+\) into "
    r"ER\(\S+\)$")


def assert_names_crossing(error: InsertionError,
                          violations: List[str]) -> None:
    """``error`` is the plan's SI rejection, and the state and arc it
    names are among the suite's ``violations``."""
    crossing = CROSSING.search(str(error))
    assert crossing, str(error)
    assert crossing.group(1) in violations, (str(error), violations)


def assert_same_graph(new: StateGraph, ref: StateGraph):
    assert (new.name, new.inputs, new.outputs, new.signals) \
        == (ref.name, ref.inputs, ref.outputs, ref.signals)
    assert new.states == ref.states
    assert new.initial == ref.initial
    for state in ref.states:
        assert new.code(state) == ref.code(state)
        assert new.successors(state) == ref.successors(state)
        assert new.predecessors(state) == ref.predecessors(state)


def assert_same_insertion(sg: StateGraph, partition: IPartition,
                          name: str, require_csc: bool = True):
    """Run both insertions on a grown partition; return the packed
    result (None when both rejected it)."""
    got = _outcome(insert_signal, sg, partition, name, require_csc)
    want = _outcome(ref_insert_signal, sg, partition, name, require_csc)
    if isinstance(want, InsertionError):
        assert isinstance(got, InsertionError), "accepted a rejection"
        if isinstance(want, SuiteRejection) and want.si:
            assert_names_crossing(got, want.si)
        else:
            assert str(got) == str(want)
        return None
    assert not isinstance(got, InsertionError), str(got)
    assert_same_graph(got, want)
    return got


def assert_crossing_oracle(sg: StateGraph, partition: IPartition,
                           name: str) -> str:
    """On a grown partition, the crossing test rejects exactly when the
    reference suite finds an SI violation, and then names one of them;
    a plan it accepts counts the built graph's conflicts and states
    exactly.  Returns the outcome: ``"crossing"``, ``"accepted"`` or
    ``"other"`` (rejected before or after the SI check)."""
    try:
        plan = plan_insertion(sg, partition, name, require_csc=False)
    except InsertionError as error:
        plan, rejection = None, error
    want = _outcome(ref_insert_signal, sg, partition, name, False)
    violations = want.si if isinstance(want, SuiteRejection) else []
    if plan is None and CROSSING.search(str(rejection)):
        assert_names_crossing(rejection, violations)
        return "crossing"
    assert not violations, violations
    if plan is None:
        return "other"
    assert_counts_exact(sg, plan)
    return "accepted"


def assert_counts_exact(sg: StateGraph, plan: InsertionPlan) -> None:
    built = insert_signal(sg, plan.partition, plan.name,
                          require_csc=False, plan=plan)
    assert plan.conflicts == len(_conflict_pairs(built))
    assert plan.copies == len(built)


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


@st.composite
def assigned_partitions(draw, sg):
    """Unvalidated four-block partitions, overlapping or missing
    blocks included."""
    # bit 0: ER(x+), bit 1: ER(x-), bit 2: S1, bit 3: S0
    masks = draw(st.lists(
        st.sampled_from([1, 2, 4, 8, 1, 2, 4, 8, 3, 5]),
        min_size=len(sg), max_size=len(sg)))
    if draw(st.integers(0, 9)) == 0:
        masks[draw(st.integers(0, len(sg) - 1))] = 0
    blocks = [sum(1 << i for i, m in enumerate(masks) if m >> k & 1)
              for k in range(4)]
    return IPartition(SopCover.zero(), blocks[0], blocks[1], blocks[2],
                      blocks[3])


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
        second = data.draw(drawn_partitions(result))
        if second is not None:
            assert_same_insertion(result, second, "zy", require_csc)

    @given(handshake_sgs(), st.data(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_block_assignments(self, sg, data, require_csc):
        """Unvalidated partitions drive every rejection path:
        unreachable originals, delayed inputs, broken SI properties, a
        silent signal.  They lie outside the crossing test's premise,
        so the plan may reject more than the suite, and it may miss a
        violation that the commit check then finds.  Whatever the
        reference rejects, :func:`insert_signal` or the commit check
        rejects; every graph both accept equals the reference's."""
        partition = data.draw(assigned_partitions(sg))
        got = _outcome(insert_signal, sg, partition, "zz", require_csc)
        want = _outcome(ref_insert_signal, sg, partition, "zz",
                        require_csc)
        if (isinstance(want, InsertionError)
                and not isinstance(want, SuiteRejection)):
            # rejected before the suite runs, or after it passed
            assert str(got) == str(want)
            return
        if isinstance(got, InsertionError):
            return
        try:
            verify_insertion(got, "zz", require_csc)
        except SpeedIndependenceError:
            return
        assert not isinstance(want, InsertionError), str(want)
        assert_same_graph(got, want)

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


class TestCrossingOracle:
    """The crossing test agrees with the reference suite."""

    def test_drawn_partitions(self):
        """One and two insertions deep on handshake STGs; the family
        is not vacuous: it yields crossing rejections and acceptances."""
        outcomes: Counter = Counter()

        @given(handshake_sgs(), st.data())
        @settings(max_examples=150, deadline=None)
        def check(sg, data):
            partition = data.draw(drawn_partitions(sg))
            if partition is None:
                return
            outcomes[assert_crossing_oracle(sg, partition, "zz")] += 1
            try:
                first = insert_signal(sg, partition, "zz",
                                      require_csc=False)
            except InsertionError:
                return
            second = data.draw(drawn_partitions(first))
            if second is not None:
                outcomes[assert_crossing_oracle(first, second, "zy")] += 1
        check()
        assert outcomes["crossing"] and outcomes["accepted"], outcomes

    @given(small_sgs(), seed_functions())
    @settings(max_examples=60, deadline=None)
    def test_seed_function_partitions(self, sg, function):
        try:
            partition = compute_insertion_sets(sg, function)
        except InsertionError:
            return
        assert_crossing_oracle(sg, partition, "zz")


class TestPlannedCounts:
    @given(handshake_sgs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_block_assignments(self, sg, data):
        """The counts do not rest on the checks: with the copy and
        crossing checks off, every assignment that still plans is
        counted exactly."""
        partition = data.draw(assigned_partitions(sg))
        with mock.patch.object(insertion, "_check_copies",
                               lambda *args: None), \
                mock.patch.object(insertion, "_check_crossing",
                                  lambda *args: None):
            try:
                plan = plan_insertion(sg, partition, "zz",
                                      require_csc=False)
            except InsertionError:
                return
            assert_counts_exact(sg, plan)


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
            assert_crossing_oracle(sg, partition, signal)
            if assert_same_insertion(sg, partition, signal) is not None:
                accepted += 1
        assert accepted
        if name != "hazard":
            # later candidates run on graphs split by earlier insertions
            assert len(sizes) > 1
