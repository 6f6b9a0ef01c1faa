"""Event insertion by state splitting (§2.3, Figure 3).

Given an :class:`~repro.mapping.partition.IPartition`, a new signal
``x`` is inserted into the state graph:

* every state of ``ER(x+)`` splits into a pre-fire copy (``x = 0``) and
  a post-fire copy (``x = 1``) connected by an ``x+`` arc;
* symmetrically for ``ER(x-)``;
* every other state gets the single copy its block dictates
  (``S1 → x=1``, ``S0 → x=0``);
* an original arc ``s → t`` is replicated at every level where *both*
  endpoints have a copy — events that leave an excitation region toward
  the other level fire only after ``x`` (they are *delayed*, i.e. they
  acknowledge the new signal).

An insertion is decided before it is built.  :func:`plan_insertion`
finds the reachable copies with one frontier sweep over per-level
bitsets of the original states (replicated arcs stay on their level,
``x+`` lifts ``S+`` copies to level 1, ``x-`` drops ``S-`` copies to
level 0), checks the trial on those bitsets, and counts the states and
the CSC conflict pairs of the graph it would build.  Only copies of
states that already share a code
(:meth:`~repro.sg.encoding.Encoding.code_groups`) on one level can
conflict; a copy enables those of its state's events whose targets have
a copy on its level, plus ``x+`` on ``S+`` at level 0 and ``x-`` on
``S-`` at level 1.

The plan's one speed-independence check is the *crossing test*.
Consistency, determinism and commutativity hold by construction: each
copy's code is its state's code with ``x`` set by level, ``x`` arcs
flip only ``x``, and replicated arcs stay on their level.  The one
violation a grown partition leaves is an arc from ``ER(x+)`` into
``ER(x-)`` at level 0, or back at level 1: it disables ``x``'s own
excitation.  The plan rejects the copies
``reach[0] & S+ & pred(S-) | reach[1] & S- & pred(S+)``.

:func:`insert_signal` builds the planned graph directly in the
int-indexed layout.  The whole SI property suite runs once, on each
graph a step commits to (:func:`verify_insertion`).  A violation there
is a fault of the plan, not a bad candidate, so it raises
:class:`~repro.errors.SpeedIndependenceError`, which no trial loop
catches.  Soundness therefore never depends on the growth heuristics
in :mod:`repro.mapping.partition`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro._util import popcount
from repro.errors import InsertionError, SpeedIndependenceError
from repro.mapping.partition import IPartition
from repro.sg.encoding import Encoding
from repro.sg.graph import State, StateGraph
from repro.sg.properties import check_speed_independence, csc_violations


@dataclass
class InsertionPlan:
    """A trial insertion of signal ``name`` along ``partition``,
    decided on bitsets before anything is built.

    ``levels[l]`` holds the original states with a copy at level ``l``
    of the new signal, and ``reach[l]`` those whose level-``l`` copy is
    reachable from ``start = (index, level)``, the initial state's copy.
    ``conflicts`` counts the CSC conflict pairs of the graph the plan
    builds, and :attr:`copies` its states.
    """

    partition: IPartition
    name: str
    levels: Tuple[int, int]
    reach: Tuple[int, int]
    start: Tuple[int, int]
    conflicts: int

    @property
    def copies(self) -> int:
        return popcount(self.reach[0]) + popcount(self.reach[1])


def plan_insertion(sg: StateGraph, partition: IPartition, name: str,
                   require_csc: bool = True) -> InsertionPlan:
    """Decide the insertion of ``name`` along ``partition`` without
    building it; raise :class:`InsertionError` to reject it.

    The checks, in order:

    1. the name is fresh and every state lies in a block;
    2. every original state keeps at least one reachable copy (no
       behaviour was amputated);
    3. input events are never delayed: every input event enabled at an
       original state is enabled at *every* reachable copy of it;
    4. the crossing test (see the module docstring);
    5. the new graph has no CSC conflict, unless ``require_csc`` is
       false;
    6. the inserted signal actually switches (it would otherwise be
       useless as a decomposition signal).

    Only a rejection by check 5 builds the graph, to name its
    conflicts.
    """
    if name in sg.signals:
        raise InsertionError(f"signal name {name!r} already in use")
    enc = sg.encoding()
    lift, drop = partition.er_plus, partition.er_minus
    split = lift | drop
    one = partition.s1 & ~split
    zero = partition.s0 & ~split & ~one
    unassigned = enc.full_mask & ~(split | one | zero)
    if unassigned:
        state = enc.states[(unassigned & -unassigned).bit_length() - 1]
        raise InsertionError(f"state {state!r} not in any block")
    # levels[l]: original states with a copy at level l of the new signal
    levels = (split | zero, split | one)
    initial = enc.index[sg.initial]
    start = (initial, partition.initial_value(initial))
    reach = _reachable_copies(enc, levels, lift, drop, start)
    _check_copies(sg, enc, levels, reach, name)
    _check_crossing(enc, lift, drop, reach, name)
    plan = InsertionPlan(partition, name, levels, reach, start,
                         _conflict_count(sg, enc, levels, reach, lift,
                                         drop))
    if require_csc and plan.conflicts:
        new_sg = _split_graph(sg, enc, plan)
        raise InsertionError(
            f"insertion of {name!r} breaks the specification: "
            + "; ".join(csc_violations(new_sg)[:3]))
    if not (lift & reach[0] or drop & reach[1]):
        raise InsertionError(f"inserted signal {name!r} never fires")
    return plan


def insert_signal(sg: StateGraph, partition: IPartition, name: str,
                  require_csc: bool = True,
                  max_states: Optional[int] = None,
                  plan: Optional[InsertionPlan] = None) -> StateGraph:
    """Insert a new (internal output) signal according to the partition.

    The insertion is decided by :func:`plan_insertion` (``plan``, when
    given, is its verdict on the same arguments) and rejected when the
    graph would have more than ``max_states`` states; only then is the
    graph built.  State identities in the result graph are
    ``(old_state, level)`` tuples, ordered by original state with
    ``(s, 0)`` before ``(s, 1)``.
    """
    if plan is None:
        plan = plan_insertion(sg, partition, name, require_csc)
    if max_states is not None and plan.copies > max_states:
        raise InsertionError(
            f"insertion of {name!r} would reach {plan.copies} states, "
            f"more than {max_states}")
    return _split_graph(sg, sg.encoding(), plan)


def verify_insertion(sg: StateGraph, name: str,
                     require_csc: bool = True) -> None:
    """The commit check: the whole SI property suite (CSC unless
    ``require_csc`` is false) on a graph a step commits to, after the
    insertion of ``name``.  A violation means a plan accepted what the
    suite rejects, so it raises :class:`SpeedIndependenceError`."""
    report = check_speed_independence(sg, csc=require_csc)
    violations = report.all_violations()
    if violations:
        raise SpeedIndependenceError(
            f"committed insertion of {name!r} breaks the specification: "
            + "; ".join(violations[:3]))


def fresh_name(sg: StateGraph, prefix: str, index: int) -> str:
    """``prefix`` and ``index`` as a new signal's name, the index raised
    past any name the graph already has."""
    taken = set(sg.signals)
    while f"{prefix}{index}" in taken:
        index += 1
    return f"{prefix}{index}"


def _reachable_copies(enc: Encoding, levels: Tuple[int, int], lift: int,
                      drop: int, start: Tuple[int, int]) -> Tuple[int, int]:
    """Per-level bitsets of the original states whose copy at that level
    is reachable from the copy ``start = (index, level)``: one frontier
    sweep in which replicated arcs stay on their level, ``x+`` lifts
    ``lift`` states to level 1 and ``x-`` drops ``drop`` states to
    level 0."""
    succ = enc.succ_bits
    reach = [0, 0]
    frontier = [0, 0]
    frontier[start[1]] = 1 << start[0]
    while frontier[0] or frontier[1]:
        image = [0, 0]
        for at in (0, 1):
            reach[at] |= frontier[at]
            for i in enc.iter_bits(frontier[at]):
                image[at] |= succ[i]
        frontier = [((image[0] & levels[0]) | (frontier[1] & drop))
                    & ~reach[0],
                    ((image[1] & levels[1]) | (frontier[0] & lift))
                    & ~reach[1]]
    return reach[0], reach[1]


def _check_copies(sg: StateGraph, enc: Encoding, levels: Tuple[int, int],
                  reach: Tuple[int, int], name: str) -> None:
    """Checks 2 and 3 of :func:`plan_insertion`."""
    states = enc.states
    missing = enc.full_mask & ~(reach[0] | reach[1])
    if missing:
        state = states[(missing & -missing).bit_length() - 1]
        raise InsertionError(
            f"insertion of {name!r} makes original state {state!r} "
            "unreachable")
    bit, masks = enc.event_masks()
    inputs = 0
    for event, mask in bit.items():
        if sg.is_input_event(event):
            inputs |= mask
    if not inputs:
        return
    events = sorted(bit)
    for i, arcs in enumerate(enc.arcs):
        wanted = masks[i] & inputs
        for at in (0, 1):
            if not wanted or not (reach[at] >> i) & 1:
                continue
            kept = 0
            for event, j in arcs:
                if (levels[at] >> j) & 1:
                    kept |= bit[event]
            delayed = wanted & ~kept
            if delayed:
                event = events[(delayed & -delayed).bit_length() - 1]
                raise InsertionError(
                    f"input event {event} is delayed by {name!r} at "
                    f"state {states[i]!r} (level {at})")


def _check_crossing(enc: Encoding, lift: int, drop: int,
                    reach: Tuple[int, int], name: str) -> None:
    """Check 4 of :func:`plan_insertion`: no reachable copy excited
    for ``x`` has an arc into the other excitation region on its level.
    The rejection names the first such copy and arc, in the words the
    output persistency check would use."""
    for level, here, there in ((0, lift, drop), (1, drop, lift)):
        crossing = reach[level] & here & enc.predecessor_image(there)
        if crossing:
            i = (crossing & -crossing).bit_length() - 1
            event = next(event for event, j in enc.arcs[i]
                         if (there >> j) & 1)
            sign, other = "+-" if level == 0 else "-+"
            raise InsertionError(
                f"insertion of {name!r} breaks the specification: "
                f"output event {name}{sign} enabled at "
                f"{(enc.states[i], level)!r} is disabled by {event}, "
                f"which crosses from ER({name}{sign}) into "
                f"ER({name}{other})")


def _conflict_count(sg: StateGraph, enc: Encoding,
                    levels: Tuple[int, int], reach: Tuple[int, int],
                    lift: int, drop: int) -> int:
    """The CSC conflict pairs of the graph :func:`_split_graph` builds:
    per code group and level, the pairs of reachable copies whose
    enabled output events differ (see the module docstring)."""
    groups = enc.code_groups()
    if not groups:
        return 0
    bit, masks = enc.event_masks()
    outputs = enc.signal_events_mask(set(sg.outputs))
    fires = 1 << len(bit)  # x's own event; the levels never share a code
    succ, arcs = enc.succ_bits, enc.arcs
    count = 0
    for level, excited in ((0, lift), (1, drop)):
        here, kept = reach[level], levels[level]
        delaying = enc.full_mask & ~kept
        for group in groups:
            sizes: Dict[int, int] = {}
            for i in group:
                if not (here >> i) & 1:
                    continue
                if succ[i] & delaying:
                    mask = 0
                    for event, j in arcs[i]:
                        if (kept >> j) & 1:
                            mask |= bit[event]
                    mask &= outputs
                else:
                    mask = masks[i] & outputs
                if (excited >> i) & 1:
                    mask |= fires
                sizes[mask] = sizes.get(mask, 0) + 1
            total = sum(sizes.values())
            count += total * (total - 1) // 2
            for size in sizes.values():
                count -= size * (size - 1) // 2
    return count


def _split_graph(sg: StateGraph, enc: Encoding,
                 plan: InsertionPlan) -> StateGraph:
    """Build the planned graph from the reachable copies: ``(s, 0)``
    before ``(s, 1)``, each copy's arcs as its ``x`` arc (if any) then
    the replicated arcs in original order, and every predecessor list
    as its ``x`` arc then the replicated arcs in source order."""
    name, levels, reach = plan.name, plan.levels, plan.reach
    outputs = list(sg.outputs) + [name]
    at = sorted(sg.signals + (name,)).index(name)
    low, xbit = (1 << at) - 1, 1 << at
    n = len(enc.states)
    ids: List[State] = []
    codes: List[int] = []
    copy: Tuple[List[int], List[int]] = ([-1] * n, [-1] * n)
    for i, state in enumerate(enc.states):
        code = enc.codes[i]
        code = (code & low) | ((code >> at) << (at + 1))
        for level in (0, 1):
            if (reach[level] >> i) & 1:
                copy[level][i] = len(ids)
                ids.append((state, level))
                codes.append(code | xbit if level else code)
    plus, minus = f"{name}+", f"{name}-"
    succ: List[Tuple[Tuple[str, int], ...]] = []
    pred: List[List[Tuple[str, int]]] = [[] for _ in ids]
    for i, arcs in enumerate(enc.arcs):
        for level, switch, event in ((0, plan.partition.er_plus, plus),
                                     (1, plan.partition.er_minus, minus)):
            k = copy[level][i]
            if k < 0:
                continue
            mine, other = copy[level], copy[1 - level]
            replicated = tuple((label, mine[j]) for label, j in arcs
                               if (levels[level] >> j) & 1)
            if (switch >> i) & 1:
                pred[other[i]].append((event, k))
                succ.append(((event, other[i]),) + replicated)
            else:
                succ.append(replicated)
    for k, arcs in enumerate(succ):
        for label, j in arcs:
            if label != plus and label != minus:
                pred[j].append((label, k))
    start = plan.start
    return StateGraph.from_arrays(
        sg.name, sg.inputs, outputs, ids, codes, succ,
        [tuple(arcs) for arcs in pred], copy[start[1]][start[0]])
