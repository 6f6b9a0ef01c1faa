"""Event insertion by state splitting (§2.3, Figure 3).

Given a validated :class:`~repro.mapping.partition.IPartition`, a new
signal ``x`` is inserted into the state graph:

* every state of ``ER(x+)`` splits into a pre-fire copy (``x = 0``) and
  a post-fire copy (``x = 1``) connected by an ``x+`` arc;
* symmetrically for ``ER(x-)``;
* every other state gets the single copy its block dictates
  (``S1 → x=1``, ``S0 → x=0``);
* an original arc ``s → t`` is replicated at every level where *both*
  endpoints have a copy — events that leave an excitation region toward
  the other level fire only after ``x`` (they are *delayed*, i.e. they
  acknowledge the new signal).

The split runs on the graph's packed arrays.  One frontier sweep over
per-level bitsets of the original states finds the reachable copies
*before* anything is built — replicated arcs stay on their level,
``x+`` lifts ``S+`` copies to level 1, ``x-`` drops ``S-`` copies to
level 0 — so no unreachable copy is ever created or pruned.  The new
graph is then built directly in the int-indexed layout: each copy's
code is the original code with the new signal's bit inserted.

The result is re-verified from scratch (consistency, determinism,
commutativity, output persistency including the new signal, CSC, and
input preservation); any violation raises :class:`InsertionError`, which
the mapper treats as "reject this divisor".  Soundness therefore never
depends on the growth heuristics in :mod:`repro.mapping.partition`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro._util import popcount
from repro.errors import InsertionError
from repro.mapping.partition import IPartition
from repro.sg.encoding import Encoding
from repro.sg.graph import State, StateGraph
from repro.sg.properties import check_speed_independence


@dataclass
class InsertionChanges:
    """What a signal insertion did to the state graph.

    The summary is what incremental resynthesis consumes: a signal
    whose excitation/quiescent zone avoids every split state (and sits
    at a single level of the new signal per event) kept its covering
    problem intact and can carry its covers over to the new code space;
    everything else must be resynthesized.

    ``split`` and ``levels`` are bitsets over the *old* graph's state
    indices: ``split`` holds the states with both copies reachable (the
    ER(x+) / ER(x-) states of the partition, minus unreachable copies),
    ``levels[l]`` the unsplit states whose single copy sits at level
    ``l`` of the new signal.  ``copies[l][i]`` is the new graph's index
    of old state ``i``'s level-``l`` copy (``-1`` when it has none).
    """

    signal: str
    split: int
    levels: Tuple[int, int]
    copies: Tuple[List[int], List[int]]

    def __repr__(self) -> str:
        unsplit = popcount(self.levels[0] | self.levels[1])
        return (f"InsertionChanges({self.signal!r}, "
                f"split={popcount(self.split)}, unsplit={unsplit})")


@dataclass
class InsertionResult:
    """A signal insertion: the new state graph plus its change summary."""

    sg: StateGraph
    changes: InsertionChanges


def insert_signal(sg: StateGraph, partition: IPartition, name: str,
                  require_csc: bool = True) -> InsertionResult:
    """Insert a new (internal output) signal according to the partition.

    State identities in the result graph are ``(old_state, level)``
    tuples, ordered by original state with ``(s, 0)`` before
    ``(s, 1)``; the returned :class:`InsertionResult` pairs the graph
    with the :class:`InsertionChanges` summary that incremental
    resynthesis consumes.

    The insertion is verified, in order:

    1. every original state keeps at least one reachable copy (no
       behaviour was amputated);
    2. input events are never delayed: every input event enabled at an
       original state is enabled at *every* reachable copy of it;
    3. the new SG passes the whole SI property suite (consistency,
       determinism, commutativity, output persistency — including the
       inserted signal — and CSC unless ``require_csc`` is false);
    4. the inserted signal actually switches (it would otherwise be
       useless as a decomposition signal).

    Checks 1 and 2 run on the level bitsets, before the graph is built.
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
    new_sg, copies = _split_graph(sg, enc, levels, reach, lift, drop,
                                  start, name)

    report = check_speed_independence(new_sg)
    ok = report.implementable if require_csc else (
        report.speed_independent and not report.consistency)
    if not ok:
        raise InsertionError(
            f"insertion of {name!r} breaks the specification: "
            + "; ".join(report.all_violations()[:3]))
    if not (lift & reach[0] or drop & reach[1]):
        raise InsertionError(f"inserted signal {name!r} never fires")

    both = reach[0] & reach[1]
    changes = InsertionChanges(
        name, both, (reach[0] & ~both, reach[1] & ~both), copies)
    return InsertionResult(new_sg, changes)


def _reachable_copies(enc: Encoding, levels: Tuple[int, int], lift: int,
                      drop: int, start: Tuple[int, int]) -> List[int]:
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
    return reach


def _check_copies(sg: StateGraph, enc: Encoding, levels: Tuple[int, int],
                  reach: List[int], name: str) -> None:
    """Checks 1 and 2 of :func:`insert_signal` on the level bitsets."""
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


def _split_graph(sg: StateGraph, enc: Encoding, levels: Tuple[int, int],
                 reach: List[int], lift: int, drop: int,
                 start: Tuple[int, int], name: str
                 ) -> Tuple[StateGraph, Tuple[List[int], List[int]]]:
    """Build the split graph from the reachable copies: ``(s, 0)``
    before ``(s, 1)``, each copy's arcs as its ``x`` arc (if any) then
    the replicated arcs in original order, and every predecessor list
    as its ``x`` arc then the replicated arcs in source order.  Returns
    the graph and the new index of every copy, per level."""
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
        for level, switch, event in ((0, lift, plus), (1, drop, minus)):
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
    return StateGraph.from_arrays(
        sg.name, sg.inputs, outputs, ids, codes, succ,
        [tuple(arcs) for arcs in pred], copy[start[1]][start[0]]), copy
