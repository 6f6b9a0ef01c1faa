"""I-partitions: insertion sets for a new signal realizing a function.

§3.2 of the paper: a boolean function ``f`` over the current signals
bipartitions the states into ``S1`` (``f = 1``) and ``S0``.  To insert a
signal ``x`` that realizes ``f``, two more state sets are needed —
``ER(x+) ⊆ S1`` and ``ER(x-) ⊆ S0`` — in which the new signal is excited.
They are grown from the *input borders* (states where ``f`` has just
changed value) by an iterative repair procedure:

1. start from ``IB(f+)`` / ``IB(f-)``;
2. **well-formedness** — no arcs may enter an excitation region from
   elsewhere in the same half-space (otherwise the encoding of ``x``
   would be inconsistent): pull such predecessors in;
3. **SIP (diamond) closure** — both paths of every state diamond must
   cross the region boundary the same number of times, otherwise the two
   interleavings would disagree on whether ``x`` fired: pull the
   deficient side state in;
4. **I/O preservation** — an input event must never have to wait for
   ``x``: if an input exits the region into the same half-space, pull
   the target in.

Growth fails — the divisor is rejected — when a repair would have to
pull in a state of the opposite half-space ("calculation stops if
ER(x+) intersects with S0", §3.2).  The procedure is a fixpoint: sets
only grow and are bounded by the half-space, so it terminates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.boolean.sop import SopCover
from repro.errors import InsertionError
from repro.sg.graph import State, StateGraph


@dataclass
class IPartition:
    """A validated four-block partition for inserting signal ``x``.

    Blocks: ``er_plus`` (x+ excited), ``s1`` (x stable 1), ``er_minus``
    (x- excited), ``s0`` (x stable 0).  ``function`` is the seed
    function; the signal's final logic is *resynthesized* after
    insertion and may differ (that is the paper's boolean-division
    effect).
    """

    function: SopCover
    er_plus: FrozenSet[State]
    er_minus: FrozenSet[State]
    s1: FrozenSet[State]   # f=1 states outside er_plus
    s0: FrozenSet[State]   # f=0 states outside er_minus

    def block_of(self, state: State) -> str:
        if state in self.er_plus:
            return "S+"
        if state in self.er_minus:
            return "S-"
        if state in self.s1:
            return "S1"
        if state in self.s0:
            return "S0"
        raise InsertionError(f"state {state!r} not in any block")

    def initial_value(self, state: State) -> int:
        """Value of ``x`` when entering this state 'fresh'.

        ``S+`` states start at 0 (x rises there), ``S-`` states at 1.
        """
        block = self.block_of(state)
        return 1 if block in ("S1", "S-") else 0

    def summary(self) -> str:
        return (f"|S+|={len(self.er_plus)} |S1|={len(self.s1)} "
                f"|S-|={len(self.er_minus)} |S0|={len(self.s0)}")


_ALLOWED_CROSSINGS = {
    ("S0", "S0"), ("S0", "S+"),
    ("S+", "S+"), ("S+", "S1"), ("S+", "S-"),
    ("S1", "S1"), ("S1", "S-"),
    ("S-", "S-"), ("S-", "S0"), ("S-", "S+"),
}


def compute_insertion_sets(sg: StateGraph, function: SopCover,
                           max_rounds: int = 10_000) -> IPartition:
    """Grow and validate the insertion sets for ``function``.

    Raises :class:`InsertionError` when no legal I-partition exists for
    this function (growth collides with the opposite half-space, the
    function is constant on the reachable states, or the final partition
    violates the allowed block crossings).
    """
    ones: Set[State] = set()
    for state in sg.states:
        if function.evaluate(sg.code(state)):
            ones.add(state)
    return compute_insertion_sets_from_states(
        sg, ones, function=function, max_rounds=max_rounds)


def compute_insertion_sets_from_states(sg: StateGraph,
                                       ones: Set[State],
                                       function: Optional[SopCover] = None,
                                       max_rounds: int = 10_000) -> IPartition:
    """Grow insertion sets from an explicit target block of states.

    This is the entry point for *state-encoding* insertions (CSC
    solving): conflicting states share their binary code, so no
    function of the existing signals can separate them — the block must
    be given extensionally.  ``function`` is recorded for reporting
    when provided (the mapper's combinational seeds).
    """
    label = (function.to_string() if function is not None
             else f"<{len(ones)}-state block>")
    ones = set(ones)
    zeros = {s for s in sg.states if s not in ones}
    if not ones or not zeros:
        raise InsertionError(
            f"insertion block {label} is constant on the reachable "
            "states")

    er_plus = input_border(sg, ones)
    er_minus = input_border(sg, zeros)
    if not er_plus or not er_minus:
        raise InsertionError(
            f"insertion block {label} never changes value")

    er_plus = _grow(sg, er_plus, ones, "ER(x+)", max_rounds)
    er_minus = _grow(sg, er_minus, zeros, "ER(x-)", max_rounds)

    partition = IPartition(
        function=function if function is not None else SopCover.zero(),
        er_plus=frozenset(er_plus),
        er_minus=frozenset(er_minus),
        s1=frozenset(ones - er_plus),
        s0=frozenset(zeros - er_minus),
    )
    _validate_crossings(sg, partition)
    return partition


def input_border(sg: StateGraph, half: Set[State]) -> Set[State]:
    """States of ``half`` with a predecessor outside it (IB, §2.3)."""
    border = set()
    for state in half:
        for _, source in sg.predecessors(state):
            if source not in half:
                border.add(state)
                break
    return border


def _grow(sg: StateGraph, seed: Set[State], half: Set[State],
          label: str, max_rounds: int) -> Set[State]:
    """Fixpoint of the well-formedness / diamond / input-delay repairs
    inside one half-space."""
    region = set(seed)
    diamond_index = sg.diamond_index()

    def pull(state: State, reason: str) -> bool:
        if state in region:
            return False
        if state not in half:
            raise InsertionError(
                f"{label} must absorb {state!r} ({reason}) but it lies "
                "in the opposite half-space")
        region.add(state)
        return True

    for _ in range(max_rounds):
        changed = False
        # Rule 2: well-formedness — no arcs from half∖region into region.
        # Snapshots are iterated in repr order: the fixpoint itself is
        # monotone (pull only adds), but which violation raises first —
        # and hence the error message — must not depend on the hash
        # seed.
        for state in sorted(region, key=repr):
            for _, source in sg.predecessors(state):
                if source in half and source not in region:
                    changed |= pull(source, "well-formedness")
        # Rule 4: input events must not be delayed by the insertion —
        # an input arc leaving the region must stay observable, so its
        # target is pulled into the region (extending ER "beyond the
        # ER(b*)" in the paper's words).
        for state in sorted(region, key=repr):
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
        # Rule 3: diamond (SIP) closure — both interleavings must cross
        # the region boundary equally often.  Only diamonds touching
        # the region can be out of balance.
        touched = []
        seen_ids: Set[int] = set()
        for state in sorted(region, key=repr):
            for diamond in diamond_index.get(state, ()):
                if id(diamond) not in seen_ids:
                    seen_ids.add(id(diamond))
                    touched.append(diamond)
        for diamond in touched:
            in_region = [s in region for s in
                         (diamond.bottom, diamond.side_a, diamond.side_b,
                          diamond.top)]
            bottom_in, side_a_in, side_b_in, top_in = in_region
            # Interior closure: with both sides excited the top must be
            # too — otherwise the second of the two concurrent events
            # is enabled at the pre-fire level in one corner and
            # suppressed in the other (a persistency violation of that
            # event, not of x).
            if side_a_in and side_b_in and not top_in:
                changed |= pull(diamond.top, "interior diamond closure")
                continue
            exits_a = (int(bottom_in and not side_a_in)
                       + int(side_a_in and not top_in))
            exits_b = (int(bottom_in and not side_b_in)
                       + int(side_b_in and not top_in))
            if exits_a == exits_b:
                continue
            if exits_a > exits_b:
                changed |= pull(diamond.side_b, "diamond closure")
            else:
                changed |= pull(diamond.side_a, "diamond closure")
        if not changed:
            return region
    raise InsertionError(f"{label} growth did not converge")


def _validate_crossings(sg: StateGraph, partition: IPartition) -> None:
    """Check the I-partition crossing rules (§2.3):
    ``S0 → S+ → S1 → S- → S0`` plus ``S+ → S-`` and ``S- → S+``."""
    for state in sg.states:
        source_block = partition.block_of(state)
        for event, target in sg.successors(state):
            target_block = partition.block_of(target)
            if (source_block, target_block) not in _ALLOWED_CROSSINGS:
                raise InsertionError(
                    f"arc {event} crosses {source_block} → "
                    f"{target_block}, which is not allowed in an "
                    "I-partition")
