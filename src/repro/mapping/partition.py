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
ER(x+) intersects with S0", §3.2).  Every round that changes anything
adds a state of a finite half-space, so growth terminates.

All four blocks are bitsets over the graph's state indices, and growth
visits states in index order (reachability discovery order, which
signal insertion preserves), so the partition and the first violation
reported never depend on the hash seed.  Rules 2 and 4 run on the
states added since their last pass — rule 2 as one predecessor image,
rule 4 raising at the first offending arc of the lowest-index state —
and the diamond rule runs sequentially over the diamonds touching the
region, through the encoding's index-keyed diamond table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro._util import popcount
from repro.boolean.sop import SopCover
from repro.errors import InsertionError
from repro.sg.graph import StateGraph


@dataclass
class IPartition:
    """A validated four-block partition for inserting signal ``x``.

    Blocks, as bitsets over the graph's state indices: ``er_plus`` (x+
    excited), ``s1`` (x stable 1), ``er_minus`` (x- excited), ``s0`` (x
    stable 0).  ``function`` is the seed function; the signal's final
    logic is *resynthesized* after insertion and may differ (that is
    the paper's boolean-division effect).
    """

    function: SopCover
    er_plus: int
    er_minus: int
    s1: int   # f=1 states outside er_plus
    s0: int   # f=0 states outside er_minus

    def block_of(self, index: int) -> str:
        bit = 1 << index
        if self.er_plus & bit:
            return "S+"
        if self.er_minus & bit:
            return "S-"
        if self.s1 & bit:
            return "S1"
        if self.s0 & bit:
            return "S0"
        raise InsertionError(f"state {index} not in any block")

    def initial_value(self, index: int) -> int:
        """Value of ``x`` when entering state ``index`` 'fresh'.

        ``S+`` states start at 0 (x rises there), ``S-`` states at 1.
        """
        block = self.block_of(index)
        return 1 if block in ("S1", "S-") else 0

    def summary(self) -> str:
        return (f"|S+|={popcount(self.er_plus)} |S1|={popcount(self.s1)} "
                f"|S-|={popcount(self.er_minus)} |S0|={popcount(self.s0)}")


_ALLOWED_CROSSINGS = {
    ("S0", "S0"), ("S0", "S+"),
    ("S+", "S+"), ("S+", "S1"), ("S+", "S-"),
    ("S1", "S1"), ("S1", "S-"),
    ("S-", "S-"), ("S-", "S0"), ("S-", "S+"),
}


def compute_insertion_sets(sg: StateGraph, function: SopCover) -> IPartition:
    """Grow and validate the insertion sets for ``function``.

    Raises :class:`InsertionError` when no legal I-partition exists for
    this function (growth collides with the opposite half-space, the
    function is constant on the reachable states, or the final partition
    violates the allowed block crossings).
    """
    return compute_insertion_sets_from_states(
        sg, sg.encoding().cover_bits(function), function=function)


def compute_insertion_sets_from_states(sg: StateGraph, ones: int,
                                       function: Optional[SopCover] = None
                                       ) -> IPartition:
    """Grow insertion sets from an explicit target block of states,
    given as a bitset over the graph's state indices.

    This is the entry point for *state-encoding* insertions (CSC
    solving): conflicting states share their binary code, so no
    function of the existing signals can separate them — the block must
    be given extensionally.  ``function`` is recorded for reporting
    when provided (the mapper's combinational seeds).
    """
    enc = sg.encoding()
    ones &= enc.full_mask
    zeros = enc.full_mask & ~ones
    label = (function.to_string() if function is not None
             else f"<{popcount(ones)}-state block>")
    if not ones or not zeros:
        raise InsertionError(
            f"insertion block {label} is constant on the reachable "
            "states")

    er_plus = input_border(sg, ones)
    er_minus = input_border(sg, zeros)
    if not er_plus or not er_minus:
        raise InsertionError(
            f"insertion block {label} never changes value")

    er_plus = _grow(sg, er_plus, ones, "ER(x+)")
    er_minus = _grow(sg, er_minus, zeros, "ER(x-)")

    partition = IPartition(
        function=function if function is not None else SopCover.zero(),
        er_plus=er_plus, er_minus=er_minus,
        s1=ones & ~er_plus, s0=zeros & ~er_minus)
    _validate_crossings(sg, partition)
    return partition


def input_border(sg: StateGraph, half: int) -> int:
    """States of ``half`` with a predecessor outside it (IB, §2.3)."""
    enc = sg.encoding()
    return half & enc.successor_image(enc.full_mask & ~half)


def _grow(sg: StateGraph, seed: int, half: int, label: str) -> int:
    """Fixpoint of the well-formedness / diamond / input-delay repairs
    inside one half-space."""
    enc = sg.encoding()
    states, arcs = enc.states, enc.arcs
    diamonds, table = enc.diamonds(), enc.diamond_table()
    inputs = {event for event in enc.events if sg.is_input_event(event)}
    with_inputs = 0
    for event in inputs:
        with_inputs |= enc.event_bits(event)
    region = seed
    formed = delayed = 0      # states rules 2 / 4 have already repaired

    def pull(index: int, reason: str) -> int:
        if not (half >> index) & 1:
            raise InsertionError(
                f"{label} must absorb {states[index]!r} ({reason}) but "
                "it lies in the opposite half-space")
        return region | 1 << index

    while True:
        before = region
        # Rule 2: well-formedness — no arcs from half∖region into
        # region.  Repairs only add states of the half-space, so one
        # predecessor image of the new states does the whole pass.
        fresh, formed = region & ~formed, region
        region |= enc.predecessor_image(fresh) & half
        # Rule 4: input events must not be delayed by the insertion —
        # an input arc leaving the region must stay observable, so its
        # target is pulled into the region (extending ER "beyond the
        # ER(b*)" in the paper's words).
        fresh, delayed = region & ~delayed, region
        for i in enc.iter_bits(fresh & with_inputs):
            for event, j in arcs[i]:
                if event not in inputs:
                    continue
                if not (half >> j) & 1:
                    raise InsertionError(
                        f"{label}: input event {event} would be delayed "
                        f"at {states[i]!r} and its target leaves the "
                        "half-space")
                region |= 1 << j
        # Rule 3: diamond (SIP) closure — both interleavings must cross
        # the region boundary equally often.  Only diamonds touching
        # the region can be out of balance; they are visited by their
        # lowest region corner, then by position.
        touched = []
        seen = set()
        for i in enc.iter_bits(region):
            for position in table[i]:
                if position not in seen:
                    seen.add(position)
                    touched.append(diamonds[position])
        for bottom, _, _, side_a, side_b, top in touched:
            bottom_in = (region >> bottom) & 1
            side_a_in = (region >> side_a) & 1
            side_b_in = (region >> side_b) & 1
            top_in = (region >> top) & 1
            # Interior closure: with both sides excited the top must be
            # too — otherwise the second of the two concurrent events
            # is enabled at the pre-fire level in one corner and
            # suppressed in the other (a persistency violation of that
            # event, not of x).
            if side_a_in and side_b_in and not top_in:
                region = pull(top, "interior diamond closure")
                continue
            exits_a = ((bottom_in and not side_a_in)
                       + (side_a_in and not top_in))
            exits_b = ((bottom_in and not side_b_in)
                       + (side_b_in and not top_in))
            if exits_a > exits_b:
                region = pull(side_b, "diamond closure")
            elif exits_b > exits_a:
                region = pull(side_a, "diamond closure")
        if region == before:
            return region


def _validate_crossings(sg: StateGraph, partition: IPartition) -> None:
    """Check the I-partition crossing rules (§2.3):
    ``S0 → S+ → S1 → S- → S0`` plus ``S+ → S-`` and ``S- → S+``.

    The sources of forbidden crossings are found with four predecessor
    images; the first of them (lowest index, first arc) is reported.
    """
    enc = sg.encoding()
    image = enc.predecessor_image
    er_plus, er_minus, s1, s0 = (partition.er_plus, partition.er_minus,
                                 partition.s1, partition.s0)
    bad = ((s0 & image(s1 | er_minus)) | (er_plus & image(s0))
           | (s1 & image(s0 | er_plus)) | (er_minus & image(s1)))
    if not bad:
        return
    source = (bad & -bad).bit_length() - 1
    source_block = partition.block_of(source)
    for event, target in enc.arcs[source]:
        target_block = partition.block_of(target)
        if (source_block, target_block) not in _ALLOWED_CROSSINGS:
            raise InsertionError(
                f"arc {event} crosses {source_block} → "
                f"{target_block}, which is not allowed in an "
                "I-partition")
