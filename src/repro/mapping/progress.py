"""Progress analysis: Properties 3.1 and 3.2 of the paper.

Both properties are *filters over the original SG* — they are checked
before any insertion happens ("the conditions can be efficiently checked
without reconstructing the SG", §3.3), and prune divisors that either
cannot safely substitute into the target cover (3.1) or would inflate
the covers of other signals by more than one literal each (3.2).

In this implementation they guide candidate *ranking*; final soundness
comes from resynthesis plus full verification after the insertion, so a
filter that is slightly conservative or slightly optimistic only costs
search time, never correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.boolean.sop import SopCover
from repro.mapping.partition import IPartition
from repro.sg.graph import StateGraph
from repro.sg.regions import (ExcitationRegion, excitation_regions,
                              quiescent_region, switching_region)


def _extended_quiescent(sg: StateGraph, region: ExcitationRegion,
                        siblings: Sequence[ExcitationRegion],
                        partition: IPartition) -> int:
    """QR(a*)′ of Property 3.1, as a bitset.

    The restricted quiescent region extended with the excitation
    regions of the *following* transitions of the signal whenever the
    new signal's falling transition becomes a trigger for them (the
    falling edge of ``x`` then happens on the doorstep of — or inside —
    the next excitation, stretching the monotonicity obligation to it).

    A following ER is one entered directly from the quiescent region.
    Quiescent states themselves are never signal-excited (the stable
    closure excludes them by construction), so the following ERs are
    found through the region adjacency, not by scanning quiescent
    states for own-signal successor arcs; ``x-`` counts as a trigger
    when ``ER(x-)`` meets the next ER or any of its entry states.
    """
    enc = sg.encoding()
    quiescent = quiescent_region(sg, region, siblings)
    extended = quiescent
    signal = region.signal
    for direction in ("+", "-"):
        for er in excitation_regions(sg, signal + direction):
            if er.bits & quiescent:
                continue
            doorstep = enc.predecessor_image(er.bits)
            if not doorstep & quiescent:
                continue          # not a following ER of this region
            if (er.bits | doorstep) & partition.er_minus:
                extended |= er.bits
    return extended


@dataclass
class Property31Result:
    """Outcome of the Property 3.1 check for one target region."""

    holds: bool
    reasons: List[str]

    def __bool__(self) -> bool:
        return self.holds


def check_property_31(sg: StateGraph, region: ExcitationRegion,
                      siblings: Sequence[ExcitationRegion],
                      cover: SopCover, divisor: SopCover,
                      quotient: SopCover, remainder: SopCover,
                      partition: IPartition) -> Property31Result:
    """Property 3.1: ``c(a*) = f·g + r`` stays a monotonous cover when
    ``f`` is replaced by the inserted signal ``x``.

    The four conditions, with ``S+ = ER(x+)`` and ``S- = ER(x-)``:

    1. inside ``ER(a*)``, states covered *only* by ``f·g`` must not sit
       in ``ER(x+)`` unless every successor inside the region also does
       (``x`` must have risen by the time the cover relies on it);
    2. outside ``ER(a*) ∪ QR(a*)′`` the cube ``x·g`` must not evaluate
       to 1 — no state there may be in ``ER(x-) ∩ g`` (where ``x`` is
       still 1 but ``f`` already 0);
    3. inside ``QR(a*)``, states covered only by ``f·g`` must not be in
       ``ER(x+)`` (the cover would rise late, breaking monotonicity);
    4. predecessors of ``QR(a*)′ ∩ ER(x-) ∩ g`` states must be covered
       by ``r + g`` (monotonous fall of ``x·g``).

    Each condition is one bit test over the partition, the region, its
    quiescent regions and the states where ``f``, ``g`` and ``r`` are 1.
    """
    enc = sg.encoding()
    reasons: List[str] = []
    er = region.bits
    quiescent = quiescent_region(sg, region, siblings)
    extended = _extended_quiescent(sg, region, siblings, partition)
    inside = er | extended
    g = enc.cover_bits(quotient)
    r = enc.cover_bits(remainder)
    fg_only = enc.cover_bits(divisor) & g & ~r
    er_plus, er_minus = partition.er_plus, partition.er_minus

    if er & fg_only & er_plus & enc.predecessor_image(er & ~er_plus):
        reasons.append(
            f"cond1: {region.event} relies on f·g at a state "
            "where x may still be 0")
    if er_minus & g & ~inside:
        reasons.append(
            "cond2: x·g can evaluate to 1 outside ER ∪ QR′ "
            f"of {region.event}")
    if quiescent & fg_only & er_plus:
        reasons.append(
            f"cond3: cover of {region.event} would rise late in its "
            "quiescent region")
    hot = extended & er_minus & g
    if hot & enc.successor_image(enc.full_mask & ~(r | g)):
        reasons.append(
            f"cond4: non-monotonous fall of x·g into "
            f"QR′ of {region.event}")
    return Property31Result(holds=not reasons, reasons=reasons)


@dataclass
class Property32Result:
    """Outcome of the Property 3.2 estimate for one other event."""

    event: str
    becomes_trigger: bool
    bounded: bool          # Property 3.2 conditions hold
    replaces_trigger: bool  # best case: substitutes an old trigger


def _becomes_trigger(sg: StateGraph, region: ExcitationRegion,
                     partition: IPartition) -> Tuple[bool, bool]:
    """Does an ``x`` transition become a trigger for this region, and
    if so, does it *replace* an existing trigger?

    ``x±`` triggers ``b*`` when the event enters the region's states at
    the moment ``x`` fires — before insertion this is approximated by
    the excitation region overlapping the insertion set while the
    region's own trigger arcs cross the insertion boundary.
    """
    overlap = region.bits & (partition.er_plus | partition.er_minus)
    if not overlap:
        return False, False
    # x fires inside the region: since b* fires *from* the region, the
    # post-x copy re-excites b*, making x a trigger whenever some
    # region state is only entered at the pre-x level.  An old trigger
    # entering an overlapping state from outside the region enters at
    # the pre-x level; x then fires inside the region and becomes the
    # last event before b*, replacing that trigger for that entry.
    replaced = bool(sg.encoding().predecessor_image(overlap)
                    & ~region.bits)
    return True, replaced


def check_property_32(sg: StateGraph, region: ExcitationRegion,
                      siblings: Sequence[ExcitationRegion],
                      cover: SopCover,
                      partition: IPartition) -> Property32Result:
    """Property 3.2: when ``x`` becomes a trigger for ``b*``, the cover
    ``c(b*)·x`` still satisfies the MC conditions — so the cover of
    ``b*`` grows by at most one literal — provided:

    1. ``x±`` is a trigger for ``b*`` (otherwise nothing changes);
    2. ``ER(x±) ∩ SR(b*) = ∅``;
    3. ``c(b*)`` does not cover any state of the opposite excitation
       region of ``x``.
    """
    becomes, replaces = _becomes_trigger(sg, region, partition)
    if not becomes:
        return Property32Result(region.event, False, True, False)
    switching = switching_region(sg, region)
    cond2 = not ((partition.er_plus | partition.er_minus) & switching)
    cond3 = not (sg.encoding().cover_bits(cover) & partition.er_minus)
    return Property32Result(region.event, True, cond2 and cond3, replaces)


def estimate_global_impact(sg: StateGraph,
                           covers_by_region: Dict[Tuple[str, int], Tuple[ExcitationRegion, SopCover]],
                           partition: IPartition,
                           target_key: Tuple[str, int]) -> Tuple[int, int]:
    """Aggregate Property-3.2 estimate over all non-target covers.

    Returns ``(bounded_count, unbounded_count)``: how many other covers
    are guaranteed to grow by at most one literal (or shrink), and how
    many have no such guarantee.  The mapper prefers divisors with zero
    unbounded covers ("heuristic filter to select candidate divisors
    that are guaranteed not to increase excessively the complexity of
    the implementation of other signals", §3.4).
    """
    bounded = 0
    unbounded = 0
    regions_by_event: Dict[str, List[ExcitationRegion]] = {}
    for (event, _), (region, _) in covers_by_region.items():
        regions_by_event.setdefault(event, []).append(region)
    for key, (region, cover) in covers_by_region.items():
        if key == target_key:
            continue
        siblings = regions_by_event[region.event]
        result = check_property_32(sg, region, siblings, cover, partition)
        if result.bounded or result.replaces_trigger:
            bounded += 1
        else:
            unbounded += 1
    return bounded, unbounded
