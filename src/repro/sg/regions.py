"""Excitation, switching and quiescent regions; trigger events.

§2.2 of the paper:

* ``ER_j(a*)`` — a maximal *connected* set of states in which event
  ``a*`` is enabled (an event may have several separated ERs,
  distinguished by the index ``j``);
* ``SR_j(a*)`` — the states reached immediately after firing ``a*``
  from ``ER_j``;
* ``QR_j(a*)`` — the *restricted* quiescent region: states reachable
  from ``ER_j`` in which ``a`` is stable, excluding states reachable
  from another ``ER_k(a*)`` without passing through ``ER_j``
  (footnote 2 of the paper);
* *trigger events* of ``ER_j`` — labels of arcs entering the region
  from outside; trigger *signals* are necessarily inputs of any gate
  implementing ``a``.

All region queries run on the graph's packed
:class:`~repro.sg.encoding.Encoding` and return state sets as bitsets
over state indices: membership, intersection and the forward closures
behind SR/QR are bulk bitwise operations.  Each query has exactly one
function — :func:`switching_region`, :func:`stable_closure` (the
unrestricted QR) and :func:`quiescent_region` (the restricted QR of one
region or of a generalized-cover group) — and the encoding-block atoms
(:func:`event_cones`, :func:`encoding_atoms`) are built from them.
:class:`ExcitationRegion` carries its component bitset beside the
paper-facing state set ``ER_j``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from repro.sg.graph import Event, State, StateGraph, event_signal


@dataclass(frozen=True)
class ExcitationRegion:
    """One connected excitation region of an event.

    ``states`` is the paper's ``ER_j`` as state identities; ``bits`` is
    the same set as a bitset over the graph's state indices (the form
    every region query and the mapping core compute with).
    """

    event: Event
    index: int  # 1-based, per the paper's ER_j notation
    states: FrozenSet[State]
    bits: int

    @property
    def signal(self) -> str:
        return event_signal(self.event)

    def __len__(self) -> int:
        return len(self.states)

    def __contains__(self, state: State) -> bool:
        return state in self.states


def excitation_regions(sg: StateGraph, event: Event) -> List[ExcitationRegion]:
    """All excitation regions of ``event``, indexed deterministically.

    Regions are numbered in order of first reachability (BFS from the
    initial state) so that indices are stable across runs.
    """
    enc = sg.encoding()
    excited = enc.event_bits(event)
    if not excited:
        return []
    components = enc.components(excited)
    if len(components) > 1:
        rank = sg.bfs_rank()
        components.sort(key=lambda bits: min(
            rank[i] for i in enc.iter_bits(bits)))
    return [ExcitationRegion(event, i + 1,
                             frozenset(enc.states_of(component)),
                             component)
            for i, component in enumerate(components)]


def all_excitation_regions(sg: StateGraph,
                           signals: Sequence[str] = ()) -> List[ExcitationRegion]:
    """Excitation regions of every event of the given signals
    (default: all output signals)."""
    chosen = list(signals) or list(sg.outputs)
    regions: List[ExcitationRegion] = []
    for signal in chosen:
        for direction in ("+", "-"):
            regions.extend(excitation_regions(sg, signal + direction))
    return regions


def switching_region(sg: StateGraph, region: ExcitationRegion) -> int:
    """Bitset of the states entered immediately after the event fires
    from the region (``SR_j``)."""
    return sg.encoding().event_targets(region.event, region.bits)


def stable_closure(sg: StateGraph, region: ExcitationRegion) -> int:
    """Bitset of the unrestricted quiescent region of ``region``:
    forward closure from its switching region through signal-stable
    states.  Cached on the graph's encoding — region grouping, cover
    synthesis and the progress filters walk the same closures
    repeatedly."""
    enc = sg.encoding()
    key = (region.event, region.bits)
    cached = enc._closure_cache.get(key)
    if cached is None:
        start = enc.event_targets(region.event, region.bits)
        stable = enc.full_mask & ~enc.excited_bits(region.signal)
        cached = enc.closure_forward(start, stable)
        enc._closure_cache[key] = cached
    return cached


def quiescent_region(sg: StateGraph,
                     region: Union[ExcitationRegion,
                                   Sequence[ExcitationRegion]],
                     siblings: Sequence[ExcitationRegion] = ()) -> int:
    """Bitset of the restricted quiescent region (``QR_j``).

    ``region`` is one excitation region or a generalized-cover group of
    regions of one event; ``siblings`` are regions of the same event.
    The stable closures of the siblings outside the group are
    subtracted from the group's: states reachable from another region
    without passing through this one are excluded (the paper's
    "restricted" QR, footnote 2).  Siblings of other events are
    ignored.
    """
    group = ((region,) if isinstance(region, ExcitationRegion)
             else tuple(region))
    event = group[0].event
    mine = {member.index for member in group}
    restricted = 0
    for member in group:
        restricted |= stable_closure(sg, member)
    for sibling in siblings:
        if sibling.event == event and sibling.index not in mine:
            restricted &= ~stable_closure(sg, sibling)
    return restricted


def event_cones(sg: StateGraph, event: Event,
                regions: Optional[List[ExcitationRegion]] = None
                ) -> List[Tuple[str, int]]:
    """The labelled *cones* of one event, as bitsets: per excitation
    region, the states where ``event`` "has just happened" — entered by
    firing it and kept while its signal is stable (``SR_j ∪ QR_j``).

    Cones are the atoms of the encoding-block algebra used by the
    regions-based CSC solver (reference [6] of the paper): unlike any
    function of the existing signals, a cone can separate two states
    that share a binary code, because membership is defined by the
    *history* of the state, not its code.  ``regions`` may carry the
    event's precomputed excitation regions to avoid a second scan.
    """
    if regions is None:
        regions = excitation_regions(sg, event)
    cones: List[Tuple[str, int]] = []
    for region in regions:
        cone = (switching_region(sg, region)
                | quiescent_region(sg, region, regions))
        if cone:
            label = (f"SR∪QR({event})" if len(regions) == 1
                     else f"SR∪QR_{region.index}({event})")
            cones.append((label, cone))
    return cones


def encoding_atoms(sg: StateGraph) -> List[Tuple[str, int]]:
    """Atomic encoding blocks of the region algebra, as state bitsets.

    Three families of atoms, all extensional:

    * the *cones* ``SR_j(e) ∪ QR_j(e)`` of every event (plus the union
      cone of multi-region events) — where ``e`` has just happened;
    * the excitation regions ``ER_j(e)`` themselves (plus unions) —
      where ``e`` is about to happen;
    * the signal half-spaces ``{s : code(s)(a) = 1}`` — alone they can
      never separate a CSC conflict (the conflicting states share
      their code), but their intersections and differences with the
      history-dependent atoms cut exactly the phase windows the
      hand-made encoding signals use.

    Atoms are deduplicated by state set (first label wins) and returned
    in deterministic order; the CSC solver composes them pairwise into
    candidate insertion blocks.
    """
    enc = sg.encoding()
    atoms: List[Tuple[str, int]] = []
    seen: Set[int] = set()

    def add(label: str, bits: int) -> None:
        if bits and bits != enc.full_mask and bits not in seen:
            seen.add(bits)
            atoms.append((label, bits))

    for event in enc.events:
        regions = excitation_regions(sg, event)
        cones = event_cones(sg, event, regions)
        union = 0
        for label, cone in cones:
            add(label, cone)
            union |= cone
        if len(cones) > 1:
            add(f"SR∪QR({event})", union)
        for region in regions:
            label = (f"ER({event})" if len(regions) == 1
                     else f"ER_{region.index}({event})")
            add(label, region.bits)
        if len(regions) > 1:
            add(f"ER({event})", enc.event_bits(event))
    for signal in sg.signals:
        add(f"[{signal}=1]", enc.value_bits(signal))
    return atoms


def trigger_events(sg: StateGraph, region: ExcitationRegion) -> Set[Event]:
    """Events on arcs entering the region from outside it."""
    triggers: Set[Event] = set()
    for state in region.states:
        for event, source in sg.predecessors(state):
            if source not in region.states:
                triggers.add(event)
    return triggers


def trigger_signals(sg: StateGraph, signal: str) -> Set[str]:
    """Signals that trigger any transition of ``signal``.

    These are guaranteed inputs of any SI gate implementation of the
    signal (§2.2).
    """
    result: Set[str] = set()
    for direction in ("+", "-"):
        for region in excitation_regions(sg, signal + direction):
            result.update(event_signal(e)
                          for e in trigger_events(sg, region))
    return result
