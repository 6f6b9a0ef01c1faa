"""Monotonous and complete covers (§2.2 of the paper).

For each excitation region ``ER_j(a*)`` a *monotonous poly-term cover*
``c_j(a*)`` is synthesized such that:

1. ``c_j`` covers every state of ``ER_j``;
2. ``c_j`` covers no state of ``ER_i ∪ QR_i`` for ``i ≠ j`` — nor any
   state outside ``ER_j ∪ QR_j`` at all (the covering condition of the
   underlying theory [Kondratyev et al., DAC'94]);
3. ``c_j`` changes at most once (1→0, monotonically) inside ``QR_j``.

Synthesis runs the two-level minimizer with ON = ``ER_j``,
OFF = everything outside ``ER_j ∪ QR_j``, DC = ``QR_j``, then repairs
monotonicity by forcing to OFF any quiescent state whose cover value
rises again after a fall; the repair loop always terminates because the
OFF-set grows strictly.

**Generalized regions.**  When two ERs of the same event share binary
codes (or one ER's codes appear in a sibling's quiescent region),
separate covers cannot exist — condition 2 would contradict condition 1.
The underlying theory generalizes to one cover serving *several* regions
(the paper's footnote 3); :func:`synthesize_event_covers` merges such
regions into groups and synthesizes one monotonous cover per group.

A *complete cover* is the minimized next-state function of a signal,
restricted to a support that excludes the signal itself; when it exists
and is no more complex than the set/reset networks, the signal is
implemented combinationally and the C element degenerates to a wire
(Figure 2 b/c of the paper).

State sets are bitsets over the graph's state indices throughout: the
ON/OFF code sets come from the region bitsets, the monotonicity repair
tests the cover's ON states (:meth:`~repro.sg.encoding.Encoding.
cover_bits`) against the quiescent region, and a :class:`RegionCover`
records its restricted quiescent region and its zone as bitsets, which
incremental resynthesis carries into the new graph through the
insertion's old→new index map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.boolean.minimize import minimize
from repro.boolean.sop import SopCover
from repro.errors import CoverError
from repro.sg.encoding import next_state_ints
from repro.sg.graph import StateGraph
from repro.sg.regions import (ExcitationRegion, excitation_regions,
                              quiescent_region, stable_closure)


@dataclass
class RegionCover:
    """A monotonous cover for one excitation-region group.

    ``regions`` usually holds a single region; it holds several when
    code sharing forced a generalized (merged) cover.

    ``quiescent`` is the group's *restricted* quiescent region (sibling
    closures subtracted) and ``zone`` the group's ER states plus the
    unrestricted union of its stable closures, both as bitsets over the
    graph's state indices.  Incremental resynthesis needs the zone: the
    dirtiness test must see every state whose code participates in the
    cover's covering conditions, including states the restriction
    removed from ``quiescent``.
    """

    regions: Tuple[ExcitationRegion, ...]
    cover: SopCover
    complement: SopCover
    quiescent: int = 0
    zone: int = 0

    @property
    def region(self) -> ExcitationRegion:
        """The primary (lowest-index) region of the group."""
        return self.regions[0]

    @property
    def event(self) -> str:
        return self.regions[0].event

    @property
    def complexity(self) -> int:
        """The paper's complexity measure: min over both polarities."""
        return min(self.cover.literal_count(),
                   self.complement.literal_count())

    def __repr__(self) -> str:
        indices = ",".join(str(r.index) for r in self.regions)
        return (f"RegionCover({self.event}/{indices}: "
                f"{self.cover.to_string()})")


def _group_regions(sg: StateGraph,
                   regions: Sequence[ExcitationRegion]) -> List[List[ExcitationRegion]]:
    """Partition the ERs of one event into generalized-cover groups.

    Regions are merged when one region's ER codes intersect another's
    ER ∪ QR codes — exactly the situation in which MC conditions 1 and
    2 for separate covers contradict each other.  Code sets are packed
    ints over the encoding, so the pairwise intersection tests are set
    operations on small int sets.
    """
    regions = list(regions)
    if len(regions) <= 1:
        return [regions] if regions else []
    enc = sg.encoding()
    closures = {r.index: stable_closure(sg, r) for r in regions}
    er_codes = {r.index: enc.codes_of(r.bits) for r in regions}
    zone_codes = {r.index: er_codes[r.index]
                  | enc.codes_of(closures[r.index]) for r in regions}

    parent = {r.index: r.index for r in regions}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        parent[find(i)] = find(j)

    for left in regions:
        for right in regions:
            if left.index >= right.index:
                continue
            if (er_codes[left.index] & zone_codes[right.index]
                    or er_codes[right.index] & zone_codes[left.index]):
                union(left.index, right.index)

    groups: Dict[int, List[ExcitationRegion]] = {}
    for region in regions:
        groups.setdefault(find(region.index), []).append(region)
    ordered = [sorted(group, key=lambda r: r.index)
               for group in groups.values()]
    ordered.sort(key=lambda group: group[0].index)
    return ordered


def _synthesize_group(sg: StateGraph, group: Sequence[ExcitationRegion],
                      others: Sequence[ExcitationRegion],
                      support: Optional[Sequence[str]] = None) -> RegionCover:
    support = list(support) if support is not None else list(sg.signals)
    enc = sg.encoding()
    quiescent_bits = quiescent_region(sg, group, others)
    er_bits = zone = 0
    for region in group:
        er_bits |= region.bits
        zone |= region.bits | stable_closure(sg, region)
    inside = er_bits | quiescent_bits
    # ON / OFF as packed full-signal codes; minimize() projects onto
    # ``support`` itself only when the caller restricted it.
    on_ints = sorted(enc.codes_of(er_bits))
    off_ints = set(enc.codes_of(enc.full_mask & ~inside))
    if tuple(support) != enc.signals:
        on_ints = sorted({enc.project(c, support) for c in on_ints})
        off_ints = {enc.project(c, support) for c in off_ints}

    for _ in range(len(sg) + 1):
        cover = minimize(on_ints, sorted(off_ints), support)
        violation = _monotonicity_violation(sg, cover, quiescent_bits)
        if violation is None:
            complement = minimize(sorted(off_ints), on_ints, support)
            return RegionCover(tuple(group), cover, complement,
                               quiescent_bits, zone)
        off_ints.add(violation if tuple(support) == enc.signals
                     else enc.project(violation, support))
    event = group[0].event
    raise CoverError(
        f"monotonicity repair for {event} did not converge")


def monotonous_cover(sg: StateGraph, region: ExcitationRegion,
                     siblings: Sequence[ExcitationRegion] = (),
                     support: Optional[Sequence[str]] = None) -> RegionCover:
    """Synthesize the monotonous cover of one excitation region.

    ``siblings`` must contain the other ERs of the same event (used for
    the restricted quiescent regions); ``support`` restricts the signals
    the cover may mention (default: all).  Raises :class:`CoverError`
    when no per-region cover exists — callers that must always succeed
    use :func:`synthesize_event_covers`, which merges regions instead.
    """
    others = [r for r in siblings
              if (r.event, r.index) != (region.event, region.index)]
    return _synthesize_group(sg, [region], others, support)


def synthesize_event_covers(sg: StateGraph, event: str,
                            support: Optional[Sequence[str]] = None) -> List[RegionCover]:
    """All monotonous covers of an event, merging regions as needed."""
    regions = excitation_regions(sg, event)
    if not regions:
        return []
    covers = []
    groups = _group_regions(sg, regions)
    for group in groups:
        others = [r for g in groups if g is not group for r in g]
        covers.append(_synthesize_group(sg, group, others, support))
    return covers


def _monotonicity_violation(sg: StateGraph, cover: SopCover,
                            quiescent_bits: int) -> Optional[int]:
    """First quiescent state whose cover value *rises* along an arc
    inside the quiescent region; the packed code of the state the arc
    enters must be forced OFF.

    States are visited in index order: reachability discovery order,
    which signal insertion preserves, so the first forced-OFF state —
    and hence the repaired cover — never depends on hash order.  (A
    ``repr`` order would: STG states are Petri-net markings, frozensets
    whose ``repr`` follows string hashing.)
    """
    enc = sg.encoding()
    on = enc.cover_bits(cover) & quiescent_bits
    succ = enc.succ_bits
    for i in enc.iter_bits(quiescent_bits & ~on):
        if succ[i] & on:
            for _, j in enc.arcs[i]:
                if (on >> j) & 1:
                    return enc.codes[j]
    return None


def complete_cover(sg: StateGraph, signal: str) -> Optional[Tuple[SopCover, SopCover]]:
    """Minimized next-state function without self-dependency.

    Returns ``(cover, complement)`` when the signal admits a
    combinational implementation (its next-state function does not need
    the signal itself in the support), else ``None``.
    """
    support = [s for s in sg.signals if s != signal]
    on, off = next_state_ints(sg, signal, support)
    try:
        cover = minimize(on, off, support)
        complement = minimize(off, on, support)
    except CoverError:
        return None
    return cover, complement


def complete_cover_with_self(sg: StateGraph,
                             signal: str) -> Tuple[SopCover, SopCover]:
    """Minimized next-state function, self-dependency allowed.

    This always exists under CSC and is the atomic-complex-gate
    implementation of the signal (a state-holding gate when the support
    includes the signal itself).
    """
    support = list(sg.signals)
    on, off = next_state_ints(sg, signal, support)
    cover = minimize(on, off, support)
    complement = minimize(off, on, support)
    return cover, complement


@dataclass
class SignalImplementation:
    """The standard-C implementation pieces of one output signal.

    ``combinational`` records the architecture choice: when the signal
    admits a complete cover (no self-dependency) *and* that cover is no
    more complex than the set/reset networks it would replace, the C
    element collapses to a wire (Figure 2 b/c of the paper).
    """

    signal: str
    set_covers: List[RegionCover]
    reset_covers: List[RegionCover]
    complete: Optional[SopCover]
    complete_complement: Optional[SopCover]
    combinational: bool = False

    @property
    def is_combinational(self) -> bool:
        return self.combinational and self.complete is not None

    @property
    def region_covers(self) -> List[RegionCover]:
        return self.set_covers + self.reset_covers

    def cover_of_event(self, event: str) -> List[RegionCover]:
        return [rc for rc in self.region_covers if rc.event == event]

    @property
    def complete_complexity(self) -> Optional[int]:
        if self.complete is None:
            return None
        return min(self.complete.literal_count(),
                   self.complete_complement.literal_count())

    def max_complexity(self) -> int:
        """Worst gate complexity of this signal's implementation.

        For combinational signals the single complete-cover gate; for
        sequential ones the worst first-level region cover.
        """
        if self.is_combinational:
            return self.complete_complexity or 0
        return max((rc.complexity for rc in self.region_covers),
                   default=0)

    def __repr__(self) -> str:
        kind = "comb" if self.is_combinational else "seqC"
        return f"SignalImplementation({self.signal}, {kind})"


def _choose_combinational(complete: Optional[SopCover],
                          complement: Optional[SopCover],
                          region_covers: Sequence[RegionCover]) -> bool:
    """The architecture choice of §2: collapse the C element when the
    single complete-cover gate is no worse than the standard-C network
    it replaces, both in the worst gate (what the library must fit) and
    in total literals."""
    if complete is None:
        return False
    complete_cost = min(complete.literal_count(),
                        complement.literal_count())
    # A constant (never-switching) output has a complete cover but no
    # region covers at all; max() over the empty sequence must not
    # crash — the signal degenerates to a combinational wire.
    sequential_worst = max((rc.complexity for rc in region_covers),
                           default=0)
    sequential_total = sum(rc.complexity for rc in region_covers)
    return (complete_cost <= max(2, sequential_worst)
            and complete_cost <= sequential_total)


def synthesize_signal(sg: StateGraph, signal: str) -> SignalImplementation:
    """Monotonous covers (and complete cover, if any) of one signal."""
    if signal in sg.inputs:
        raise CoverError(f"signal {signal!r} is an input; inputs are "
                         "driven by the environment")
    set_covers = synthesize_event_covers(sg, signal + "+")
    reset_covers = synthesize_event_covers(sg, signal + "-")
    pair = complete_cover(sg, signal)
    complete, complement = pair if pair is not None else (None, None)
    combinational = _choose_combinational(complete, complement,
                                          set_covers + reset_covers)
    return SignalImplementation(signal, set_covers, reset_covers,
                                complete, complement,
                                combinational=combinational)


def synthesize_all(sg: StateGraph) -> Dict[str, SignalImplementation]:
    """Synthesize every output signal of the state graph."""
    return {signal: synthesize_signal(sg, signal)
            for signal in sg.outputs}


# ----------------------------------------------------------------------
# Incremental resynthesis after a signal insertion
# ----------------------------------------------------------------------
#
# A signal insertion by state splitting (repro.mapping.insertion) only
# perturbs the covering conditions of the signals whose excitation /
# quiescent zones intersect the split states: the conditions are
# per-region [Kondratyev et al., DAC'94], and a region zone that avoids
# every split state maps one-to-one onto copies of itself in the new
# graph (arc replication preserves every arc between unsplit states of
# the same half-space).  Such a signal's covers remain word-for-word
# valid — only the *state indices* they reference must be carried into
# the new graph.  Everything else — the
# inserted signal itself and every signal whose zone was split or whose
# zone spans both levels of the new signal (which could re-partition the
# generalized-cover groups) — is resynthesized from scratch, exactly as
# the legacy full pass would.


@dataclass
class ResynthesisStats:
    """Telemetry of one incremental resynthesis pass.

    ``skipped`` counts signals whose synthesis never ran because the
    consumer proved the surrounding candidate's rejection first (the
    mapper's early-abort trial evaluation).
    """

    resynthesized: int = 0
    reused: int = 0
    skipped: int = 0

    @property
    def total(self) -> int:
        return self.resynthesized + self.reused

    def add(self, other: "ResynthesisStats") -> None:
        self.resynthesized += other.resynthesized
        self.reused += other.reused
        self.skipped += other.skipped

    def __repr__(self) -> str:
        return (f"ResynthesisStats(resynthesized={self.resynthesized}, "
                f"reused={self.reused}, skipped={self.skipped})")


def _cover_reusable(rc: RegionCover, changes) -> bool:
    """Did the insertion leave this cover's covering conditions intact?

    Requires every state of the cover's zone (ER states plus the
    unrestricted stable closure) to be unsplit *and* the whole zone to
    sit at a single level of the new signal — two mask tests against
    the insertion's per-level sets: split zone states change the
    region / quiescent structure outright, and a zone spanning both
    levels can dissolve the code-sharing relations that grouped regions
    into generalized covers.

    The criterion is structural and conservative, but equality with a
    from-scratch pass is not *implied* by it: a fresh minimize() runs
    with the inserted signal in its support and could, in principle,
    exploit it to find a different cover for an event classified as
    untouched here.  The equivalence contract is therefore enforced by
    regression — ``tests/mapping/test_incremental_mapping.py`` and
    ``benchmarks/test_incremental_identity.py`` assert identical steps,
    netlists and report rows against the legacy pass across the
    benchmark suite.
    """
    low, high = changes.levels
    return not rc.zone & ~low or not rc.zone & ~high


def _carry(bits: int, copies: Sequence[int]) -> int:
    """Map a bitset of old states onto their copies at one level."""
    out = 0
    while bits:
        low = bits & -bits
        out |= 1 << copies[low.bit_length() - 1]
        bits ^= low
    return out


def _extend_event_covers(sg: StateGraph, event: str,
                         old_covers: Sequence[RegionCover],
                         changes) -> Optional[List[RegionCover]]:
    """Carry one event's covers into the new code space.

    The excitation regions are recomputed on the new graph (their
    indices follow the new BFS numbering) and matched to the old ones
    by bitset: every reusable zone sits at one level of the new signal,
    so an old region's bits map through that level's old→new index
    map onto its counterpart's.  The expensive minimized covers are
    reused as-is.  Returns ``None`` when the new region structure does
    not correspond one-to-one to the old — the caller then falls back
    to full resynthesis of the signal.
    """
    new_regions = excitation_regions(sg, event)
    if len(new_regions) != sum(len(rc.regions) for rc in old_covers):
        return None
    by_bits = {region.bits: region for region in new_regions}

    extended: List[RegionCover] = []
    for rc in old_covers:
        copies = changes.copies[0 if not rc.zone & ~changes.levels[0]
                                else 1]
        mapped = []
        for region in rc.regions:
            counterpart = by_bits.get(_carry(region.bits, copies))
            if counterpart is None:
                return None
            mapped.append(counterpart)
        mapped.sort(key=lambda r: r.index)
        extended.append(RegionCover(
            tuple(mapped), rc.cover, rc.complement,
            _carry(rc.quiescent, copies), _carry(rc.zone, copies)))
    extended.sort(key=lambda rc: rc.regions[0].index)
    return extended


def _reuse_event_covers(sg: StateGraph, event: str,
                        old_covers: Sequence[RegionCover],
                        changes) -> Optional[List[RegionCover]]:
    """The extended covers of one event, or None when any of its
    groups was touched by the insertion (→ resynthesize the event)."""
    if not old_covers:
        return None
    if not all(_cover_reusable(rc, changes) for rc in old_covers):
        return None
    return _extend_event_covers(sg, event, old_covers, changes)


def resynthesize_signal(sg: StateGraph, signal: str,
                        old: Optional[SignalImplementation],
                        changes) -> Tuple[SignalImplementation, bool]:
    """One signal of the post-insertion graph: reuse what the insertion
    left intact, resynthesize the rest.

    Reuse is decided per *event* (the covering conditions are
    per-region, so a split inside the reset phase does not invalidate
    the set covers).  The complete cover ranges over every state of the
    graph — an insertion always reshapes its ON/OFF sets — so it is
    recomputed whenever anything is reused.  Returns
    ``(implementation, reused)`` with ``reused`` True when at least one
    event family was carried over instead of re-minimized.
    """
    if old is None:
        return synthesize_signal(sg, signal), False
    set_ext = _reuse_event_covers(sg, signal + "+", old.set_covers,
                                  changes)
    reset_ext = _reuse_event_covers(sg, signal + "-", old.reset_covers,
                                    changes)
    if set_ext is None and reset_ext is None:
        return synthesize_signal(sg, signal), False
    set_covers = (set_ext if set_ext is not None
                  else synthesize_event_covers(sg, signal + "+"))
    reset_covers = (reset_ext if reset_ext is not None
                    else synthesize_event_covers(sg, signal + "-"))
    pair = complete_cover(sg, signal)
    complete, complement = pair if pair is not None else (None, None)
    combinational = _choose_combinational(complete, complement,
                                          set_covers + reset_covers)
    return SignalImplementation(signal, set_covers, reset_covers,
                                complete, complement,
                                combinational=combinational), True


def resynthesize_incremental(
        sg: StateGraph,
        old_implementations: Dict[str, SignalImplementation],
        changes,
        precomputed: Optional[Dict[str, SignalImplementation]] = None,
) -> Tuple[Dict[str, SignalImplementation], ResynthesisStats]:
    """Resynthesize a state graph after a signal insertion.

    ``old_implementations`` are the covers of the *pre-insertion* graph
    and ``changes`` the :class:`~repro.mapping.insertion.
    InsertionChanges` summary of the insertion that produced ``sg``.
    Signals untouched by the insertion keep their minimized covers
    (extended to the new code space); dirty signals — and the inserted
    signal itself — run through :func:`synthesize_signal` exactly as a
    full pass would.  ``precomputed`` may carry implementations already
    synthesized *on this graph* (the mapper's quick-reject target).

    Returns ``(implementations, stats)`` where the implementations dict
    matches :func:`synthesize_all` on the same graph and ``stats``
    counts reused vs resynthesized signals.

    This is the batch entry point; the mapper's trial evaluation
    (``TechnologyMapper._evaluate_candidate``) runs the same
    :func:`resynthesize_signal` primitive one signal at a time so it
    can abort mid-pass — changes to the reuse policy belong in
    :func:`resynthesize_signal`, where both consumers pick them up.
    """
    precomputed = precomputed or {}
    stats = ResynthesisStats()
    implementations: Dict[str, SignalImplementation] = {}
    for signal in sg.outputs:
        ready = precomputed.get(signal)
        if ready is not None:
            implementations[signal] = ready
            stats.resynthesized += 1
            continue
        impl, reused = resynthesize_signal(
            sg, signal, old_implementations.get(signal), changes)
        implementations[signal] = impl
        if reused:
            stats.reused += 1
        else:
            stats.resynthesized += 1
    return implementations, stats
