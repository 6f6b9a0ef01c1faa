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
(the paper's footnote 3); synthesis merges such regions into groups and
synthesizes one monotonous cover per group.

A *complete cover* is the minimized next-state function of a signal,
restricted to a support that excludes the signal itself; when it exists
and is no more complex than the set/reset networks, the signal is
implemented combinationally and the C element degenerates to a wire
(Figure 2 b/c of the paper).

Synthesis has two halves: :class:`SignalProblems` poses one output's
covering problems, each once, and :func:`resynthesize_signal` solves
them into the output's :class:`SignalImplementation`.
:func:`synthesize_signal` does both.  The mapping loop poses a trial
graph's problems first, to bound the trial's potential, and solves the
outputs of the trials the bound keeps: every one of them is synthesized
from scratch, as the paper's loop says.

State sets are bitsets over the graph's state indices throughout: the
ON/OFF code sets come from the region bitsets, the monotonicity repair
tests the cover's ON states (:meth:`~repro.sg.encoding.Encoding.
cover_bits`) against the quiescent region, and a :class:`RegionCover`
records its restricted quiescent region as a bitset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.boolean.minimize import (cheaper_polarity, minimize,
                                    minimize_complement)
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

    ``complement`` covers the complemented function (ON and OFF
    swapped).  It is minimized only when it could be the cheaper
    polarity; otherwise it is the De Morgan complement of ``cover``
    (:func:`~repro.boolean.minimize.minimize_complement`).

    ``quiescent`` is the group's *restricted* quiescent region (sibling
    closures subtracted), as a bitset over the graph's state indices.
    """

    regions: Tuple[ExcitationRegion, ...]
    cover: SopCover
    complement: SopCover
    quiescent: int = 0

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
        return cheaper_polarity(self.cover, self.complement).literal_count()

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


@dataclass
class CoverProblem:
    """One generalized-cover group's covering problem over all signals:
    ON = its ER codes, OFF = every code outside ER ∪ QR.
    :func:`_solve_group` repairs monotonicity on a copy of ``off``,
    only adding codes."""

    regions: Tuple[ExcitationRegion, ...]
    quiescent: int
    on: Set[int]
    off: Set[int]


def _pose_group(sg: StateGraph, group: Sequence[ExcitationRegion],
                others: Sequence[ExcitationRegion]) -> CoverProblem:
    enc = sg.encoding()
    quiescent_bits = quiescent_region(sg, group, others)
    er_bits = 0
    for region in group:
        er_bits |= region.bits
    on = enc.codes_of(er_bits)
    off = enc.codes_of(enc.full_mask & ~(er_bits | quiescent_bits))
    return CoverProblem(tuple(group), quiescent_bits, on, off)


def _solve_group(sg: StateGraph, problem: CoverProblem) -> RegionCover:
    support = sg.encoding().signals
    off = set(problem.off)
    for _ in range(len(sg) + 1):
        cover = minimize(problem.on, off, support)
        violation = _monotonicity_violation(sg, cover, problem.quiescent)
        if violation is None:
            complement = minimize_complement(problem.on, off, support,
                                             cover)
            return RegionCover(problem.regions, cover, complement,
                               problem.quiescent)
        off.add(violation)
    event = problem.regions[0].event
    raise CoverError(
        f"monotonicity repair for {event} did not converge")


def _pose_event(sg: StateGraph, event: str) -> List[CoverProblem]:
    """The covering problems of an event, one per region group."""
    groups = _group_regions(sg, excitation_regions(sg, event))
    return [_pose_group(sg, group,
                        [r for g in groups if g is not group for r in g])
            for group in groups]


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


def _solve_complete(on, off, support: Sequence[str]
                    ) -> Optional[Tuple[SopCover, SopCover]]:
    """Minimized next-state function without self-dependency:
    ``(cover, complement)`` when the signal admits a combinational
    implementation (its next-state function does not need the signal
    itself in the support), else ``None``."""
    try:
        cover = minimize(on, off, support)
        complement = minimize_complement(on, off, support, cover)
    except CoverError:
        return None
    return cover, complement


@dataclass
class SignalImplementation:
    """The standard-C implementation pieces of one output signal.

    ``combinational`` records the architecture choice: when the signal
    admits a complete cover (no self-dependency) *and* that cover is no
    more complex than the set/reset networks it would replace, the C
    element collapses to a wire (Figure 2 b/c of the paper).

    ``complete_complement`` covers the complemented next-state
    function.  Like :attr:`RegionCover.complement` it is minimized only
    when it could be the cheaper polarity, and is otherwise the De
    Morgan complement of ``complete``.
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
        return cheaper_polarity(self.complete,
                                self.complete_complement).literal_count()

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
    complete_cost = cheaper_polarity(complete, complement).literal_count()
    # A constant (never-switching) output has a complete cover but no
    # region covers at all; max() over the empty sequence must not
    # crash — the signal degenerates to a combinational wire.
    sequential_worst = max((rc.complexity for rc in region_covers),
                           default=0)
    sequential_total = sum(rc.complexity for rc in region_covers)
    return (complete_cost <= max(2, sequential_worst)
            and complete_cost <= sequential_total)


class SignalProblems:
    """The covering problems of one output signal, each posed once, on
    first use: :func:`resynthesize_signal` asks for them in the order
    synthesis always did (the complete cover's raises
    :class:`~repro.errors.CscViolation` on a graph with CSC conflicts),
    the mapper's bound for all at once.
    """

    def __init__(self, sg: StateGraph, signal: str):
        self.sg = sg
        self.signal = signal
        self.support = tuple(s for s in sg.signals if s != signal)
        self._groups: Dict[str, List[CoverProblem]] = {}
        self._complete: Optional[Tuple[Set[int], Set[int]]] = None

    def groups(self, event: str) -> List[CoverProblem]:
        """One event's problems, one per region group."""
        if event not in self._groups:
            self._groups[event] = _pose_event(self.sg, event)
        return self._groups[event]

    def all_groups(self) -> List[CoverProblem]:
        """Both events' problems."""
        return (self.groups(self.signal + "+")
                + self.groups(self.signal + "-"))

    def complete(self) -> Tuple[Set[int], Set[int]]:
        """ON / OFF codes of the next-state function over ``support``."""
        if self._complete is None:
            on, off = next_state_ints(self.sg, self.signal, self.support)
            self._complete = set(on), set(off)
        return self._complete


def resynthesize_signal(problems: SignalProblems) -> SignalImplementation:
    """Solve one output's posed covering problems into its
    implementation: the monotonous covers of its set and reset events,
    then its complete cover and the architecture choice."""
    sg, signal = problems.sg, problems.signal
    set_covers = [_solve_group(sg, problem)
                  for problem in problems.groups(signal + "+")]
    reset_covers = [_solve_group(sg, problem)
                    for problem in problems.groups(signal + "-")]
    on, off = problems.complete()
    pair = _solve_complete(on, off, problems.support)
    complete, complement = pair if pair is not None else (None, None)
    combinational = _choose_combinational(complete, complement,
                                          set_covers + reset_covers)
    return SignalImplementation(signal, set_covers, reset_covers,
                                complete, complement,
                                combinational=combinational)


def synthesize_signal(sg: StateGraph, signal: str) -> SignalImplementation:
    """Monotonous covers (and complete cover, if any) of one signal."""
    if signal in sg.inputs:
        raise CoverError(f"signal {signal!r} is an input; inputs are "
                         "driven by the environment")
    return resynthesize_signal(SignalProblems(sg, signal))


def synthesize_all(sg: StateGraph) -> Dict[str, SignalImplementation]:
    """Synthesize every output signal of the state graph."""
    return {signal: synthesize_signal(sg, signal)
            for signal in sg.outputs}


@dataclass
class ResynthesisStats:
    """Telemetry of the mapper's trial synthesis: outputs synthesized,
    and outputs whose synthesis never ran because the trial was
    rejected first (the bound-first trial evaluation)."""

    resynthesized: int = 0
    skipped: int = 0

    def add(self, other: "ResynthesisStats") -> None:
        self.resynthesized += other.resynthesized
        self.skipped += other.skipped
