"""Complete State Coding (CSC) solving by SIP-preserving insertion.

The paper assumes its input already satisfies CSC and refers to the
companion work (Cortadella et al., *Complete state encoding based on
the theory of regions*, ASYNC'96 — reference [6]) for obtaining it.
This module provides that missing stage with the same machinery the
mapper uses: candidate state blocks are grown into speed-independence-
preserving insertion sets and realized by state-splitting insertion of
fresh internal signals, until no two states share a code while enabling
different output events.

CSC conflicts are, by definition, *not* separable by any function of
the existing signals (the conflicting states have equal codes), so
candidate blocks must be generated extensionally.  Two candidate
families are available, selected by :attr:`CscConfig.method`:

* ``"regions"`` (the reference-[6] method) — blocks are built from the
  region algebra of :mod:`repro.sg.regions`: the atomic *cones*
  ``SR_j(e) ∪ QR_j(e)`` of every event, closed under pairwise
  intersection and difference.  Each surviving candidate is grown into
  an I-partition, trial-inserted, and priced with the mapper's own
  cost model (:func:`repro.mapping.cost.signal_logic_cost` of the new
  signal's resynthesized logic); the solver picks the candidate with
  the best (conflicts remaining, estimated logic cost) pair.
* ``"blocks"`` (the original heuristic, kept as a reproducible
  fallback) — for every ordered pair of events ``(u, v)``, the block
  "after ``u`` until ``v``": the forward closure of ``u``'s switching
  regions, cut at states where ``v`` is enabled.  The first candidate
  that reduces the conflict count wins.

Both families run on the graph's packed
:class:`~repro.sg.encoding.Encoding`: candidate blocks are state
bitsets, so building, deduplicating and pre-ranking them are int
operations and popcounts, and the blocks trial-inserted (at most
:attr:`CscConfig.max_candidates` per signal) go to the I-partition
growth as they are.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Set, Tuple)

from repro._util import popcount
from repro.errors import CoverError, CscViolation, InsertionError
from repro.mapping.insertion import insert_signal
from repro.mapping.partition import compute_insertion_sets_from_states
from repro.sg.graph import State, StateGraph
from repro.sg.regions import encoding_atoms, excitation_regions

#: the candidate families :attr:`CscConfig.method` may select
CSC_METHODS = ("regions", "blocks")


@dataclass(frozen=True)
class CscConfig:
    """Tuning knobs of the CSC solver.

    ``method`` selects the candidate-block family (``"regions"`` is the
    reference-[6] algebra, ``"blocks"`` the original after-u-until-v
    heuristic); ``max_signals`` bounds the number of inserted encoding
    signals; ``max_candidates`` bounds the trial insertions evaluated
    per signal; ``signal_prefix`` names the inserted signals.
    """

    method: str = "blocks"
    max_signals: int = 8
    max_candidates: int = 24
    signal_prefix: str = "csc"

    def __post_init__(self):
        if self.method not in CSC_METHODS:
            raise ValueError(
                f"unknown CSC method {self.method!r} "
                f"(choose from {', '.join(CSC_METHODS)})")


def csc_conflicts(sg: StateGraph) -> List[Tuple[State, State]]:
    """All unordered state pairs sharing a code but enabling different
    output events (see :func:`_conflict_pairs`)."""
    states = sg.encoding().states
    return [(states[left], states[right])
            for left, right in _conflict_pairs(sg)]


def _conflict_pairs(sg: StateGraph) -> List[Tuple[int, int]]:
    """The CSC conflicts as state index pairs: states grouped by packed
    code (in first-occurrence order), then compared by their masks of
    enabled output events."""
    enc = sg.encoding()
    by_code: Dict[int, List[int]] = {}
    for i, code in enumerate(enc.codes):
        by_code.setdefault(code, []).append(i)
    enabled = [0] * len(enc.codes)
    for k, event in enumerate(signal + direction for signal in sg.outputs
                              for direction in "+-"):
        for i in enc.iter_bits(enc.event_bits(event)):
            enabled[i] |= 1 << k
    return [(left, right)
            for group in by_code.values()
            for n, left in enumerate(group) for right in group[n + 1:]
            if enabled[left] != enabled[right]]


# ----------------------------------------------------------------------
# Candidate families
# ----------------------------------------------------------------------

def _fresh_filter() -> Callable[[int], bool]:
    """A filter admitting every non-empty bitset once (no candidate is
    full: atoms are proper, and a slice omits its stop event's ER)."""
    seen: Set[int] = {0}

    def fresh(bits: int) -> bool:
        new = bits not in seen
        seen.add(bits)
        return new
    return fresh


def _event_blocks(sg: StateGraph,
                  fresh: Optional[Callable[[int], bool]] = None
                  ) -> List[Tuple[str, int]]:
    """Legacy candidate blocks, as state bitsets: "after ``u`` until
    ``v``" is the forward closure of ``u``'s switching regions through
    the states where ``v`` is not enabled.  ``fresh`` filters them."""
    enc = sg.encoding()
    fresh = fresh or _fresh_filter()
    blocks: List[Tuple[str, int]] = []
    events = enc.events
    for start in events:
        sources = enc.event_targets(start, enc.event_bits(start))
        for stop in events:
            if stop != start:
                block = enc.closure_forward(
                    sources, enc.full_mask & ~enc.event_bits(stop))
                if fresh(block):
                    blocks.append((f"after {start} until {stop}", block))
    return blocks


def _region_blocks(sg: StateGraph) -> List[Tuple[str, int]]:
    """Regions-based candidate blocks (reference [6]), as bitsets.

    Three sources, all rooted in the region algebra of
    :mod:`repro.sg.regions`:

    * the *atoms* — event cones ``SR_j ∪ QR_j``, excitation regions and
      signal half-spaces (:func:`~repro.sg.regions.encoding_atoms`);
    * their closure under one level of pairwise intersection and
      difference — intersections express "both u and v have happened"
      windows, differences "after u but not yet v" windows;
    * the inter-event *slices*: for every event pair, the forward
      closure of ``u``'s switching regions cut at ``v``'s excitation
      states — phase windows that span signal toggles, which no
      single-signal cone can.

    Between them the family covers the classic hand-made CSC signals
    (phase flags, request-seen latches, done markers) and the finer
    per-region cuts the event-pair heuristic alone cannot make on
    multi-region events.  Deduplication keeps the first label of each
    state set; labels are formatted only for new blocks.
    """
    atoms = encoding_atoms(sg)
    fresh = _fresh_filter()
    blocks = [(label, atom) for label, atom in atoms if fresh(atom)]
    for i, (label_a, atom_a) in enumerate(atoms):
        for label_b, atom_b in atoms[i + 1:]:
            both = atom_a & atom_b
            if fresh(both):
                blocks.append((f"{label_a} ∩ {label_b}", both))
            a_only = atom_a & ~atom_b
            if fresh(a_only):
                blocks.append((f"{label_a} − {label_b}", a_only))
            b_only = atom_b & ~atom_a
            if fresh(b_only):
                blocks.append((f"{label_b} − {label_a}", b_only))
    return blocks + _event_blocks(sg, fresh)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------

@dataclass
class CscStep:
    """One inserted encoding signal.

    ``cost`` is the estimated logic cost of the inserted signal
    (:func:`repro.mapping.cost.signal_logic_cost` on the candidate
    graph; ``None`` under the legacy method, which does not price
    candidates), ``candidates_evaluated`` counts the trial insertions
    paid for before this signal was chosen.
    """

    signal: str
    block_label: str
    conflicts_before: int
    conflicts_after: int
    cost: Optional[int] = None
    candidates_evaluated: int = 0


@dataclass
class CscResult:
    """Outcome of CSC solving."""

    sg: StateGraph
    steps: List[CscStep] = field(default_factory=list)
    method: str = "blocks"

    @property
    def inserted_signals(self) -> int:
        return len(self.steps)

    @property
    def candidates_evaluated(self) -> int:
        """Trial insertions paid for across the whole solve."""
        return sum(step.candidates_evaluated for step in self.steps)

    @property
    def inserted_names(self) -> List[str]:
        return [step.signal for step in self.steps]

    def stats(self) -> Dict[str, int]:
        """Flat telemetry counters (merged into ``RunRecord.stats``)."""
        return {
            "signals_inserted": self.inserted_signals,
            "candidates_evaluated": self.candidates_evaluated,
        }

    def summary(self) -> str:
        if not self.steps:
            return f"CSC satisfied, no signals inserted ({self.method})"
        return (f"{self.inserted_signals} state signals inserted "
                f"({self.method}, {self.candidates_evaluated} "
                "candidates evaluated)")


# ----------------------------------------------------------------------
# The solver
# ----------------------------------------------------------------------

def solve_csc(sg: StateGraph, max_signals: Optional[int] = None,
              signal_prefix: Optional[str] = None,
              config: Optional[CscConfig] = None,
              method: Optional[str] = None) -> CscResult:
    """Insert encoding signals until the state graph satisfies CSC.

    ``config`` bundles every knob; the ``max_signals`` /
    ``signal_prefix`` / ``method`` arguments are conveniences layered
    on top of it (an argument passed explicitly — i.e. not ``None`` —
    wins over the config's field).  Raises :class:`CscViolation` if
    the conflict count cannot be driven to zero within the insertion
    budget (both candidate families are heuristic, not complete).
    """
    if config is None:
        config = CscConfig()
    if max_signals is not None:
        config = replace(config, max_signals=max_signals)
    if signal_prefix is not None:
        config = replace(config, signal_prefix=signal_prefix)
    if method is not None:
        config = replace(config, method=method)

    current = sg.copy()
    steps: List[CscStep] = []
    for index in range(config.max_signals):
        conflicts = _conflict_pairs(current)
        if not conflicts:
            return CscResult(current, steps, config.method)
        name = _fresh_name(current, config.signal_prefix, index)
        if config.method == "regions":
            step = _insert_best_region_block(current, conflicts, name,
                                             config)
        else:
            step = _insert_first_improving_block(current, conflicts,
                                                 name, config)
        if step is None:
            raise CscViolation(
                f"CSC solving ({config.method}) stalled with "
                f"{len(conflicts)} conflicts after {len(steps)} "
                "insertions")
        current, record = step
        steps.append(record)
    if _conflict_pairs(current):
        raise CscViolation(
            f"CSC not solved within {config.max_signals} signal "
            "insertions")
    return CscResult(current, steps, config.method)


def _fresh_name(sg: StateGraph, prefix: str, index: int) -> str:
    name = f"{prefix}{index}"
    taken = set(sg.signals)
    suffix = index
    while name in taken:
        suffix += 1
        name = f"{prefix}{suffix}"
    return name


def _ranked_blocks(sg: StateGraph, blocks: Iterable[Tuple[str, int]],
                   conflicts: Sequence[Tuple[int, int]],
                   with_borders: bool = False
                   ) -> List[Tuple[Tuple, str, int]]:
    """Pre-rank candidate blocks before any insertion is paid for.

    Primary key: conflict pairs split (desc).  With ``with_borders``
    (the regions method) the first tie-breaker is the combined
    input-border size — the borders seed the new signal's excitation
    regions, so they bound its trigger logic from below; the legacy
    method keeps its historical ``(block size, label)`` order so its
    results stay reproducible.

    Conflicts are state index pairs.  Splits XOR per-state masks (pair
    ``p`` owns bit ``p``): the pairs with one end in the block keep
    their bit.  A side's input border is its intersection with the
    other side's successor image.
    """
    enc = sg.encoding()
    masks = [0] * len(enc.states)
    conflicted = 0
    for pair, ends in enumerate(conflicts):
        for i in ends:
            masks[i] |= 1 << pair
            conflicted |= 1 << i
    image = enc.successor_image if with_borders else None
    ranked = []
    for label, block in blocks:
        flips = 0
        for i in enc.iter_bits(block & conflicted):
            flips ^= masks[i]
        split = popcount(flips)
        if not split:
            continue
        if image is not None:
            rest = enc.full_mask & ~block
            border = (popcount(block & image(rest))
                      + popcount(rest & image(block)))
            key = (-split, border, popcount(block), label)
        else:
            key = (-split, popcount(block), label)
        ranked.append((key, label, block))
    ranked.sort(key=lambda item: item[0])
    return ranked


def _try_insertion(sg: StateGraph, block: int,
                   name: str) -> Optional[StateGraph]:
    """Grow the block into an I-partition and trial-insert ``name``;
    ``None`` when the block admits no legal SIP-preserving insertion."""
    try:
        partition = compute_insertion_sets_from_states(sg, block)
        return insert_signal(sg, partition, name,
                             require_csc=False).sg
    except InsertionError:
        return None


def _insert_first_improving_block(
        sg: StateGraph, conflicts: Sequence[Tuple[int, int]],
        name: str, config: CscConfig
        ) -> Optional[Tuple[StateGraph, CscStep]]:
    """The legacy strategy: first candidate that reduces conflicts."""
    ranked = _ranked_blocks(sg, _event_blocks(sg), conflicts)
    evaluated = 0
    for _, label, block in ranked[:config.max_candidates]:
        candidate_sg = _try_insertion(sg, block, name)
        evaluated += 1
        if candidate_sg is None:
            continue
        remaining = len(_conflict_pairs(candidate_sg))
        if remaining < len(conflicts):
            record = CscStep(name, label, len(conflicts), remaining,
                             candidates_evaluated=evaluated)
            return candidate_sg, record
    return None


def _candidate_cost(candidate_sg: StateGraph, name: str) -> int:
    """Estimated logic cost of the freshly inserted signal ``name``.

    When the candidate graph already admits a monotonous cover for the
    signal, the estimate is exact: :func:`~repro.mapping.cost.
    signal_logic_cost` of the synthesized implementation — the same
    measure the mapper prices gates with.  While conflicts remain, the
    cover may not exist yet (the surviving conflicts can overlap the
    new signal's own ON/OFF sets); the fallback prices the trigger
    logic instead: one literal per trigger event of each excitation
    region of the signal, which lower-bounds any eventual gate (§2.2:
    trigger signals are necessarily gate inputs).
    """
    from repro.mapping.cost import signal_logic_cost
    from repro.sg.regions import trigger_events
    from repro.synthesis.cover import synthesize_signal

    try:
        return signal_logic_cost(synthesize_signal(candidate_sg, name))
    except CoverError:
        literals = 0
        for event in (f"{name}+", f"{name}-"):
            for region in excitation_regions(candidate_sg, event):
                literals += len(trigger_events(candidate_sg, region))
        return literals


def _insert_best_region_block(
        sg: StateGraph, conflicts: Sequence[Tuple[int, int]],
        name: str, config: CscConfig
        ) -> Optional[Tuple[StateGraph, CscStep]]:
    """The regions strategy: evaluate the top candidates of the region
    algebra and keep the one with the best (conflicts remaining,
    estimated logic cost) pair."""
    ranked = _ranked_blocks(sg, _region_blocks(sg), conflicts,
                            with_borders=True)
    best: Optional[Tuple[Tuple, StateGraph, CscStep]] = None
    evaluated = 0
    for _, label, block in ranked[:config.max_candidates]:
        candidate_sg = _try_insertion(sg, block, name)
        evaluated += 1
        if candidate_sg is None:
            continue
        remaining = len(_conflict_pairs(candidate_sg))
        if remaining >= len(conflicts):
            continue
        if best is not None and remaining > best[0][0]:
            # conflicts-remaining dominates the score: this candidate
            # cannot beat the incumbent, skip the (expensive) pricing
            continue
        cost = _candidate_cost(candidate_sg, name)
        score = (remaining, cost, len(candidate_sg), label)
        if best is None or score < best[0]:
            record = CscStep(name, label, len(conflicts), remaining,
                             cost=cost)
            best = (score, candidate_sg, record)
    if best is None:
        return None
    _, candidate_sg, record = best
    record.candidates_evaluated = evaluated
    return candidate_sg, record
