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
bitsets, ranked by the conflict pairs they split, and the blocks
trial-inserted go to the I-partition growth as they are.  The solver
builds and ranks only what its trial loop reads: the first ``limit``
(:attr:`CscConfig.max_candidates`) places of the ranking.

* *Slices.*  Every slice cut at one stop ``v`` is reachability in the
  subgraph of the states where ``v`` is not enabled.  One
  :meth:`~repro.sg.encoding.Encoding.reach_sets` table per stop (a
  Tarjan condensation, so cycles cost nothing extra) holds every
  state's reach set, and a slice is the OR of its sources' sets.
* *The cut.*  The split of the ``limit``-th best distinct block seen
  so far, seeded from the atoms and slices.  It only grows, and a
  block splitting fewer pairs cannot reach the first ``limit``
  places.
* *The bound.*  A conflict pair split by ``a ∩ b``, ``a − b`` or
  ``b − a`` is split by ``a`` or by ``b``, so with ``S`` an atom's
  mask of split pairs, ``popcount(S_a | S_b)`` bounds all three.  An
  atom pair whose bound falls below the cut is skipped unbuilt.  A
  block that such a pair would have labelled first cannot reach the
  first places either, so first-label-wins dedupe holds for every
  block that can.
* *Lazy keys.*  Input borders, block sizes and label strings are
  built only for the split groups at or above the final cut.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from heapq import heappush, heapreplace
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro._util import popcount
from repro.errors import CoverError, CscViolation, InsertionError
from repro.mapping.insertion import insert_signal
from repro.mapping.partition import compute_insertion_sets_from_states
from repro.sg.encoding import Encoding
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
    signals (0 or more); ``max_candidates`` bounds the trial insertions
    evaluated per signal (at least 1); ``signal_prefix`` names the
    inserted signals.
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
        if self.max_candidates < 1:
            raise ValueError(f"max_candidates must be at least 1, got "
                             f"{self.max_candidates}")
        if self.max_signals < 0:
            raise ValueError(f"max_signals must not be negative, got "
                             f"{self.max_signals}")


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

#: a candidate's label, kept as parts until the block can be ranked
Label = Tuple[str, ...]


def _event_slices(enc: Encoding) -> List[Tuple[Label, int]]:
    """Every "after ``u`` until ``v``" slice, ``u`` outer and ``v``
    inner in sorted event order, including empty and repeated ones: the
    forward closure of ``u``'s switching regions through the states
    where ``v`` is not enabled.

    All slices cut at one stop ``v`` are reachability in the same
    subgraph, so one :meth:`~repro.sg.encoding.Encoding.reach_sets`
    table per stop answers them all: a slice is the OR of its source
    states' reach sets.
    """
    events = enc.events
    sources = [list(enc.iter_bits(enc.event_targets(u, enc.event_bits(u))))
               for u in events]
    columns = []
    for stop in events:
        reach = enc.reach_sets(enc.full_mask & ~enc.event_bits(stop))
        column = []
        for states in sources:
            block = 0
            for i in states:
                block |= reach[i]
            column.append(block)
        columns.append(column)
    return [(("after ", start, " until ", stop), columns[k][m])
            for m, start in enumerate(events)
            for k, stop in enumerate(events) if k != m]


def _split_masks(enc: Encoding, conflicts: Sequence[Tuple[int, int]]
                 ) -> Callable[[int], int]:
    """The conflict pairs a block splits, as a bitset over pair
    positions, memoized on the block's conflicted states.

    Pair ``p`` owns bit ``p`` of both its ends' masks, so the XOR of
    the masks of the block's states keeps the pairs with exactly one
    end inside.
    """
    masks = [0] * len(enc.states)
    conflicted = 0
    for pair, ends in enumerate(conflicts):
        for i in ends:
            masks[i] |= 1 << pair
            conflicted |= 1 << i
    memo: Dict[int, int] = {}

    def split_mask(block: int) -> int:
        key = block & conflicted
        flips = memo.get(key)
        if flips is None:
            flips = 0
            bits = key
            while bits:
                low = bits & -bits
                flips ^= masks[low.bit_length() - 1]
                bits ^= low
            memo[key] = flips
        return flips
    return split_mask


def _ranked_blocks(sg: StateGraph, conflicts: Sequence[Tuple[int, int]],
                   method: str, limit: int
                   ) -> List[Tuple[Tuple, str, int]]:
    """The ``limit`` best candidate blocks of ``method``'s family, as
    ``(key, label, block)`` in ranking order.

    The family is deduplicated by state set, first label winning: the
    slices alone under ``"blocks"``; under ``"regions"`` the atoms,
    then each atom pair's ``a ∩ b``, ``a − b`` and ``b − a``, then the
    slices.  Blocks that split no conflict pair are dropped.

    Primary key: conflict pairs split (desc).  The regions method
    breaks ties by combined input-border size — the borders seed the
    new signal's excitation regions, so they bound its trigger logic
    from below — then block size and label; the blocks method keeps
    its historical ``(block size, label)`` order.  A side's input
    border is its intersection with the other side's successor image.

    The result equals the first ``limit`` entries of that ranking over
    the whole family; the cut, the bound and the lazy keys (see the
    module docstring) only skip blocks that cannot reach them.
    """
    enc = sg.encoding()
    split_mask = _split_masks(enc, conflicts)
    splits: Dict[int, int] = {}  # every distinct block counted
    top: List[int] = []  # min-heap: the best ``limit`` splits counted

    def count(block: int) -> None:
        """Count a block toward the cut, once per state set."""
        if block in splits:
            return
        split = splits[block] = popcount(split_mask(block))
        if split:
            if len(top) < limit:
                heappush(top, split)
            elif split > top[0]:
                heapreplace(top, split)

    def cut() -> int:
        return top[0] if len(top) == limit else 1

    first: Dict[int, Label] = {}
    slices = _event_slices(enc)
    if method == "regions":
        atoms = encoding_atoms(sg)  # distinct, non-empty and proper
        for label, atom in atoms:
            first[atom] = (label,)
            count(atom)
        later: Dict[int, Label] = {}
        for label, block in slices:
            if block and block not in first:
                later.setdefault(block, label)
                count(block)
        masks = [split_mask(atom) for _, atom in atoms]
        for i, (label_a, atom_a) in enumerate(atoms):
            mask_a, bound = masks[i], cut()
            for j in [j for j in range(i + 1, len(atoms))
                      if popcount(mask_a | masks[j]) >= bound]:
                label_b, atom_b = atoms[j]
                for label, block in (
                        ((label_a, " ∩ ", label_b), atom_a & atom_b),
                        ((label_a, " − ", label_b), atom_a & ~atom_b),
                        ((label_b, " − ", label_a), atom_b & ~atom_a)):
                    if block and block not in first:
                        first[block] = label
                        count(block)
        for block, label in later.items():
            first.setdefault(block, label)
    else:
        for label, block in slices:
            if block and block not in first:
                first[block] = label
                count(block)

    floor = cut()
    image = enc.successor_image
    ranked = []
    for block, parts in first.items():
        split = splits[block]
        if split < floor:
            continue
        label = "".join(parts)
        if method == "regions":
            rest = enc.full_mask & ~block
            border = (popcount(block & image(rest))
                      + popcount(rest & image(block)))
            key: Tuple = (-split, border, popcount(block), label)
        else:
            key = (-split, popcount(block), label)
        ranked.append((key, label, block))
    ranked.sort(key=itemgetter(0))
    return ranked[:limit]


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
    evaluated = 0
    for _, label, block in _ranked_blocks(sg, conflicts, "blocks",
                                          config.max_candidates):
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
    best: Optional[Tuple[Tuple, StateGraph, CscStep]] = None
    evaluated = 0
    for _, label, block in _ranked_blocks(sg, conflicts, "regions",
                                          config.max_candidates):
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
