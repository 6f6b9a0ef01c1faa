"""The technology-mapping loop (§3 of the paper).

The algorithm sketch from the paper::

    while circuit is not implementable do
        Calculate monotonous covers for all events;
        a* = event with the most complex cover;
        D = {set of divisors for c(a*)};          # kernels, OR/AND, ...
        for each f in D do
            Find I-partition for f;
            Evaluate progress for decomposition of c(a*);   # Property 3.1
            Estimate progress for all other covers;         # Property 3.2
        end for
        if there is no f in D that can make progress on c(a*)
        then return;                               # n.i.
        else insert the best f; resynthesize everything from scratch
    end while

Termination is guaranteed by a potential argument: an insertion is
accepted only if it strictly decreases the global *oversize potential*
``Σ max(0, complexity(gate) − k)``; the potential is a non-negative
integer, so the loop ends.  When no divisor (for any oversized cover,
not only the most complex one — the paper's "other events can also be
selected" tuning) reduces the potential, the circuit is reported not
implementable in the given library.

**Bound-first trial evaluation.**  The paper only *estimates* the
progress a trial makes on the covers it does not target (Property
3.2).  The mapper decides on the exact potential of the trial graph,
but proves most rejections before minimizing anything: every cover has
a literal of each variable in which an ON and an OFF vector of its
problem differ alone (:func:`~repro.boolean.minimize.literal_bound`),
so set lookups bound each output's oversize mass from below.  Every
output of a trial the bound keeps is then synthesized from scratch,
from the problems the bound posed, so the decisions are those of the
paper's full pass by construction: the monotonicity repair only adds
OFF vectors, so the essential variables only grow; a
:class:`~repro.errors.CoverError` rejects a trial anyway; and the
rejection test is monotone in the potential.  The full pass itself
lives in the tests, as the reference the mapper is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro._util import popcount
from repro.boolean.divisors import algebraic_division, generate_divisors
from repro.boolean.minimize import (cheaper_polarity, essential_variables,
                                    literal_bound)
from repro.boolean.sop import SopCover
from repro.errors import CoverError, CscViolation, InsertionError
from repro.mapping.insertion import (fresh_name, insert_signal,
                                     verify_insertion)
from repro.mapping.partition import IPartition, compute_insertion_sets
from repro.obs.metrics import default_registry
from repro.obs.trace import trace_span
from repro.mapping.progress import (check_property_31,
                                    estimate_global_impact)
from repro.sg.graph import StateGraph
from repro.sg.properties import assert_implementable
from repro.sg.regions import ExcitationRegion
from repro.stg.stg import Stg
from repro.synthesis.cover import (ResynthesisStats,
                                   SignalImplementation, SignalProblems,
                                   resynthesize_signal, synthesize_all)
from repro.synthesis.library import GateLibrary
from repro.synthesis.netlist import Netlist


#: limits of the loop: accepted insertions, divisors tried per oversized
#: gate (twice as many, at least 8, are grown and ranked), the rise in
#: potential a kept trial may take, and the states of one trial graph;
#: the inserted signals are named x0, x1, ...
MAX_ITERATIONS = 40
MAX_INSERTION_TRIALS = 12
MAX_REGRESSION = 2
MAX_STATES = 6000
SIGNAL_PREFIX = "x"


@dataclass
class MapperConfig:
    """Tuning knobs of the mapping loop."""

    max_divisors: int = 48
    max_neutral_steps: int = 8
    global_acknowledgment: bool = True
    use_progress_filters: bool = True
    solve_csc: bool = False
    #: candidate family of the CSC solver: "blocks" (the original
    #: after-u-until-v heuristic) or "regions" (the reference-[6]
    #: region-algebra method); only consulted when ``solve_csc`` is on
    csc_method: str = "blocks"

    def local_ack(self) -> "MapperConfig":
        """A copy configured like the Siegel & De Micheli baseline (the
        "[12]" column of Table 1), which the paper says "only decomposes
        existing gates (e.g., a 3-input AND into 2 2-input ANDs)" and
        acknowledges each new signal *locally*, by the cover it was
        extracted from: divisors are AND/OR gate splits, and a trial is
        refused when another output's cover would mention the new signal.

        Uses :func:`dataclasses.replace` so that newly added
        configuration fields are carried over automatically — a
        hand-copied field list would silently drop them.
        """
        return replace(self, global_acknowledgment=False)


@dataclass
class DecompositionStep:
    """One accepted signal insertion."""

    signal: str
    target: str              # "event/index" or "complete(signal)"
    divisor: str
    before_complexity: int
    potential_before: int
    potential_after: int
    states_before: int
    states_after: int

    def decision(self) -> Tuple:
        """What was inserted and why, as one tuple: the mapper and the
        tests' full-pass reference must agree on it step by step."""
        return (self.signal, self.target, self.divisor,
                self.before_complexity, self.potential_before,
                self.potential_after, self.states_before,
                self.states_after)


@dataclass
class MappingResult:
    """Outcome of a mapping run."""

    name: str
    library: GateLibrary
    success: bool
    message: str
    sg: StateGraph
    implementations: Dict[str, SignalImplementation]
    netlist: Netlist
    steps: List[DecompositionStep] = field(default_factory=list)
    #: synthesis work over *every* trial candidate (accepted or not):
    #: signals synthesized, and syntheses skipped because the
    #: candidate's rejection was proven before they ran.
    trial_resynthesized: int = 0
    trial_skipped: int = 0

    @property
    def inserted_signals(self) -> int:
        return len(self.steps)

    def summary(self) -> str:
        status = (f"{self.inserted_signals} signals inserted"
                  if self.success else "n.i.")
        return (f"{self.name} @ {self.library}: {status} "
                f"({self.message})")


@dataclass
class _Unit:
    """One decomposable gate: a region cover or a complete cover."""

    key: Tuple[str, int]            # (event, index) or ("=signal", 0)
    signal: str
    region: Optional[ExcitationRegion]
    cover: SopCover
    complement: SopCover

    @property
    def complexity(self) -> int:
        return self.chosen.literal_count()

    @property
    def chosen(self) -> SopCover:
        """The polarity that realizes the complexity measure."""
        return cheaper_polarity(self.cover, self.complement)

    @property
    def label(self) -> str:
        if self.region is None:
            return f"complete({self.signal})"
        return f"{self.key[0]}/{self.key[1]}"


def _units_of(implementations: Dict[str, SignalImplementation]) -> List[_Unit]:
    units: List[_Unit] = []
    for signal, impl in sorted(implementations.items()):
        if impl.is_combinational:
            units.append(_Unit(("=" + signal, 0), signal, None,
                               impl.complete, impl.complete_complement))
            continue
        for rc in impl.region_covers:
            units.append(_Unit((rc.event, rc.region.index), signal,
                               rc.region, rc.cover, rc.complement))
    return units


def _potential(units: Sequence[_Unit], library: GateLibrary) -> int:
    return sum(max(0, unit.complexity - library.max_literals)
               for unit in units)


class TechnologyMapper:
    """Speed-independence-preserving technology mapping."""

    def __init__(self, library: GateLibrary,
                 config: Optional[MapperConfig] = None):
        self.library = library
        self.config = config or MapperConfig()
        self._event_mass: Dict[Tuple[str, str], int] = {}
        self._neutral_streak = 0
        self._used_functions = {}
        self._trial_stats = ResynthesisStats()

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def map(self, circuit: Union[Stg, StateGraph],
            implementations: Optional[Dict[str, SignalImplementation]] = None
            ) -> MappingResult:
        """Map an STG or state graph into the configured library.

        ``implementations`` may carry a precomputed initial synthesis of
        ``circuit`` (as produced by :func:`synthesize_all` on the same
        state graph); the mapper then skips the redundant resynthesis.
        This is how :class:`repro.pipeline.SynthesisContext` shares one
        initial synthesis across the whole k = 2/3/4 + baseline battery.
        The argument is ignored whenever the state graph must be derived
        first (STG input or CSC solving), since the covers would not
        match it.
        """
        if isinstance(circuit, Stg):
            from repro.sg.reachability import state_graph_of
            sg = state_graph_of(circuit)
            implementations = None
        else:
            sg = circuit.copy()
        if self.config.solve_csc:
            from repro.mapping.csc import solve_csc
            sg = solve_csc(sg, method=self.config.csc_method).sg
            implementations = None
        assert_implementable(sg)

        if implementations is None:
            implementations = synthesize_all(sg)
        steps: List[DecompositionStep] = []
        self._neutral_streak = 0
        self._used_functions = {}
        self._trial_stats = ResynthesisStats()
        message = "already fits the library"

        while True:
            units = _units_of(implementations)
            potential = _potential(units, self.library)
            if potential == 0:
                message = (f"mapped with {len(steps)} inserted signals"
                           if steps else "already fits the library")
                success = True
                break
            if len(steps) >= MAX_ITERATIONS:
                success, message = False, "iteration limit reached"
                break
            step = self._try_decompose(sg, implementations, units,
                                       potential, len(steps))
            if step is None:
                success, message = False, (
                    "no divisor makes progress (not implementable in "
                    f"{self.library})")
                break
            new_sg, new_implementations, record = step
            sg, implementations = new_sg, new_implementations
            steps.append(record)

        return MappingResult(
            name=sg.name,
            library=self.library,
            success=success,
            message=message,
            sg=sg,
            implementations=implementations,
            netlist=Netlist(sg.name, implementations),
            steps=steps,
            trial_resynthesized=self._trial_stats.resynthesized,
            trial_skipped=self._trial_stats.skipped,
        )

    # ------------------------------------------------------------------
    # One decomposition step
    # ------------------------------------------------------------------

    @staticmethod
    def _count_candidate() -> None:
        default_registry().counter(
            "si_mapper_candidates_total",
            "Decomposition candidate insertions tried.").inc()

    def _try_decompose(self, sg: StateGraph,
                       implementations: Dict[str, SignalImplementation],
                       units: List[_Unit], potential: int,
                       step_index: int) -> Optional[Tuple[StateGraph,
                                                          Dict[str, SignalImplementation],
                                                          DecompositionStep]]:
        oversized = sorted(
            (u for u in units
             if u.complexity > self.library.max_literals),
            key=lambda u: (-u.complexity, u.label))
        k = self.library.max_literals
        self._event_mass = {}
        for u in units:
            key = (u.signal, u.key[0])
            self._event_mass[key] = (self._event_mass.get(key, 0)
                                     + max(0, u.complexity - k))
        signal_name = fresh_name(sg, SIGNAL_PREFIX, step_index)
        covers_by_region = {
            u.key: (u.region, u.cover) for u in units
            if u.region is not None}
        best_neutral = None

        for unit in oversized:
            candidates = self._rank_divisors(sg, unit, units,
                                             covers_by_region)
            trials = 0
            for _, function, partition in candidates:
                if trials >= MAX_INSERTION_TRIALS:
                    break
                trials += 1
                self._count_candidate()
                with trace_span("map.candidate", "map",
                                target=unit.label,
                                step=step_index, trial=trials) as sp:
                    try:
                        new_sg = insert_signal(
                            sg, partition, signal_name,
                            max_states=MAX_STATES)
                        with trace_span("map.resynthesize", "map",
                                        target=unit.label):
                            new_implementations = self._evaluate_candidate(
                                new_sg, unit, signal_name, potential,
                                best_neutral[4]
                                if best_neutral is not None
                                else None)
                    except (InsertionError, CoverError, CscViolation):
                        continue
                    if new_implementations is None:
                        continue  # rejection proven before the end
                    if not self._acknowledgment_ok(new_implementations,
                                                   unit, signal_name):
                        continue
                    new_units = _units_of(new_implementations)
                    new_potential = _potential(new_units, self.library)
                    if new_potential > potential + MAX_REGRESSION:
                        continue
                    accepted = new_potential < potential
                    if sp is not None:
                        sp["outcome"] = ("accepted" if accepted
                                         else "neutral")
                if not accepted:
                    # Neutral/regression step: the target shrank but
                    # other covers grew by acknowledgment literals.
                    # This is the normal Property-3.2 regime (pairing
                    # the set AND reset networks of a wide join, or the
                    # paper's own "+1 literal" allowance); keep the
                    # best such step as a fallback, bounded by
                    # max_neutral_steps to guarantee termination.
                    # The inserted signal's own gate must fit the
                    # library, otherwise the "progress" is a buffer
                    # chain that just renames the oversized gate.
                    new_gate_fits = (
                        new_implementations[signal_name].max_complexity()
                        <= self.library.max_literals)
                    cost = 1 + (new_potential - potential)
                    if (new_gate_fits
                            and self._neutral_streak + cost
                            <= self.config.max_neutral_steps
                            and (best_neutral is None
                                 or new_potential < best_neutral[4])):
                        best_neutral = (new_sg, new_implementations,
                                        function, unit, new_potential)
                    continue
                self._neutral_streak = 0
                return self._take(sg, signal_name, potential,
                                  (new_sg, new_implementations, function,
                                   unit, new_potential))
        if best_neutral is not None:
            self._neutral_streak += 1 + (best_neutral[4] - potential)
            return self._take(sg, signal_name, potential, best_neutral)
        return None

    def _take(self, sg: StateGraph, signal_name: str, potential: int,
              candidate: Tuple) -> Tuple[StateGraph,
                                         Dict[str, SignalImplementation],
                                         DecompositionStep]:
        """Commit to one candidate, after the whole SI property suite
        (:func:`verify_insertion`), and record the step."""
        new_sg, new_implementations, function, unit, new_potential = candidate
        verify_insertion(new_sg, signal_name)
        self._used_functions[function] = signal_name
        return new_sg, new_implementations, DecompositionStep(
            signal=signal_name,
            target=unit.label,
            divisor=function.to_string(),
            before_complexity=unit.complexity,
            potential_before=potential,
            potential_after=new_potential,
            states_before=len(sg),
            states_after=len(new_sg))

    # ------------------------------------------------------------------
    # Bound-first candidate evaluation
    # ------------------------------------------------------------------

    def _evaluate_candidate(self, new_sg: StateGraph, unit: _Unit,
                            new_signal: str, potential: int,
                            bn_potential: Optional[int]
                            ) -> Optional[Dict[str, SignalImplementation]]:
        """Synthesize a trial graph's outputs, stopping as soon as the
        trial's rejection is certain.

        * Output by output, it poses the covering problems
          (:class:`SignalProblems`) and bounds the oversize mass
          (:meth:`_mass_bound`); in local-acknowledgment mode it
          refuses the trial at the first output whose covers must
          mention the new signal (:meth:`_acknowledgment_refused`).
        * It then solves the posed problems output by output
          (:func:`resynthesize_signal`), the target first for the
          quick reject (:meth:`_target_improved`).  The exact masses
          synthesized so far plus the bounds of the rest bound the
          potential from below, and synthesis stops once
          :meth:`_rejection_proven` holds on that bound.

        Returns ``None`` when the trial is rejected early, else the
        implementations a :func:`synthesize_all` pass would give.
        """
        k = self.library.max_literals
        order = self._evaluation_order(new_sg, unit, new_signal)
        problems: Dict[str, SignalProblems] = {}
        bounds: Dict[str, int] = {}
        computed: Dict[str, SignalImplementation] = {}
        try:
            pending = 0
            for signal in order:
                problems[signal] = posed = SignalProblems(new_sg, signal)
                bounds[signal] = self._mass_bound(posed, k)
                pending += bounds[signal]
                if (self._acknowledgment_refused(posed, unit, new_signal)
                        or self._rejection_proven(pending, potential,
                                                  bn_potential)):
                    return None
            partial = 0
            for signal in order:
                impl = computed[signal] = resynthesize_signal(
                    problems[signal])
                partial += self._oversize_mass(impl, k)
                pending -= bounds[signal]
                if ((signal == unit.signal
                     and not self._target_improved(unit, impl))
                        or self._rejection_proven(partial + pending,
                                                  potential, bn_potential)):
                    return None
        finally:
            self._trial_stats.add(ResynthesisStats(
                len(computed), len(order) - len(computed)))
        return {s: computed[s] for s in new_sg.outputs}

    @staticmethod
    def _mass_bound(problems: SignalProblems, k: int) -> int:
        """A lower bound on one signal's oversize mass, from its posed
        problems alone: ``max(0, literal_bound - k)`` summed over its
        region groups, or the complete cover's own term when that is
        smaller and the signal may become combinational."""
        every = (1 << len(problems.sg.signals)) - 1
        regions = sum(max(0, literal_bound(problem.on, problem.off,
                                           every) - k)
                      for problem in problems.all_groups())
        if not regions:
            return 0
        on, off = problems.complete()
        if not on.isdisjoint(off):
            return regions          # no complete cover: sequential
        complete = literal_bound(on, off, (1 << len(problems.support)) - 1)
        return min(regions, max(0, complete - k))

    def _acknowledgment_refused(self, problems: SignalProblems,
                                unit: _Unit, new_signal: str) -> bool:
        """Local acknowledgment only: is the inserted signal essential
        in a region-cover problem of an output other than the target
        and itself?  Every cover of that problem mentions it."""
        if (self.config.global_acknowledgment
                or problems.signal in (unit.signal, new_signal)):
            return False
        bit = 1 << problems.sg.encoding().bit[new_signal]
        return any(essential_variables(problem.on, problem.off, bit)
                   for problem in problems.all_groups())

    def _evaluation_order(self, new_sg: StateGraph, unit: _Unit,
                          new_signal: str) -> List[str]:
        """Synthesis order for a candidate's outputs.

        The target comes first, for the quick reject.  Any order of the
        rest yields the same decisions (the potential is a sum);
        front-loading the signals most likely to carry oversize mass —
        the inserted signal, then the previously heaviest signals —
        makes the early abort trigger soonest.
        """
        mass: Dict[str, int] = {}
        for (signal, _event), value in self._event_mass.items():
            mass[signal] = mass.get(signal, 0) + value
        rest = [s for s in new_sg.outputs
                if s not in (unit.signal, new_signal)]
        rest.sort(key=lambda s: (-mass.get(s, 0), s))
        return [unit.signal, new_signal] + rest

    def _rejection_proven(self, partial: int, potential: int,
                          bn_potential: Optional[int]) -> bool:
        """Is every outcome that keeps this candidate already ruled out?

        ``partial`` is a lower bound on the candidate's final potential.
        A strict-progress accept needs ``final < potential``; once that
        is impossible, only the neutral-step fallback remains, which
        needs the (potential-dependent) streak budget and must beat the
        incumbent ``best_neutral``.
        """
        if partial > potential + MAX_REGRESSION:
            return True
        if partial < potential:
            return False
        cost = 1 + (partial - potential)    # lower bound of the streak cost
        if self._neutral_streak + cost > self.config.max_neutral_steps:
            return True
        return bn_potential is not None and partial >= bn_potential

    @staticmethod
    def _oversize_mass(impl: SignalImplementation, k: int) -> int:
        """One signal's contribution to the oversize potential (the
        per-unit masses of :func:`_units_of` / :func:`_potential`)."""
        if impl.is_combinational:
            return max(0, (impl.complete_complexity or 0) - k)
        return sum(max(0, rc.complexity - k)
                   for rc in impl.region_covers)

    def _rank_divisors(self, sg: StateGraph, unit: _Unit,
                       units: List[_Unit],
                       covers_by_region) -> List[Tuple[Tuple, SopCover,
                                                       IPartition]]:
        """Generate, filter and rank divisor candidates for a unit."""
        chosen = unit.chosen
        divisors = generate_divisors(
            chosen, max_candidates=self.config.max_divisors,
            recurse=self.config.global_acknowledgment)
        if not self.config.global_acknowledgment:
            # Siegel-style gate splitting: only sub-cubes of single
            # cubes and sub-sets of the cube list qualify.
            divisors = [f for f in divisors
                        if self._is_gate_split(chosen, f)]
        # Cheap pre-ranking before the expensive I-partition growth:
        # library-implementable divisors first, then by the estimated
        # target complexity after substitution.
        oversized_signals = {u.signal for u in units
                             if u.complexity > self.library.max_literals}
        pre: List[Tuple[Tuple, SopCover, SopCover, SopCover]] = []
        for function in divisors:
            twin = self._used_functions.get(function)
            if twin is not None and twin in oversized_signals:
                # A previous insertion already realizes this function
                # and its gate is still oversized; re-inserting the
                # same function builds an acknowledgment buffer chain
                # instead of making progress.
                continue
            quotient, remainder = algebraic_division(chosen, function)
            if quotient.is_zero():
                continue
            estimate = (quotient.literal_count() + quotient.num_cubes()
                        + remainder.literal_count())
            if estimate >= unit.complexity:
                continue
            fits_cheap = 0 if (function.literal_count()
                               <= self.library.max_literals) else 1
            pre.append(((fits_cheap, estimate, function.to_string()),
                        function, quotient, remainder))
        pre.sort(key=lambda item: item[0])
        budget = max(MAX_INSERTION_TRIALS * 2, 8)
        ranked: List[Tuple[Tuple, SopCover, IPartition]] = []
        for _, function, quotient, remainder in pre[:budget]:
            try:
                partition = compute_insertion_sets(sg, function)
            except InsertionError:
                continue
            estimate = (quotient.literal_count() + quotient.num_cubes()
                        + remainder.literal_count())
            # The extracted gate should itself be a library cell —
            # oversized divisors only move the problem (and tend to
            # regress into buffer chains), so they rank last.
            fits = 0 if (function.literal_count()
                         <= self.library.max_literals) else 1
            score: Tuple
            if self.config.use_progress_filters:
                p31_ok = True
                if unit.region is not None:
                    siblings = [u.region for u in units
                                if u.region is not None
                                and u.region.event == unit.region.event]
                    p31_ok = bool(check_property_31(
                        sg, unit.region, siblings, unit.cover, function,
                        quotient, remainder, partition))
                bounded, unbounded = estimate_global_impact(
                    sg, covers_by_region, partition, unit.key)
                score = (fits, unbounded, 0 if p31_ok else 1, estimate,
                         popcount(partition.er_plus | partition.er_minus),
                         function.to_string())
            else:
                score = (fits, estimate, function.to_string())
            ranked.append((score, function, partition))
        ranked.sort(key=lambda item: item[0])
        return ranked

    def _target_improved(self, unit: _Unit,
                         target_impl: SignalImplementation) -> bool:
        """Did the oversize mass of the targeted gate's event shrink?

        ``self._event_mass`` holds Σ max(0, complexity − k) per
        (signal, event) before the insertion; the candidate is worth a
        full resynthesis only if the targeted event's own mass strictly
        drops (the acknowledgment cost it inflicts elsewhere — even on
        the sibling covers of the same signal — is judged later by the
        global potential).
        """
        k = self.library.max_literals
        before = self._event_mass.get((unit.signal, unit.key[0]), 0)
        if target_impl.is_combinational or unit.region is None:
            # a combinational result, or a complete-cover target
            # resynthesized as sequential: judge the whole signal
            after = self._oversize_mass(target_impl, k)
        else:
            after = sum(max(0, rc.complexity - k)
                        for rc in target_impl.cover_of_event(unit.key[0]))
        return after < before

    @staticmethod
    def _is_gate_split(cover: SopCover, function: SopCover) -> bool:
        """True for pure AND/OR sub-structure divisors (the only moves
        the local-acknowledgment baseline may make)."""
        if function.num_cubes() == 1 and cover.num_cubes() >= 1:
            cube = function.cubes[0]
            return any(c.contains(cube) or cube.contains(c)
                       for c in cover)
        return all(any(c == mine for mine in cover)
                   for c in function)

    def _acknowledgment_ok(self,
                           implementations: Dict[str, SignalImplementation],
                           unit: _Unit, signal_name: str) -> bool:
        """In local-acknowledgment mode, only the target signal's covers
        (and the new signal's own logic) may mention the new signal."""
        if self.config.global_acknowledgment:
            return True
        for signal, impl in implementations.items():
            if signal in (unit.signal, signal_name):
                continue
            covers = [rc.cover for rc in impl.region_covers]
            if impl.complete is not None:
                covers.append(impl.complete)
            for cover in covers:
                if signal_name in cover.support:
                    return False
        return True


def map_circuit(circuit: Union[Stg, StateGraph], library: GateLibrary,
                config: Optional[MapperConfig] = None,
                implementations: Optional[Dict[str, SignalImplementation]] = None
                ) -> MappingResult:
    """Convenience wrapper: map a circuit into a library."""
    return TechnologyMapper(library, config).map(circuit, implementations)
