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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro._util import popcount
from repro.boolean.divisors import algebraic_division, generate_divisors
from repro.boolean.sop import SopCover
from repro.errors import (CoverError, CscViolation, InsertionError,
                          MappingError)
from repro.mapping.cost import implementation_cost
from repro.mapping.insertion import insert_signal
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
                                   SignalImplementation,
                                   resynthesize_signal,
                                   synthesize_all, synthesize_signal)
from repro.synthesis.library import GateLibrary
from repro.synthesis.netlist import Netlist


@dataclass
class MapperConfig:
    """Tuning knobs of the mapping loop."""

    max_iterations: int = 40
    max_divisors: int = 48
    max_insertion_trials: int = 12
    max_neutral_steps: int = 8
    max_regression: int = 2
    max_states: int = 6000
    global_acknowledgment: bool = True
    use_progress_filters: bool = True
    solve_csc: bool = False
    #: candidate family of the CSC solver: "blocks" (the original
    #: after-u-until-v heuristic) or "regions" (the reference-[6]
    #: region-algebra method); only consulted when ``solve_csc`` is on
    csc_method: str = "blocks"
    #: resynthesize only the signals an insertion actually touched
    #: (byte-identical results to the legacy full pass; False forces
    #: the paper's "resynthesize everything from scratch")
    incremental_resynthesis: bool = True
    signal_prefix: str = "x"

    def local_ack(self) -> "MapperConfig":
        """A copy configured like the Siegel-style baseline.

        Uses :func:`dataclasses.replace` so that newly added
        configuration fields are carried over automatically — a
        hand-copied field list would silently drop them.
        """
        return replace(self, global_acknowledgment=False)


@dataclass
class DecompositionStep:
    """One accepted signal insertion.

    ``resynthesized`` / ``reused`` count how the accepted candidate's
    synthesis was obtained: signals recomputed from scratch vs covers
    carried over by incremental resynthesis (a legacy full pass counts
    every signal as resynthesized).
    """

    signal: str
    target: str              # "event/index" or "complete(signal)"
    divisor: str
    before_complexity: int
    potential_before: int
    potential_after: int
    states_before: int
    states_after: int
    resynthesized: int = 0
    reused: int = 0

    def decision(self) -> Tuple:
        """The mode-independent fields: what was inserted and why.

        Incremental and full resynthesis must agree on these for every
        step (the telemetry counters legitimately differ).
        """
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
    initial_netlist: Netlist
    steps: List[DecompositionStep] = field(default_factory=list)
    #: resynthesis work over *every* trial candidate (accepted or not):
    #: signals synthesized from scratch, covers carried over, and
    #: syntheses skipped because the candidate's rejection was proven
    #: before they ran.
    trial_resynthesized: int = 0
    trial_reused: int = 0
    trial_skipped: int = 0

    @property
    def inserted_signals(self) -> int:
        return len(self.steps)

    @property
    def signals_resynthesized(self) -> int:
        """Signals synthesized from scratch across all accepted steps."""
        return sum(step.resynthesized for step in self.steps)

    @property
    def signals_reused(self) -> int:
        """Signals whose covers incremental resynthesis carried over."""
        return sum(step.reused for step in self.steps)

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
        return min(self.cover.literal_count(),
                   self.complement.literal_count())

    @property
    def chosen(self) -> SopCover:
        """The polarity that realizes the complexity measure."""
        if self.cover.literal_count() <= self.complement.literal_count():
            return self.cover
        return self.complement

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
            sg = solve_csc(sg, signal_prefix="csc",
                           method=self.config.csc_method).sg
            implementations = None
        assert_implementable(sg)

        if implementations is None:
            implementations = synthesize_all(sg)
        initial_netlist = Netlist(sg.name, implementations)
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
            if len(steps) >= self.config.max_iterations:
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
            initial_netlist=initial_netlist,
            steps=steps,
            trial_resynthesized=self._trial_stats.resynthesized,
            trial_reused=self._trial_stats.reused,
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
        signal_name = self._fresh_name(sg, step_index)
        covers_by_region = {
            u.key: (u.region, u.cover) for u in units
            if u.region is not None}
        best_neutral = None

        for unit in oversized:
            candidates = self._rank_divisors(sg, unit, units,
                                             covers_by_region)
            trials = 0
            for _, function, partition in candidates:
                if trials >= self.config.max_insertion_trials:
                    break
                trials += 1
                self._count_candidate()
                with trace_span("map.candidate", "map",
                                target=unit.label,
                                step=step_index, trial=trials) as sp:
                    try:
                        inserted = insert_signal(sg, partition,
                                                 signal_name)
                        new_sg = inserted.sg
                        if len(new_sg) > self.config.max_states:
                            continue
                        # Quick reject: the target signal itself must
                        # make progress before paying for a full
                        # resynthesis ("evaluate progress for
                        # decomposition of c(a*)").
                        target_impl = synthesize_signal(new_sg,
                                                        unit.signal)
                        if not self._target_improved(unit, target_impl):
                            continue
                        with trace_span("map.resynthesize", "map",
                                        target=unit.label):
                            evaluated = self._evaluate_candidate(
                                new_sg, implementations,
                                inserted.changes,
                                unit, target_impl, potential,
                                best_neutral[4]
                                if best_neutral is not None
                                else None)
                    except (InsertionError, CoverError, CscViolation):
                        continue
                    if evaluated is None:
                        continue  # rejection proven mid-resynthesis
                    new_implementations, resynth = evaluated
                    if not self._acknowledgment_ok(new_implementations,
                                                   unit, signal_name):
                        continue
                    new_units = _units_of(new_implementations)
                    new_potential = _potential(new_units, self.library)
                    if (new_potential
                            > potential + self.config.max_regression):
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
                                        function, unit, new_potential,
                                        resynth)
                    continue
                self._neutral_streak = 0
                self._used_functions[function] = signal_name
                record = DecompositionStep(
                    signal=signal_name,
                    target=unit.label,
                    divisor=function.to_string(),
                    before_complexity=unit.complexity,
                    potential_before=potential,
                    potential_after=new_potential,
                    states_before=len(sg),
                    states_after=len(new_sg),
                    resynthesized=resynth.resynthesized,
                    reused=resynth.reused)
                return new_sg, new_implementations, record
        if best_neutral is not None:
            (new_sg, new_implementations, function, unit,
             new_potential, resynth) = best_neutral
            self._used_functions[function] = signal_name
            self._neutral_streak += 1 + (new_potential - potential)
            record = DecompositionStep(
                signal=signal_name,
                target=unit.label,
                divisor=function.to_string(),
                before_complexity=unit.complexity,
                potential_before=potential,
                potential_after=new_potential,
                states_before=len(sg),
                states_after=len(new_sg),
                resynthesized=resynth.resynthesized,
                reused=resynth.reused)
            return new_sg, new_implementations, record
        return None

    # ------------------------------------------------------------------
    # Incremental candidate evaluation
    # ------------------------------------------------------------------

    def _evaluate_candidate(self, new_sg: StateGraph,
                            old_implementations: Dict[str, SignalImplementation],
                            changes, unit: _Unit,
                            target_impl: SignalImplementation,
                            potential: int, bn_potential: Optional[int]
                            ) -> Optional[Tuple[Dict[str, SignalImplementation],
                                                ResynthesisStats]]:
        """Resynthesize a candidate insertion, stopping early when its
        rejection is already certain.

        The legacy path (``incremental_resynthesis=False``) runs
        :func:`synthesize_all` unconditionally.  The incremental path
        reaches the same accept/reject decisions with less work:

        * signals untouched by the insertion carry their covers over to
          the new code space instead of re-minimizing
          (:func:`resynthesize_signal`);
        * the oversize potential is a sum of non-negative per-signal
          masses, so once the partial sum over the synthesized signals
          exceeds every bound an acceptable (``< potential``) or
          neutral-step candidate could still meet, the remaining
          synthesis cannot change the verdict and is skipped.

        Returns ``None`` when the candidate is rejected early, else
        ``(implementations, stats)`` with the implementations dict
        identical to a full :func:`synthesize_all` pass.
        """
        if not self.config.incremental_resynthesis:
            implementations = synthesize_all(new_sg)
            stats = ResynthesisStats(resynthesized=len(implementations))
            self._trial_stats.add(stats)
            return implementations, stats

        k = self.library.max_literals
        stats = ResynthesisStats(resynthesized=1)   # the quick-reject target
        computed = {unit.signal: target_impl}
        partial = self._oversize_mass(target_impl, k)
        try:
            for signal in self._evaluation_order(new_sg, unit,
                                                 changes.signal):
                if self._rejection_proven(partial, potential,
                                          bn_potential):
                    stats.skipped = len(new_sg.outputs) - len(computed)
                    return None
                impl, reused = resynthesize_signal(
                    new_sg, signal, old_implementations.get(signal),
                    changes)
                computed[signal] = impl
                if reused:
                    stats.reused += 1
                else:
                    stats.resynthesized += 1
                partial += self._oversize_mass(impl, k)
        finally:
            self._trial_stats.add(stats)
        return {s: computed[s] for s in new_sg.outputs}, stats

    def _evaluation_order(self, new_sg: StateGraph, unit: _Unit,
                          new_signal: str) -> List[str]:
        """Synthesis order for a candidate's remaining signals.

        Any order yields the same decisions (the potential is a sum);
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
        return [new_signal] + rest

    def _rejection_proven(self, partial: int, potential: int,
                          bn_potential: Optional[int]) -> bool:
        """Is every outcome that keeps this candidate already ruled out?

        ``partial`` is a lower bound on the candidate's final potential.
        A strict-progress accept needs ``final < potential``; once that
        is impossible, only the neutral-step fallback remains, which
        needs the (potential-dependent) streak budget and must beat the
        incumbent ``best_neutral``.
        """
        config = self.config
        if partial > potential + config.max_regression:
            return True
        if partial < potential:
            return False
        cost = 1 + (partial - potential)    # lower bound of the streak cost
        if self._neutral_streak + cost > config.max_neutral_steps:
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
        budget = max(self.config.max_insertion_trials * 2, 8)
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
        if target_impl.is_combinational:
            after = max(0, (target_impl.complete_complexity or 0) - k)
        else:
            if unit.region is None:
                # Complete-cover target resynthesized as sequential:
                # judge the whole signal.
                after = sum(max(0, rc.complexity - k)
                            for rc in target_impl.region_covers)
            else:
                after = sum(max(0, rc.complexity - k)
                            for rc in target_impl.cover_of_event(
                                unit.key[0]))
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

    def _fresh_name(self, sg: StateGraph, step_index: int) -> str:
        name = f"{self.config.signal_prefix}{step_index}"
        taken = set(sg.signals)
        suffix = step_index
        while name in taken:
            suffix += 1
            name = f"{self.config.signal_prefix}{suffix}"
        return name


def map_circuit(circuit: Union[Stg, StateGraph], library: GateLibrary,
                config: Optional[MapperConfig] = None,
                implementations: Optional[Dict[str, SignalImplementation]] = None
                ) -> MappingResult:
    """Convenience wrapper: map a circuit into a library."""
    return TechnologyMapper(library, config).map(circuit, implementations)
