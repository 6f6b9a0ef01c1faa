"""Event-driven gate-level simulation under the unbounded-delay model.

A second, independent check on mapped circuits (complementing the
state-based verifier in :mod:`repro.verify.si_check`): the netlist is
simulated as a set of asynchronous components — combinational gates,
Muller C elements, and an environment that produces input transitions
according to the specification SG — with *adversarial* scheduling: at
each step one excited component fires, chosen pseudo-randomly.

Detected failures (:class:`~repro.errors.VerificationError`):

* **gate-level hazard** — a combinational gate or C element that was
  excited becomes unexcited without having fired (its output could
  have glitched in a real circuit; this is exactly Muller's
  semi-modularity violation);
* **conformance violation** — the circuit produces an output
  transition the specification does not allow in the current state;
* **deadlock** — nothing is excited although the specification still
  expects progress.

The scheduler is deterministic per seed; running a few dozen seeds
gives good interleaving coverage on benchmark-sized circuits (this is
a testing tool, not a proof — the exhaustive check is the state-based
verifier).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set

from repro.errors import VerificationError
from repro.sg.graph import StateGraph, event_signal
from repro.synthesis.netlist import Netlist


@dataclass
class _Component:
    """One schedulable circuit element."""

    name: str
    output: str
    kind: str  # "gate", "celement", "input"

    def next_value(self, values: Dict[str, int]) -> int:
        raise NotImplementedError


class _Gate(_Component):
    def __init__(self, gate):
        super().__init__(gate.name, gate.output, "gate")
        self._cover = gate.cover

    def next_value(self, values: Dict[str, int]) -> int:
        return int(self._cover.evaluate(values))


class _CElement(_Component):
    def __init__(self, celem):
        super().__init__(f"c_{celem.signal}", celem.signal, "celement")
        self._set = celem.set_net
        self._reset = celem.reset_net

    def next_value(self, values: Dict[str, int]) -> int:
        # The architecture's storage element is C(S, R'): it rises on
        # S=1/R=0, falls on S=0/R=1 and *holds* otherwise — including
        # the transient S=R=1 case where the reset gate is still stale
        # (the state-based verifier separately proves the cover
        # functions never statically overlap).
        set_value = values[self._set]
        reset_value = values[self._reset]
        if set_value and not reset_value:
            return 1
        if reset_value and not set_value:
            return 0
        return values[self.output]


class GateLevelSimulator:
    """Simulate a mapped netlist against its specification SG."""

    def __init__(self, sg: StateGraph, netlist: Netlist):
        self.sg = sg
        self.netlist = netlist
        self.components: List[_Component] = []
        for gate in netlist.gates:
            self.components.append(_Gate(gate))
        for celem in netlist.c_elements:
            self.components.append(_CElement(celem))
        self._by_output = {c.output: c for c in self.components}
        driven = set(self._by_output)
        missing = set(sg.outputs) - driven
        if missing:
            raise VerificationError(
                f"netlist drives no gate for outputs {sorted(missing)}")

    # ------------------------------------------------------------------

    def _initial_values(self) -> Dict[str, int]:
        code = self.sg.code(self.sg.initial)
        values: Dict[str, int] = {s: code[s] for s in self.sg.signals}
        # Settle internal nets: evaluate gates in dependency order by
        # fixpoint iteration (the netlist is acyclic apart from the
        # C-element feedbacks, which are initialized from the code).
        for _ in range(len(self.components) + 1):
            changed = False
            for component in self.components:
                if component.kind == "celement":
                    values.setdefault(component.output,
                                      code[component.output])
                    continue
                known = all(name in values
                            for name in self._fanin(component))
                if not known:
                    continue
                value = component.next_value(values)
                if values.get(component.output) != value:
                    values[component.output] = value
                    changed = True
            if not changed:
                break
        for component in self.components:
            if component.output not in values:
                raise VerificationError(
                    f"could not settle initial value of "
                    f"{component.output!r}")
        return values

    def _fanin(self, component: _Component) -> Sequence[str]:
        if isinstance(component, _Gate):
            return component._cover.support
        return (component._set, component._reset, component.output)

    # ------------------------------------------------------------------

    def run(self, steps: int = 2000, seed: int = 0) -> int:
        """Simulate one adversarial schedule; returns steps executed."""
        rng = random.Random(seed)
        values = self._initial_values()
        spec_state = self.sg.initial
        executed = 0

        for _ in range(steps):
            excited = self._excited(values, spec_state)
            if not excited:
                if self.sg.enabled(spec_state):
                    raise VerificationError(
                        f"circuit deadlocks in spec state "
                        f"{spec_state!r} (seed {seed})")
                break
            name = rng.choice(sorted(excited))
            values, spec_state = self._fire(name, values, spec_state,
                                            excited, seed)
            executed += 1
        return executed

    def _excited(self, values: Dict[str, int],
                 spec_state) -> Set[str]:
        excited: Set[str] = set()
        for component in self.components:
            if component.next_value(values) != values[component.output]:
                excited.add(component.output)
        for event in self.sg.enabled(spec_state):
            if self.sg.is_input_event(event):
                signal = event_signal(event)
                want = 1 if event.endswith("+") else 0
                if values[signal] != want:
                    excited.add(signal)
        return excited

    def _fire(self, name: str, values: Dict[str, int], spec_state,
              excited_before: Set[str], seed: int):
        new_values = dict(values)
        if name in self._by_output:
            component = self._by_output[name]
            new_values[name] = component.next_value(values)
        else:
            new_values[name] = 1 - values[name]

        new_spec_state = spec_state
        if name in self.sg.signals:
            direction = "+" if new_values[name] == 1 else "-"
            event = name + direction
            target = self.sg.successor(spec_state, event)
            if target is None:
                raise VerificationError(
                    f"circuit fires {event} which the specification "
                    f"does not allow in state {spec_state!r} "
                    f"(seed {seed})")
            new_spec_state = target

        # Semi-modularity: everything excited before (other than the
        # fired component) must still be excited.
        excited_after = self._excited(new_values, new_spec_state)
        lost = excited_before - excited_after - {name}
        # Input excitation may legitimately change with the spec state
        # (the environment is free to withdraw choices).
        lost = {n for n in lost
                if n in self._by_output}
        if lost:
            raise VerificationError(
                f"gate-level hazard: firing {name} disables excited "
                f"gate(s) {sorted(lost)} (seed {seed})")
        return new_values, new_spec_state


def simulate_implementation(sg: StateGraph, netlist: Netlist,
                            seeds: Sequence[int] = range(16),
                            steps: int = 1500) -> int:
    """Run several adversarial schedules; returns total steps executed.

    Raises :class:`VerificationError` on the first hazard,
    non-conformance or deadlock.
    """
    simulator = GateLevelSimulator(sg, netlist)
    total = 0
    for seed in seeds:
        total += simulator.run(steps=steps, seed=seed)
    return total
