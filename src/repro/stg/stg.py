"""Signal Transition Graphs.

An STG is a Petri net whose transitions are labelled with *signal
transitions* — rising (``a+``) or falling (``a-``) edges of circuit
signals — plus a partition of the signals into environment *inputs* and
circuit *outputs* (a.k.a. state signals; both must be implemented, only
outputs are).  Several Petri-net transitions may be labelled with the
same signal edge; they are distinguished by an instance index, written
``a+/2`` in the ``.g`` format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import StgError
from repro.stg.petri import PetriNet


@dataclass(frozen=True, order=True)
class SignalTransition:
    """A labelled signal edge: signal name, direction, instance index."""

    signal: str
    direction: str  # '+' or '-'
    index: int = 1

    def __post_init__(self):
        if self.direction not in ("+", "-"):
            raise StgError(f"direction must be '+' or '-', "
                           f"got {self.direction!r}")
        if self.index < 1:
            raise StgError("instance index starts at 1")

    @property
    def rising(self) -> bool:
        return self.direction == "+"

    @property
    def event(self) -> str:
        """The event label without the instance index, e.g. ``"a+"``."""
        return f"{self.signal}{self.direction}"

    @classmethod
    def parse(cls, text: str) -> "SignalTransition":
        """Parse ``"a+"``, ``"req-/2"`` etc."""
        body, _, suffix = text.partition("/")
        index = int(suffix) if suffix else 1
        body = body.strip()
        if len(body) < 2 or body[-1] not in "+-":
            raise StgError(f"bad signal transition label {text!r}")
        return cls(body[:-1], body[-1], index)

    def __str__(self) -> str:
        if self.index == 1:
            return self.event
        return f"{self.event}/{self.index}"


class Stg:
    """A Signal Transition Graph.

    Wraps a :class:`PetriNet` whose transition names are the string
    forms of :class:`SignalTransition` labels, and records the
    input/output signal partition.
    """

    def __init__(self, name: str = "stg"):
        self.name = name
        self.net = PetriNet(name)
        self._inputs: Set[str] = set()
        self._outputs: Set[str] = set()
        self._internal: Set[str] = set()
        self._labels: Dict[str, SignalTransition] = {}
        self._place_counter = 0

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------

    @property
    def inputs(self) -> Tuple[str, ...]:
        return tuple(sorted(self._inputs))

    @property
    def outputs(self) -> Tuple[str, ...]:
        """Output signals, including internal (non-observable) ones."""
        return tuple(sorted(self._outputs | self._internal))

    @property
    def internal(self) -> Tuple[str, ...]:
        return tuple(sorted(self._internal))

    @property
    def signals(self) -> Tuple[str, ...]:
        return tuple(sorted(self._inputs | self._outputs | self._internal))

    def add_input(self, signal: str) -> None:
        self._check_new_signal(signal)
        self._inputs.add(signal)

    def add_output(self, signal: str) -> None:
        self._check_new_signal(signal)
        self._outputs.add(signal)

    def add_internal(self, signal: str) -> None:
        self._check_new_signal(signal)
        self._internal.add(signal)

    def is_input(self, signal: str) -> bool:
        return signal in self._inputs

    def _check_new_signal(self, signal: str) -> None:
        if not signal or not signal.replace("_", "").isalnum():
            raise StgError(f"bad signal name {signal!r}")
        if signal in self._inputs | self._outputs | self._internal:
            raise StgError(f"signal {signal!r} declared twice")

    # ------------------------------------------------------------------
    # Transitions, places, arcs
    # ------------------------------------------------------------------

    @property
    def transitions(self) -> Tuple[SignalTransition, ...]:
        return tuple(sorted(self._labels.values()))

    def label_of(self, transition_name: str) -> SignalTransition:
        try:
            return self._labels[transition_name]
        except KeyError:
            raise StgError(f"unknown transition {transition_name!r}")

    def add_transition(self, label: "SignalTransition | str") -> SignalTransition:
        if isinstance(label, str):
            label = SignalTransition.parse(label)
        if label.signal not in self._inputs | self._outputs | self._internal:
            raise StgError(f"transition {label} refers to undeclared "
                           f"signal {label.signal!r}")
        name = str(label)
        if name in self._labels:
            raise StgError(f"transition {label} declared twice")
        self.net.add_transition(name)
        self._labels[name] = label
        return label

    def ensure_transition(self, label: "SignalTransition | str") -> SignalTransition:
        if isinstance(label, str):
            label = SignalTransition.parse(label)
        if str(label) not in self._labels:
            return self.add_transition(label)
        return label

    def add_place(self, name: Optional[str] = None,
                  marked: bool = False) -> str:
        if name is None:
            self._place_counter += 1
            name = f"p{self._place_counter}"
            while name in set(self.net.places) | set(self.net.transitions):
                self._place_counter += 1
                name = f"p{self._place_counter}"
        return self.net.add_place(name, marked=marked)

    def connect(self, source: "SignalTransition | str",
                target: "SignalTransition | str",
                marked: bool = False) -> str:
        """Add an implicit place between two transitions.

        This is the ``.g``-format idiom ``a+ b-`` meaning an anonymous
        place from ``a+`` to ``b-``; ``marked`` puts the initial token on
        it.  Returns the generated place name.
        """
        source_name = str(self.ensure_transition(source))
        target_name = str(self.ensure_transition(target))
        place = self.add_place(marked=marked)
        self.net.add_arc(source_name, place)
        self.net.add_arc(place, target_name)
        return place

    def arc(self, source: str, target: str) -> None:
        """Add an explicit place↔transition arc (both must exist)."""
        self.net.add_arc(source, target)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def transitions_of(self, signal: str) -> List[SignalTransition]:
        return sorted(label for label in self._labels.values()
                      if label.signal == signal)

    def validate(self) -> None:
        """Structural sanity: every signal has transitions, every
        transition's signal is declared, the net has an initial marking.
        """
        for signal in self.signals:
            if not self.transitions_of(signal):
                raise StgError(f"signal {signal!r} has no transitions")
        if not self.net.initial_marking:
            raise StgError("no initial marking")
        for transition in self.net.transitions:
            if transition not in self._labels:
                raise StgError(f"net transition {transition!r} lacks a "
                               "signal label")
            if not self.net.preset(transition):
                raise StgError(f"transition {transition!r} has an empty "
                               "preset (always enabled)")

    def copy(self, name: Optional[str] = None) -> "Stg":
        clone = Stg(name or self.name)
        clone.net = self.net.copy(name or self.name)
        clone._inputs = set(self._inputs)
        clone._outputs = set(self._outputs)
        clone._internal = set(self._internal)
        clone._labels = dict(self._labels)
        clone._place_counter = self._place_counter
        return clone

    def __repr__(self) -> str:
        return (f"Stg({self.name!r}, inputs={list(self.inputs)}, "
                f"outputs={list(self.outputs)}, "
                f"|T|={len(self._labels)})")
