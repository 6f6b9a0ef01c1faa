"""State graphs: labelled transition systems over binary-encoded states.

A :class:`StateGraph` is the semantic object everything in this library
works on: states carry a binary code over the signal set, arcs carry
*events* (``"a+"`` / ``"a-"`` strings), signals are partitioned into
inputs and outputs.  State identities are opaque hashable objects —
Petri-net markings after reachability, ``(state, phase)`` pairs after a
signal insertion — and nothing in the library looks inside them.

Storage is int-indexed: states are numbered ``0..n-1`` in insertion
order, and the graph keeps

* the identity list (index → state) and its inverse dict;
* one packed int code per state, bit ``k`` = ``signals[k]`` (the
  :class:`~repro.sg.encoding.Encoding` bit layout);
* per-state tuples of ``(event, j)`` successor and predecessor arcs.

The public API speaks identities and :class:`FrozenVector` codes; the
packed arrays are what :mod:`repro.sg.encoding` copies and what
:meth:`StateGraph.from_arrays` validates.  Arcs are kept as a sequence
per state so that non-deterministic graphs can be represented (and then
*rejected* by the property checks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro._util import FrozenVector
from repro.errors import StgError

State = Hashable
Event = str  # "a+" or "a-"
Arcs = Tuple[Tuple[Event, int], ...]


def event_signal(event: Event) -> str:
    """Signal name of an event label."""
    return event[:-1]


def event_direction(event: Event) -> str:
    """Direction (``'+'`` or ``'-'``) of an event label."""
    return event[-1]


def opposite_event(event: Event) -> Event:
    """``a+`` ↔ ``a-``."""
    return event_signal(event) + ("-" if event_direction(event) == "+"
                                  else "+")


@dataclass(frozen=True)
class Diamond:
    """A commutativity diamond.

    ``bottom`` enables both ``event_a`` and ``event_b``; the two firing
    orders meet again in ``top``::

            top
           a/  \\b
        side_b  side_a
           b\\  /a
           bottom
    """

    bottom: State
    event_a: Event
    event_b: Event
    side_a: State  # after firing event_a from bottom
    side_b: State  # after firing event_b from bottom
    top: State

    @property
    def states(self) -> Tuple[State, State, State, State]:
        return (self.bottom, self.side_a, self.side_b, self.top)

    @property
    def path_a_first(self) -> Tuple[State, State, State]:
        return (self.bottom, self.side_a, self.top)

    @property
    def path_b_first(self) -> Tuple[State, State, State]:
        return (self.bottom, self.side_b, self.top)


class StateGraph:
    """A mutable labelled transition system with binary-encoded states."""

    def __init__(self, name: str, inputs: Iterable[str],
                 outputs: Iterable[str]):
        self.name = name
        self._inputs: Tuple[str, ...] = tuple(sorted(set(inputs)))
        self._outputs: Tuple[str, ...] = tuple(sorted(set(outputs)))
        overlap = set(self._inputs) & set(self._outputs)
        if overlap:
            raise StgError(f"signals {sorted(overlap)} are both input "
                           "and output")
        self._signals: Tuple[str, ...] = tuple(
            sorted(self._inputs + self._outputs))
        self._ids: List[State] = []
        self._index: Dict[State, int] = {}
        self._codes: List[int] = []
        self._succ: List[Arcs] = []
        self._pred: List[Arcs] = []
        self._initial: Optional[int] = None
        self._vectors: Dict[int, FrozenVector] = {}
        self._rank_cache: Optional[List[int]] = None
        self._encoding_cache = None  # repro.sg.encoding.Encoding

    @classmethod
    def from_arrays(cls, name: str, inputs: Iterable[str],
                    outputs: Iterable[str], states: Sequence[State],
                    codes: Sequence[int], succ: Sequence[Arcs],
                    pred: Sequence[Arcs], initial: int) -> "StateGraph":
        """Build a graph straight from the int-indexed layout.

        ``states[i]`` is the identity of state ``i``, ``codes[i]`` its
        packed code (bit ``k`` = ``signals[k]``), ``succ[i]`` /
        ``pred[i]`` its ``(event, j)`` arcs in order and ``initial`` an
        index.  The arrays are validated (lengths, unique identities,
        code width, event signals, initial index) and then owned by the
        graph.
        """
        sg = cls(name, inputs, outputs)
        n = len(states)
        if not len(codes) == len(succ) == len(pred) == n:
            raise StgError("state arrays disagree in length")
        index = {state: i for i, state in enumerate(states)}
        if len(index) != n:
            raise StgError("state identities are not unique")
        if codes and (min(codes) < 0
                      or max(codes) >> len(sg._signals)):
            raise StgError(f"state code wider than signals "
                           f"{list(sg._signals)}")
        known = set(sg._signals)
        for event in {event for arcs in succ for event, _ in arcs}:
            if event[:-1] not in known:
                raise StgError(f"event {event!r} uses unknown signal")
        if not 0 <= initial < n:
            raise StgError(f"initial state index {initial} out of range")
        sg._ids = list(states)
        sg._index = index
        sg._codes = list(codes)
        sg._succ = list(succ)
        sg._pred = list(pred)
        sg._initial = initial
        return sg

    def _mutated(self) -> None:
        self._rank_cache = None
        self._encoding_cache = None

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------

    @property
    def inputs(self) -> Tuple[str, ...]:
        return self._inputs

    @property
    def outputs(self) -> Tuple[str, ...]:
        return self._outputs

    @property
    def signals(self) -> Tuple[str, ...]:
        return self._signals

    def is_input(self, signal: str) -> bool:
        return signal in self._inputs

    def is_input_event(self, event: Event) -> bool:
        return event_signal(event) in self._inputs

    # ------------------------------------------------------------------
    # States and arcs
    # ------------------------------------------------------------------

    @property
    def states(self) -> Tuple[State, ...]:
        return tuple(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, state: State) -> bool:
        return state in self._index

    @property
    def initial(self) -> State:
        if self._initial is None:
            raise StgError("state graph has no initial state")
        return self._ids[self._initial]

    def set_initial(self, state: State) -> None:
        if state not in self._index:
            raise StgError(f"unknown state {state!r}")
        self._initial = self._index[state]
        self._rank_cache = None

    def add_state(self, state: State, code: FrozenVector) -> State:
        if state in self._index:
            raise StgError(f"state {state!r} added twice")
        expected = set(self._signals)
        if set(code.keys()) != expected:
            raise StgError(
                f"state code must cover signals {sorted(expected)}, "
                f"got {code.keys()}")
        packed = 0
        for k, signal in enumerate(self._signals):
            if code[signal]:
                packed |= 1 << k
        self._index[state] = len(self._ids)
        self._ids.append(state)
        self._codes.append(packed)
        self._vectors.setdefault(packed, code)
        self._succ.append(())
        self._pred.append(())
        self._mutated()
        return state

    def add_arc(self, source: State, event: Event, target: State) -> None:
        if source not in self._index:
            raise StgError(f"unknown source state {source!r}")
        if target not in self._index:
            raise StgError(f"unknown target state {target!r}")
        if event_signal(event) not in self._signals:
            raise StgError(f"event {event!r} uses unknown signal")
        i, j = self._index[source], self._index[target]
        if (event, j) in self._succ[i]:
            return
        self._succ[i] += ((event, j),)
        self._pred[j] += ((event, i),)
        self._mutated()

    def code(self, state: State) -> FrozenVector:
        try:
            packed = self._codes[self._index[state]]
        except KeyError:
            raise StgError(f"unknown state {state!r}")
        vector = self._vectors.get(packed)
        if vector is None:
            # A racing miss on a shared graph only builds an equal
            # vector twice.
            vector = FrozenVector({signal: (packed >> k) & 1
                                   for k, signal in enumerate(self._signals)})
            self._vectors[packed] = vector
        return vector

    def successors(self, state: State) -> List[Tuple[Event, State]]:
        ids = self._ids
        return [(event, ids[j]) for event, j in self._succ[self._index[state]]]

    def predecessors(self, state: State) -> List[Tuple[Event, State]]:
        ids = self._ids
        return [(event, ids[j]) for event, j in self._pred[self._index[state]]]

    def successor(self, state: State, event: Event) -> Optional[State]:
        """The unique successor by ``event`` (None if not enabled).

        Raises on non-determinism — call sites rely on the property
        checks having passed.
        """
        targets = [j for label, j in self._succ[self._index[state]]
                   if label == event]
        if not targets:
            return None
        if len(targets) > 1:
            raise StgError(f"non-deterministic event {event!r} at "
                           f"{state!r}")
        return self._ids[targets[0]]

    def enabled(self, state: State) -> List[Event]:
        """Event labels enabled at a state (sorted, deduplicated)."""
        return sorted({event for event, _ in self._succ[self._index[state]]})

    def is_excited(self, state: State, signal: str) -> bool:
        """True iff some transition of ``signal`` is enabled at state."""
        return any(event_signal(event) == signal
                   for event, _ in self._succ[self._index[state]])

    def encoding(self):
        """The packed-integer view of this graph (cached).

        Returns a :class:`repro.sg.encoding.Encoding` — stable
        signal→bit and state→index maps plus packed codes, adjacency
        and enabledness bitsets.  Invalidated by any mutation; shared
        with content-identical :meth:`copy` clones (the encoding holds
        no reference back to the graph)."""
        if self._encoding_cache is None:
            from repro.sg.encoding import Encoding
            self._encoding_cache = Encoding(self)
        return self._encoding_cache

    # ------------------------------------------------------------------
    # Graph algorithms
    # ------------------------------------------------------------------

    def _bfs(self) -> List[int]:
        """State indices in BFS order from the initial state, each
        state's successors visited in ``(event, index)`` order of their
        arcs."""
        succ = self._succ
        start = self._index[self.initial]
        order = [start]
        seen = {start}
        index = 0
        while index < len(order):
            arcs = succ[order[index]]
            index += 1
            for _, j in sorted(arcs):
                if j not in seen:
                    seen.add(j)
                    order.append(j)
        return order

    def bfs_rank(self) -> List[int]:
        """Deterministic BFS number of every state index, from the
        initial state; states the BFS never reaches share the number
        after the last reached one.

        The list is cached — region indexing consults it once per
        excitation-region computation — and invalidated by any graph
        mutation.  Callers must treat it as read-only.
        """
        if self._rank_cache is None:
            order = self._bfs()
            rank = [len(order)] * len(self._ids)
            for k, i in enumerate(order):
                rank[i] = k
            self._rank_cache = rank
        return self._rank_cache

    def diamonds(self) -> List[Diamond]:
        """All commutativity diamonds of the graph (the encoding's
        index-level diamonds, cached there, as identities).

        Only complete diamonds are returned: both interleavings must
        exist and meet in the same top state.  (Incomplete diamonds are
        commutativity/persistency violations, reported by the property
        checks, not here.)
        """
        ids = self._ids
        return [Diamond(ids[bottom], event_a, event_b, ids[side_a],
                        ids[side_b], ids[top])
                for bottom, event_a, event_b, side_a, side_b, top
                in self.encoding().diamonds()]

    # ------------------------------------------------------------------
    # Serialization helpers
    # ------------------------------------------------------------------

    def copy(self, name: Optional[str] = None) -> "StateGraph":
        clone = StateGraph(name or self.name, self._inputs, self._outputs)
        clone._ids = list(self._ids)
        clone._index = dict(self._index)
        clone._codes = list(self._codes)
        clone._succ = list(self._succ)
        clone._pred = list(self._pred)
        clone._initial = self._initial
        clone._vectors = self._vectors
        # The clone is content-identical, so the BFS numbering and the
        # packed encoding carry over; a later mutation of either graph
        # only drops its own reference (neither cache is ever mutated
        # in place).
        clone._rank_cache = self._rank_cache
        clone._encoding_cache = self._encoding_cache
        return clone

    def relabel(self) -> "StateGraph":
        """Return a copy whose states are renamed ``s0, s1, ...`` in BFS
        order from the initial state (stable, readable identities)."""
        order = self._bfs()
        new = {old: k for k, old in enumerate(order)}
        succ: List[Arcs] = []
        pred: List[List[Tuple[Event, int]]] = [[] for _ in order]
        for k, old in enumerate(order):
            arcs = tuple((event, new[j]) for event, j in self._succ[old]
                         if j in new)
            succ.append(arcs)
            for event, j in arcs:
                pred[j].append((event, k))
        return StateGraph.from_arrays(
            self.name, self._inputs, self._outputs,
            [f"s{k}" for k in range(len(order))],
            [self._codes[old] for old in order], succ,
            [tuple(arcs) for arcs in pred], 0)

    def to_dot(self) -> str:
        """GraphViz rendering (debugging aid)."""
        lines = [f'digraph "{self.name}" {{']
        width = len(self._signals)
        for i, packed in enumerate(self._codes):
            bits = "".join(str((packed >> k) & 1) for k in range(width))
            shape = "doublecircle" if self._initial == i else "circle"
            lines.append(f'  s{i} [label="{bits}" shape={shape}];')
        for i, arcs in enumerate(self._succ):
            for event, j in arcs:
                lines.append(f'  s{i} -> s{j} [label="{event}"];')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"StateGraph({self.name!r}, |S|={len(self._ids)}, "
                f"signals={list(self.signals)})")
