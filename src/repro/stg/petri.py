"""Place/transition Petri nets with markings.

The net is the behavioural substrate under Signal Transition Graphs:
places hold tokens, transitions fire by consuming one token per input
place and producing one per output place.  Only ordinary arcs (weight 1)
are supported — STGs in the asynchronous-synthesis literature are
1-safe ordinary nets, and the reachability code enforces 1-safety.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.errors import PetriNetError


class Marking(frozenset):
    """A 1-safe marking: the frozen set of marked place names.

    Equal to, and hashing like, the plain ``frozenset`` of its places.
    It pickles them sorted, so a stored state graph (whose state
    identities are markings) has the same bytes in every process,
    whatever its string-hash salt.
    """

    __slots__ = ()

    def __reduce__(self):
        return Marking, (sorted(self),)


class PetriNet:
    """A mutable ordinary Petri net."""

    def __init__(self, name: str = "net"):
        self.name = name
        self._places: Set[str] = set()
        self._transitions: Set[str] = set()
        # arcs stored both ways for O(1) pre/post-set queries
        self._pre: Dict[str, Set[str]] = {}    # transition -> places
        self._post: Dict[str, Set[str]] = {}   # transition -> places
        self._place_post: Dict[str, Set[str]] = {}  # place -> transitions
        self._place_pre: Dict[str, Set[str]] = {}   # place -> transitions
        self._initial: Set[str] = set()

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def places(self) -> Tuple[str, ...]:
        return tuple(sorted(self._places))

    @property
    def transitions(self) -> Tuple[str, ...]:
        return tuple(sorted(self._transitions))

    def add_place(self, name: str, marked: bool = False) -> str:
        if name in self._transitions:
            raise PetriNetError(f"{name!r} already names a transition")
        if name not in self._places:
            self._places.add(name)
            self._place_pre[name] = set()
            self._place_post[name] = set()
        if marked:
            self._initial.add(name)
        return name

    def add_transition(self, name: str) -> str:
        if name in self._places:
            raise PetriNetError(f"{name!r} already names a place")
        if name not in self._transitions:
            self._transitions.add(name)
            self._pre[name] = set()
            self._post[name] = set()
        return name

    def add_arc(self, source: str, target: str) -> None:
        """Add a place→transition or transition→place arc."""
        if source in self._places and target in self._transitions:
            self._place_post[source].add(target)
            self._pre[target].add(source)
        elif source in self._transitions and target in self._places:
            self._post[source].add(target)
            self._place_pre[target].add(source)
        else:
            raise PetriNetError(
                f"arc {source!r} -> {target!r} must connect a place and a "
                "transition (both endpoints must already exist)")

    def preset(self, transition: str) -> FrozenSet[str]:
        """Input places of a transition."""
        try:
            return frozenset(self._pre[transition])
        except KeyError:
            raise PetriNetError(f"unknown transition {transition!r}")

    def postset(self, transition: str) -> FrozenSet[str]:
        """Output places of a transition."""
        try:
            return frozenset(self._post[transition])
        except KeyError:
            raise PetriNetError(f"unknown transition {transition!r}")

    def place_preset(self, place: str) -> FrozenSet[str]:
        """Transitions producing into a place."""
        try:
            return frozenset(self._place_pre[place])
        except KeyError:
            raise PetriNetError(f"unknown place {place!r}")

    def place_postset(self, place: str) -> FrozenSet[str]:
        """Transitions consuming from a place."""
        try:
            return frozenset(self._place_post[place])
        except KeyError:
            raise PetriNetError(f"unknown place {place!r}")

    # ------------------------------------------------------------------
    # Marking and firing
    # ------------------------------------------------------------------

    @property
    def initial_marking(self) -> Marking:
        return Marking(self._initial)

    def set_initial_marking(self, places: Iterable[str]) -> None:
        places = set(places)
        unknown = places - self._places
        if unknown:
            raise PetriNetError(f"marking refers to unknown places "
                                f"{sorted(unknown)}")
        self._initial = places

    def enabled(self, marking: Marking) -> List[str]:
        """Transitions enabled at the given 1-safe marking."""
        return sorted(t for t in self._transitions
                      if self._pre[t] <= marking)

    def is_enabled(self, transition: str, marking: Marking) -> bool:
        if transition not in self._transitions:
            raise PetriNetError(f"unknown transition {transition!r}")
        return self._pre[transition] <= marking

    def fire(self, transition: str, marking: Marking) -> Marking:
        """Fire a transition, enforcing 1-safety of the successor."""
        if not self.is_enabled(transition, marking):
            raise PetriNetError(
                f"transition {transition!r} is not enabled at {sorted(marking)}")
        after = (set(marking) - self._pre[transition])
        produced = self._post[transition]
        collision = after & produced
        if collision:
            raise PetriNetError(
                f"firing {transition!r} violates 1-safety on places "
                f"{sorted(collision)}")
        return Marking(after | produced)

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------

    def is_choice_place(self, place: str) -> bool:
        """True iff the place has more than one consumer."""
        return len(self._place_post[place]) > 1

    def is_merge_place(self, place: str) -> bool:
        """True iff the place has more than one producer."""
        return len(self._place_pre[place]) > 1

    def copy(self, name: Optional[str] = None) -> "PetriNet":
        clone = PetriNet(name or self.name)
        for place in self._places:
            clone.add_place(place, marked=place in self._initial)
        for transition in self._transitions:
            clone.add_transition(transition)
        for transition, places in self._pre.items():
            for place in places:
                clone.add_arc(place, transition)
        for transition, places in self._post.items():
            for place in places:
                clone.add_arc(transition, place)
        return clone

    def __repr__(self) -> str:
        return (f"PetriNet({self.name!r}, |P|={len(self._places)}, "
                f"|T|={len(self._transitions)})")
