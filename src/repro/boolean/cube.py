"""Product terms (cubes) over named boolean signals.

A :class:`Cube` maps a subset of signal names to a required value
(1 → positive literal, 0 → negative literal); signals absent from the
mapping are don't-cares.  Cubes are immutable and hashable, so covers
can be stored in sets and compared structurally.

The vocabulary follows two-level minimization practice: *containment*
(one cube covering another), *intersection*, *cofactors*, *supercube*,
*distance* and *consensus* are the primitives EXPAND/IRREDUNDANT and the
algebraic operations in :mod:`repro.boolean.divisors` are built on.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

from repro.errors import ParseError


class Cube:
    """An immutable product term over named signals."""

    __slots__ = ("_literals", "_map", "_hash")

    def __init__(self, literals: Optional[Mapping[str, int]] = None):
        items = {}
        for name, value in (literals or {}).items():
            if value not in (0, 1):
                raise ValueError(
                    f"literal {name!r} must be 0 or 1, got {value!r}")
            items[name] = value
        self._literals: Tuple[Tuple[str, int], ...] = tuple(
            sorted(items.items()))
        # Dict twin of the sorted tuple: O(1) polarity lookups under
        # cofactor/contains/consensus.  Read-only — never handed out.
        self._map: Dict[str, int] = dict(self._literals)
        self._hash = hash(self._literals)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def one(cls) -> "Cube":
        """The universal cube (empty product, constant 1)."""
        return cls({})

    @classmethod
    def from_string(cls, text: str) -> "Cube":
        """Parse ``"a b' c"`` / ``"a !b c"`` / ``"a*~b*c"`` into a cube.

        Accepted negation markers: a trailing apostrophe, or a leading
        ``!`` or ``~``.  Separators: whitespace or ``*``.
        """
        cube: Dict[str, int] = {}
        for token in text.replace("*", " ").split():
            value = 1
            if token.endswith("'"):
                token, value = token[:-1], 0
            elif token.startswith(("!", "~")):
                token, value = token[1:], 0
            if not token or not token.replace("_", "").isalnum():
                raise ParseError(f"bad literal {token!r} in cube {text!r}")
            if cube.get(token, value) != value:
                raise ParseError(
                    f"contradictory literals for {token!r} in {text!r}")
            cube[token] = value
        return cls(cube)

    @classmethod
    def from_minterm(cls, vector: Mapping[str, int],
                     support: Optional[Iterable[str]] = None) -> "Cube":
        """Build the full-support cube matching exactly ``vector``.

        ``support`` restricts/projects the minterm onto those names.
        """
        names = list(support) if support is not None else list(vector)
        return cls({name: vector[name] for name in names})

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def literals(self) -> Dict[str, int]:
        """The literal map (copy)."""
        return dict(self._literals)

    @property
    def support(self) -> Tuple[str, ...]:
        """Signal names constrained by this cube, sorted."""
        return tuple(name for name, _ in self._literals)

    def __len__(self) -> int:
        """Number of literals (the paper's gate-complexity unit)."""
        return len(self._literals)

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        return iter(self._literals)

    def polarity(self, name: str) -> Optional[int]:
        """Value required for ``name`` (0/1), or None if unconstrained."""
        return self._map.get(name)

    def is_one(self) -> bool:
        """True for the universal cube."""
        return not self._literals

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------

    def evaluate(self, vector: Mapping[str, int]) -> bool:
        """True iff the cube covers the given complete assignment."""
        return all(vector[name] == value for name, value in self._literals)

    def contains(self, other: "Cube") -> bool:
        """True iff every point of ``other`` is covered by ``self``."""
        theirs = other._map
        for name, value in self._literals:
            if theirs.get(name) != value:
                return False
        return True

    def intersect(self, other: "Cube") -> Optional["Cube"]:
        """The product ``self & other``, or None when orthogonal."""
        merged = dict(self._literals)
        for name, value in other._literals:
            if merged.get(name, value) != value:
                return None
            merged[name] = value
        return Cube(merged)

    def distance(self, other: "Cube") -> int:
        """Number of signals on which the two cubes conflict."""
        theirs = other._map
        return sum(1 for name, value in self._literals
                   if name in theirs and theirs[name] != value)

    def supercube(self, other: "Cube") -> "Cube":
        """Smallest cube containing both operands."""
        theirs = other._map
        merged = {name: value for name, value in self._literals
                  if theirs.get(name) == value}
        return Cube(merged)

    def consensus(self, other: "Cube") -> Optional["Cube"]:
        """The consensus term, defined when distance is exactly 1."""
        if self.distance(other) != 1:
            return None
        merged = dict(self._literals)
        conflict = None
        for name, value in other._literals:
            if merged.get(name, value) != value:
                conflict = name
            else:
                merged[name] = value
        assert conflict is not None
        merged.pop(conflict)
        return Cube(merged)

    def cofactor(self, name: str, value: int) -> Optional["Cube"]:
        """Shannon cofactor w.r.t. ``name = value``; None if empty."""
        mine = self.polarity(name)
        if mine is not None and mine != value:
            return None
        literals = dict(self._literals)
        literals.pop(name, None)
        return Cube(literals)

    def cube_cofactor(self, other: "Cube") -> Optional["Cube"]:
        """Cofactor of ``self`` with respect to cube ``other``.

        Standard definition used by kernel extraction: empty if the two
        cubes conflict, otherwise ``self`` with ``other``'s literals
        removed.
        """
        result: Optional[Cube] = self
        for name, value in other._literals:
            if result is None:
                return None
            result = result.cofactor(name, value)
        return result

    def without(self, names: Iterable[str]) -> "Cube":
        """Drop the given signals from the cube (widen it)."""
        drop = set(names)
        return Cube({name: value for name, value in self._literals
                     if name not in drop})

    def rename(self, mapping: Mapping[str, str]) -> "Cube":
        """Rename support signals according to ``mapping``."""
        return Cube({mapping.get(name, name): value
                     for name, value in self._literals})

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------

    def __reduce__(self):
        # Rebuild through __init__ so pickles stay independent of the
        # slot layout (cubes live inside on-disk artifact stores).
        return (Cube, (self._map,))

    def __setstate__(self, state):
        # Pickles written before ``_map`` existed (slot layout
        # ``(_literals, _hash)``, default slot-state protocol) still
        # live in on-disk artifact stores; rebuild every derived field
        # from the literal tuple so they load into the current layout.
        # ``_hash`` is recomputed, never restored: string hashes are
        # salted per process, so a stored hash from another process
        # would disagree with freshly built equal cubes.
        slots = state[1] if isinstance(state, tuple) else state
        self._literals = tuple(
            tuple(item) for item in (slots or {}).get("_literals", ()))
        self._map = dict(self._literals)
        self._hash = hash(self._literals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cube):
            return NotImplemented
        return self._literals == other._literals

    def __lt__(self, other: "Cube") -> bool:
        return self._literals < other._literals

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Cube({self.to_string()!r})"

    def to_string(self) -> str:
        """Human-readable product, e.g. ``"a b' c"``; ``"1"`` if empty."""
        if not self._literals:
            return "1"
        return " ".join(name if value else name + "'"
                        for name, value in self._literals)
