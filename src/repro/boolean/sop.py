"""Sum-of-products covers.

:class:`SopCover` is an immutable set of :class:`~repro.boolean.cube.Cube`
objects with the operations two-level and algebraic synthesis need:
evaluation, single-cube containment, tautology checking, complementation
(unate-recursive paradigm), cube-freeing and algebraic
multiplication/addition.  Division and kernel extraction live in
:mod:`repro.boolean.divisors`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.boolean.cube import Cube
from repro.errors import ParseError


class SopCover:
    """An immutable sum of product terms."""

    __slots__ = ("_cubes", "_hash")

    def __init__(self, cubes: Iterable[Cube] = ()):
        kept: List[Cube] = []
        for cube in cubes:
            if not isinstance(cube, Cube):
                raise TypeError(f"expected Cube, got {type(cube).__name__}")
            kept.append(cube)
        # Single-cube containment dedup keeps covers canonical enough for
        # structural equality without full minimization.
        pruned: List[Cube] = []
        for cube in sorted(set(kept)):
            if not any(other.contains(cube) for other in kept
                       if other != cube and not cube.contains(other)):
                pruned.append(cube)
        # Resolve mutual equality kept above: set() already removed it.
        self._cubes: Tuple[Cube, ...] = tuple(sorted(set(pruned)))
        self._hash = hash(self._cubes)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls) -> "SopCover":
        """The empty cover (constant 0)."""
        return cls(())

    @classmethod
    def one(cls) -> "SopCover":
        """The tautological cover (constant 1)."""
        return cls((Cube.one(),))

    @classmethod
    def from_string(cls, text: str) -> "SopCover":
        """Parse ``"a b' + c d"`` into a cover (``+`` separates cubes)."""
        text = text.strip()
        if text in ("0", ""):
            return cls.zero()
        if text == "1":
            return cls.one()
        cubes = []
        for chunk in text.split("+"):
            chunk = chunk.strip()
            if not chunk:
                raise ParseError(f"empty product term in {text!r}")
            cubes.append(Cube.from_string(chunk))
        return cls(cubes)

    @classmethod
    def from_minterms(cls, vectors: Iterable[Mapping[str, int]],
                      support: Sequence[str]) -> "SopCover":
        """Cover containing exactly the given minterms over ``support``."""
        return cls(Cube.from_minterm(v, support) for v in vectors)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def cubes(self) -> Tuple[Cube, ...]:
        return self._cubes

    @property
    def support(self) -> Tuple[str, ...]:
        names = set()
        for cube in self._cubes:
            names.update(cube.support)
        return tuple(sorted(names))

    def literal_count(self) -> int:
        """Total number of literals — the paper's gate-complexity unit."""
        return sum(len(cube) for cube in self._cubes)

    def num_cubes(self) -> int:
        return len(self._cubes)

    def is_zero(self) -> bool:
        return not self._cubes

    def is_one(self) -> bool:
        return any(cube.is_one() for cube in self._cubes)

    def __iter__(self) -> Iterator[Cube]:
        return iter(self._cubes)

    def __len__(self) -> int:
        return len(self._cubes)

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------

    def evaluate(self, vector: Mapping[str, int]) -> bool:
        """Evaluate the cover on a complete assignment."""
        return any(cube.evaluate(vector) for cube in self._cubes)

    def covers_cube(self, cube: Cube) -> bool:
        """True iff every point of ``cube`` is covered by the cover.

        Implemented by the standard tautology reduction: ``self`` covers
        ``c`` iff the cofactor of ``self`` w.r.t. ``c`` is a tautology
        over the remaining support.
        """
        cofactored = self.cube_cofactor(cube)
        return cofactored.is_tautology()

    def covers(self, other: "SopCover") -> bool:
        """Cover containment: every point of ``other`` is in ``self``."""
        return all(self.covers_cube(cube) for cube in other._cubes)

    def equivalent(self, other: "SopCover") -> bool:
        return self.covers(other) and other.covers(self)

    def cofactor(self, name: str, value: int) -> "SopCover":
        """Shannon cofactor of the cover."""
        cubes = []
        for cube in self._cubes:
            reduced = cube.cofactor(name, value)
            if reduced is not None:
                cubes.append(reduced)
        return SopCover(cubes)

    def cube_cofactor(self, cube: Cube) -> "SopCover":
        """Cofactor with respect to a cube."""
        cubes = []
        for mine in self._cubes:
            reduced = mine.cube_cofactor(cube)
            if reduced is not None:
                cubes.append(reduced)
        return SopCover(cubes)

    def is_tautology(self) -> bool:
        """Unate-recursive tautology check."""
        if self.is_one():
            return True
        if self.is_zero():
            return False
        name = self._most_binate_signal()
        if name is None:
            # Unate cover: tautology iff it contains the universal cube,
            # which was already checked.
            return False
        return (self.cofactor(name, 0).is_tautology()
                and self.cofactor(name, 1).is_tautology())

    def complement(self) -> "SopCover":
        """Complement over the full boolean space of the support.

        Unate-recursive paradigm with single-variable Shannon expansion;
        adequate for the cover sizes this library manipulates (mapping
        works on per-region covers, not whole truth tables).
        """
        if self.is_zero():
            return SopCover.one()
        if self.is_one():
            return SopCover.zero()
        if len(self._cubes) == 1:
            # De Morgan on a single product term: one single-literal
            # cube per literal, on distinct variables (so none contains
            # another) and in name order, which is the sorted order
            # __init__ would give them.
            cover = SopCover.__new__(SopCover)
            cover._cubes = tuple(Cube({name: 1 - value})
                                 for name, value in self._cubes[0])
            cover._hash = hash(cover._cubes)
            return cover
        name = self._branch_signal()
        neg = self.cofactor(name, 0).complement()
        pos = self.cofactor(name, 1).complement()
        cubes: List[Cube] = []
        for half, other, value in ((neg, pos, 0), (pos, neg, 1)):
            for cube in half:
                if any(wider.contains(cube) for wider in other):
                    # true on both sides of the split: no literal of it
                    cubes.append(cube)
                    continue
                merged = cube.intersect(Cube({name: value}))
                if merged is not None:
                    cubes.append(merged)
        return SopCover(cubes)

    def _most_binate_signal(self) -> Optional[str]:
        """Signal appearing in both polarities in the most cubes."""
        pos: Dict[str, int] = {}
        neg: Dict[str, int] = {}
        for cube in self._cubes:
            for name, value in cube:
                bucket = pos if value else neg
                bucket[name] = bucket.get(name, 0) + 1
        best, best_score = None, 0
        for name in set(pos) & set(neg):
            score = pos[name] + neg[name]
            if score > best_score or (score == best_score
                                      and (best is None or name < best)):
                best, best_score = name, score
        return best

    def _branch_signal(self) -> str:
        name = self._most_binate_signal()
        if name is not None:
            return name
        counts: Dict[str, int] = {}
        for cube in self._cubes:
            for signal, _ in cube:
                counts[signal] = counts.get(signal, 0) + 1
        return max(sorted(counts), key=lambda n: counts[n])

    # ------------------------------------------------------------------
    # Algebraic structure
    # ------------------------------------------------------------------

    def plus(self, other: "SopCover") -> "SopCover":
        """Disjunction (cube union with containment dedup)."""
        return SopCover(self._cubes + other._cubes)

    def times(self, other: "SopCover") -> "SopCover":
        """Cover product (cartesian cube intersection)."""
        cubes = []
        for mine in self._cubes:
            for theirs in other._cubes:
                product = mine.intersect(theirs)
                if product is not None:
                    cubes.append(product)
        return SopCover(cubes)

    def restrict(self, names: Iterable[str]) -> "SopCover":
        """Drop all literals whose signal is not in ``names``."""
        keep = set(names)
        return SopCover(cube.without(set(cube.support) - keep)
                        for cube in self._cubes)

    def rename(self, mapping: Mapping[str, str]) -> "SopCover":
        return SopCover(cube.rename(mapping) for cube in self._cubes)

    def is_cube_free(self) -> bool:
        """True iff no literal is shared by every cube."""
        if not self._cubes:
            return True
        return self.common_cube().is_one()

    def common_cube(self) -> Cube:
        """Largest cube dividing every product term."""
        if not self._cubes:
            return Cube.one()
        common = dict(self._cubes[0].literals)
        for cube in self._cubes[1:]:
            literals = cube.literals
            common = {name: value for name, value in common.items()
                      if literals.get(name) == value}
        return Cube(common)

    def make_cube_free(self) -> "SopCover":
        """Divide out the common cube."""
        common = self.common_cube()
        if common.is_one():
            return self
        return SopCover(cube.without(common.support) for cube in self._cubes)

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SopCover):
            return NotImplemented
        return self._cubes == other._cubes

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> Tuple[Cube, ...]:
        # ``_hash`` stays out of the pickle: string hashes are salted
        # per process (see Cube.__setstate__)
        return self._cubes

    def __setstate__(self, state) -> None:
        if isinstance(state, tuple) and len(state) == 2 \
                and state[0] is None:
            # slot-state pickles written before __getstate__ existed:
            # ``(None, {"_cubes": ..., "_hash": ...})``
            state = state[1]["_cubes"]
        self._cubes = tuple(state)
        self._hash = hash(self._cubes)

    def __repr__(self) -> str:
        return f"SopCover({self.to_string()!r})"

    def to_string(self) -> str:
        if not self._cubes:
            return "0"
        return " + ".join(cube.to_string() for cube in self._cubes)
