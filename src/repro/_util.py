"""Small shared helpers used across the library.

Kept deliberately tiny: ordered deduplication, stable powerset slices,
pairwise iteration, bitset popcounts and a frozen-dict used for hashable
signal vectors.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple, TypeVar

T = TypeVar("T")

try:
    popcount = int.bit_count
except AttributeError:  # Python 3.9
    def popcount(bits: int) -> int:
        """Number of set bits of a non-negative int."""
        return bin(bits).count("1")


def unique(items: Iterable[T]) -> List[T]:
    """Return ``items`` with duplicates removed, first occurrence wins."""
    seen = set()
    out: List[T] = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out


def pairwise(items: Sequence[T]) -> Iterator[Tuple[T, T]]:
    """Yield consecutive pairs ``(items[i], items[i+1])``."""
    for i in range(len(items) - 1):
        yield items[i], items[i + 1]


def proper_subsets(items: Sequence[T], min_size: int = 1,
                   max_count: int = 256) -> Iterator[Tuple[T, ...]]:
    """Yield proper non-trivial subsets of ``items`` by increasing size.

    Enumeration is cut off after ``max_count`` subsets; divisor
    generation uses this to avoid an explosion for wide covers (the
    paper prunes candidate generation heuristically for the same
    reason).
    """
    produced = 0
    for size in range(min_size, len(items)):
        for combo in combinations(items, size):
            yield combo
            produced += 1
            if produced >= max_count:
                return


class FrozenVector:
    """An immutable, hashable mapping from signal name to 0/1 value.

    State-graph states carry one of these as their binary code.  The
    class behaves like a read-only dict and compares/hashes by content,
    so identical codes collapse in sets regardless of insertion order.
    """

    __slots__ = ("_items", "_dict", "_hash")

    def __init__(self, values: Dict[str, int]):
        for name, value in values.items():
            if value not in (0, 1):
                raise ValueError(
                    f"signal {name!r} has non-binary value {value!r}")
        self._items = tuple(sorted(values.items()))
        self._dict = dict(self._items)
        self._hash = hash(self._items)

    def __getitem__(self, name: str) -> int:
        return self._dict[name]

    def get(self, name: str, default: int = 0) -> int:
        return self._dict.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self._dict

    def __iter__(self) -> Iterator[str]:
        return (key for key, _ in self._items)

    def keys(self) -> List[str]:
        return [key for key, _ in self._items]

    def items(self) -> Tuple[Tuple[str, int], ...]:
        return self._items

    def as_dict(self) -> Dict[str, int]:
        return dict(self._items)

    def set(self, name: str, value: int) -> "FrozenVector":
        """Return a copy with ``name`` set to ``value``."""
        values = self.as_dict()
        values[name] = value
        return FrozenVector(values)

    def without(self, name: str) -> "FrozenVector":
        """Return a copy with signal ``name`` removed."""
        values = self.as_dict()
        values.pop(name, None)
        return FrozenVector(values)

    def restrict(self, names: Iterable[str]) -> "FrozenVector":
        """Return the projection of the vector onto ``names``."""
        return FrozenVector({n: self[n] for n in names})

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrozenVector):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> Tuple[Tuple[str, int], ...]:
        # ``_hash`` stays out of the pickle: string hashes are salted
        # per process, so stored bytes would differ between runs and a
        # restored hash would disagree with freshly built equal vectors
        return self._items

    def __setstate__(self, state) -> None:
        if isinstance(state, tuple) and len(state) == 2 \
                and state[0] is None:
            # slot-state pickles written before __getstate__ existed:
            # ``(None, {"_items": ..., "_dict": ..., "_hash": ...})``
            state = state[1]["_items"]
        self._items = tuple(state)
        self._dict = dict(self._items)
        self._hash = hash(self._items)

    def __repr__(self) -> str:
        bits = "".join(str(v) for _, v in self._items)
        names = ",".join(k for k, _ in self._items)
        return f"FrozenVector({names}={bits})"

    def bits(self, order: Sequence[str]) -> str:
        """Render the vector as a bit-string following ``order``."""
        return "".join(str(self[name]) for name in order)
