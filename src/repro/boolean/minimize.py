"""Espresso-style two-level minimization with implicit don't-cares.

The synthesis path of this library always minimizes *incompletely
specified* functions given as two explicit sets of binary vectors:

* ``on``  — vectors the cover must evaluate to 1 on;
* ``off`` — vectors the cover must evaluate to 0 on;

everything else (unreachable state codes, quiescent-region freedom) is a
don't-care.  This matches how covers arise from a state graph, where the
reachable state set is small and the don't-care set is astronomically
large — so, unlike textbook espresso, the OFF-set is kept *explicit* and
the DC-set *implicit*.

The loop is the classical one: EXPAND each implicant against the
OFF-set, drop single-cube-contained implicants, make the result
IRREDUNDANT by greedy covering, then one REDUCE/re-EXPAND pass to escape
local minima.  Heuristic, but verified: the result is checked to cover
``on`` and avoid ``off`` before being returned.

Internally everything runs on Python ints: a vector over ``support`` is
an int and a cube is a ``(mask, value)`` pair.  The vector *sets* are
bit-sliced: :func:`minimize` transposes its sorted ON and OFF vectors
once into per-signal column bitsets in which bit *j* stands for vector
*j*.  The vectors a cube covers are then the AND of its literals'
columns, and how many it covers is a popcount — Espresso's positional
cubes turned sideways.  The public API speaks
:class:`~repro.boolean.cube.Cube` / :class:`~repro.boolean.sop.SopCover`.

Inside a :func:`minimize_memo` scope an identical problem is solved
once.  The synthesis flow poses many: it resynthesizes after every
trial insertion, minimizes each gate in both polarities, and a
pipeline run maps one circuit into several libraries from one initial
synthesis.  The memo's

* **scope** is the current thread, from entering
  :func:`minimize_memo` until it exits; a nested scope shadows the
  outer one and restores it on exit.  :meth:`repro.pipeline.run.
  Pipeline.run` opens one per circuit around all its stages, so
  concurrent jobs on other threads each see only their own memo.
  With no scope active — direct library calls, ``map_circuit``, the
  tests — every call computes;
* **lifetime** ends with the scope: it is never process-wide and
  never stored on a context, record or artifact;
* **key** is exact: ``(support, passes, len(on), on, len(off), off)``
  with each normalized (sorted, duplicate-free) vector list packed
  into one int at ``len(support)`` bits per vector, the packing the
  column transpose reads anyway.  The lookup runs after the overlap
  check and the constant cases, so an over-constrained pair raises on
  every call, and every cover handed out was verified on exactly its
  own problem.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from functools import lru_cache
from typing import (Dict, Iterable, Iterator, List, Mapping, NamedTuple,
                    Optional, Sequence, Set, Tuple)

from repro._util import popcount
from repro.boolean.cube import Cube
from repro.boolean.sop import SopCover
from repro.errors import CoverError

Vector = Mapping[str, int]
IntCube = Tuple[int, int]  # (mask, value): v covered iff v & mask == value


def _vector_int(vector: Vector, support: Sequence[str]) -> int:
    bits = 0
    for name, index in _position_map(tuple(support)).items():
        if vector[name]:
            bits |= 1 << index
    return bits


@lru_cache(maxsize=4096)
def _position_map(support: Tuple[str, ...]) -> Dict[str, int]:
    """The ``{name: bit position}`` map of one support, cached — shared
    by vector and cube packing so it is built once per support."""
    return {name: i for i, name in enumerate(support)}


def _cube_int(cube: Cube, support: Sequence[str]) -> IntCube:
    mask = value = 0
    position = _position_map(tuple(support))
    for name, polarity in cube:
        bit = 1 << position[name]
        mask |= bit
        if polarity:
            value |= bit
    return mask, value


def _cube_back(int_cube: IntCube, support: Sequence[str]) -> Cube:
    mask, value = int_cube
    literals = {}
    for index, name in enumerate(support):
        bit = 1 << index
        if mask & bit:
            literals[name] = 1 if value & bit else 0
    return Cube(literals)


class Columns(NamedTuple):
    """A vector set bit-sliced by :func:`_transpose`: ``every`` has one
    bit per vector, ``columns[i]`` is signal i's ``(zeros, ones)`` pair."""

    every: int
    columns: List[Tuple[int, int]]


def _pack(vectors: Sequence[int], width: int) -> int:
    """Concatenate ``vectors`` (packed over ``width`` signals) into one
    int, vector *j* at bit offset ``j * width``."""
    if vectors and max(vectors) >> width:
        raise ValueError(f"a packed vector is wider than {width} signals")
    packed = 0
    for v in reversed(vectors):
        packed = packed << width | v
    return packed


def _transpose(vectors: Sequence[int], width: int) -> Columns:
    """Bit-slice ``vectors`` (packed over ``width`` signals) into
    per-signal column bitsets: bit *j* stands for ``vectors[j]``."""
    return _transpose_packed(_pack(vectors, width), len(vectors), width)


def _transpose_packed(packed: int, count: int, width: int) -> Columns:
    """:func:`_transpose` of the ``count`` vectors :func:`_pack` packed
    into ``packed``."""
    every = (1 << count) - 1
    if not count or not width:
        return Columns(every, [(0, 0)] * width)
    # Vector j at bit offset j*width of one int, printed in binary: the
    # strided slice of signal i reads vectors n-1 ... 0, most
    # significant bit first, which is the column bitset of signal i.
    text = format(packed, f"0{width * count}b")
    columns = []
    for i in range(width):
        ones = int(text[width - 1 - i::width], 2)
        columns.append((every ^ ones, ones))
    return Columns(every, columns)


def _cover_bits(cube: IntCube, vectors: Columns) -> int:
    """Bitset of the vectors ``cube`` covers: its literals' columns
    ANDed together."""
    mask, value = cube
    bits, columns = vectors
    while mask:
        low = mask & -mask
        bits &= columns[low.bit_length() - 1][1 if value & low else 0]
        mask ^= low
    return bits


def _coverage(covers: Iterable[int]) -> Tuple[int, int]:
    """``(any, once)``: the vectors at least one and exactly one of the
    per-cube bitsets ``covers`` contain."""
    once = twice = 0
    for bits in covers:
        twice |= once & bits
        once |= bits
    return once, once & ~twice


def _expand(cube: IntCube, off: Columns, prefer: Columns) -> IntCube:
    """EXPAND: greedily drop literals while staying off the OFF-set,
    favouring drops that absorb the most ON-vectors.

    Each greedy step scores every candidate drop from prefix and
    suffix ANDs over the cube's literal columns: the cube minus
    literal k covers ``before[k] & after[k]``.  A drop is allowed when
    that holds no OFF vector, and its gain is the popcount of the same
    ANDs on the ``prefer`` side.  Picks the highest gain, ties broken
    towards the highest bit index.  A literal once blocked stays
    blocked (a wider cube only covers more), so blocked literals fold
    into a fixed base and later steps rescan only the live candidates.
    """
    mask, value = cube
    off_base, off_columns = off
    on_base, on_columns = prefer
    candidates = []
    for i, (off_column, on_column) in enumerate(zip(off_columns,
                                                    on_columns)):
        if mask >> i & 1:
            polarity = value >> i & 1
            candidates.append((1 << i, off_column[polarity],
                               on_column[polarity]))
    while candidates:
        off_after = [off_base] * len(candidates)
        on_after = [on_base] * len(candidates)
        off_acc, on_acc = off_base, on_base
        for k in range(len(candidates) - 1, 0, -1):
            off_acc &= candidates[k][1]
            on_acc &= candidates[k][2]
            off_after[k - 1] = off_acc
            on_after[k - 1] = on_acc
        off_before, on_before = off_base, on_base
        allowed = []
        pick = best = -1
        for k, literal in enumerate(candidates):
            if off_before & off_after[k]:
                off_base &= literal[1]
                on_base &= literal[2]
            else:
                gain = popcount(on_before & on_after[k])
                if gain >= best:
                    best, pick = gain, len(allowed)
                allowed.append(literal)
            off_before &= literal[1]
            on_before &= literal[2]
        if not allowed:
            break
        bit = allowed.pop(pick)[0]
        mask ^= bit
        value &= ~bit
        candidates = allowed
    return mask, value


def _contains(outer: IntCube, inner: IntCube) -> bool:
    """Every point of ``inner`` lies in ``outer``."""
    o_mask, o_value = outer
    i_mask, i_value = inner
    if o_mask & ~i_mask:
        return False
    return (i_value & o_mask) == o_value


def _irredundant(cubes: List[IntCube], on: Columns) -> List[IntCube]:
    """Greedy minimum-ish subset of ``cubes`` still covering ``on``.

    Works on per-cube ON bitsets: remaining ON-vectors are one bitset
    and a cube's cover count is a popcount.  Pick order: essentials
    first, in the order of the first ON vector each covers alone, then
    first-maximal ``(covered count, -literal count)`` over the pool,
    then a prune of cubes made redundant by later picks.
    """
    every = on.every
    if not every:
        return []
    covers = [_cover_bits(cube, on) for cube in cubes]
    covered, single = _coverage(covers)
    if covered != every:
        raise CoverError("irredundant step cannot make progress; "
                         "ON-set vector not covered by any implicant")
    # Essential cubes first, in the order of the first vector each one
    # covers alone (its lowest owned bit; no two owners share a bit).
    owned = [bits & single for bits in covers]
    chosen = sorted((k for k in range(len(cubes)) if owned[k]),
                    key=lambda k: owned[k] & -owned[k])
    remaining = every
    for k in chosen:
        remaining &= ~covers[k]
    pool = [k for k in range(len(cubes)) if k not in chosen]
    literal_counts = [popcount(mask) for mask, _ in cubes]
    while remaining:
        best = max(pool or chosen,
                   key=lambda k: (popcount(remaining & covers[k]),
                                  -literal_counts[k]))
        if not remaining & covers[best]:
            raise CoverError("irredundant step cannot make progress")
        if best not in chosen:
            chosen.append(best)
        remaining &= ~covers[best]
    # Drop cubes made redundant by later picks.
    pruned = list(chosen)
    for index in list(chosen):
        trial = [k for k in pruned if k != index]
        if trial and _coverage(covers[k] for k in trial)[0] == every:
            pruned = trial
    return [cubes[k] for k in pruned]


def _reduce(cube: IntCube, owned: int, on: Columns) -> IntCube:
    """REDUCE: shrink a cube to the supercube of the ON-vectors only it
    covers (bitset ``owned``), so the next EXPAND can take a different
    direction."""
    if not owned:
        return cube
    mask = value = 0
    for i, (zeros, ones) in enumerate(on.columns):
        if not owned & zeros:
            mask |= 1 << i
            value |= 1 << i
        elif not owned & ones:
            mask |= 1 << i
    outer_mask, outer_value = cube
    # Only shrink (never move outside the original cube).
    if (outer_mask & ~mask) or ((value & outer_mask) != outer_value):
        return cube
    return mask, value


class MinimizeMemo:
    """The covers one :func:`minimize_memo` scope has solved, by exact
    problem key, and how many calls it answered from them.  Keys share
    one tuple per distinct support (a run poses thousands of problems
    over a few dozen supports)."""

    __slots__ = ("covers", "supports", "reused")

    def __init__(self) -> None:
        self.covers: Dict[Tuple, SopCover] = {}
        self.supports: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        self.reused = 0

    @property
    def solved(self) -> int:
        """Distinct problems minimized in the scope."""
        return len(self.covers)


#: the current thread's memo scope (see :func:`minimize_memo`)
_scope = threading.local()


def current_memo() -> Optional[MinimizeMemo]:
    """The current thread's innermost memo, or ``None``."""
    return getattr(_scope, "memo", None)


@contextmanager
def minimize_memo() -> Iterator[MinimizeMemo]:
    """Share a fresh :class:`MinimizeMemo` among every :func:`minimize`
    call of the current thread until exit, then restore the enclosing
    scope (or none)."""
    outer = current_memo()
    memo = _scope.memo = MinimizeMemo()
    try:
        yield memo
    finally:
        _scope.memo = outer


def minimize(on: Iterable[Vector], off: Iterable[Vector],
             support: Sequence[str], passes: int = 2) -> SopCover:
    """Minimize the incompletely specified function (ON, OFF, DC=rest).

    Parameters
    ----------
    on, off:
        Complete assignments over ``support`` (or supersets; extra
        signals are projected away).
    support:
        Signal names the cover may mention.
    passes:
        Number of EXPAND/IRREDUNDANT(/REDUCE) rounds.

    Returns
    -------
    SopCover
        A cover ``c`` with ``c(v) = 1`` for all ``v`` in ``on`` and
        ``c(v) = 0`` for all ``v`` in ``off``.  Inside a
        :func:`minimize_memo` scope, the cover the scope already solved
        for the same problem.

    Raises
    ------
    CoverError
        If some vector appears in both ON and OFF (no cover exists).
    """
    support = tuple(support)
    width = len(support)
    on_set = _vector_set(on, support)
    off_set = _vector_set(off, support)
    if not on_set.isdisjoint(off_set):
        bits = format(min(on_set & off_set), f"0{width}b")[::-1]
        raise CoverError(
            f"ON and OFF sets overlap on vector {bits} over "
            f"{support}: the function is over-constrained (typically a "
            "CSC violation)")
    if not on_set:
        return SopCover.zero()
    if not off_set:
        return SopCover.one()

    on_ints = sorted(on_set)
    off_ints = sorted(off_set)
    on_packed = _pack(on_ints, width)
    off_packed = _pack(off_ints, width)
    memo = current_memo()
    if memo is not None:
        key = (memo.supports.setdefault(support, support), passes,
               len(on_ints), on_packed, len(off_ints), off_packed)
        known = memo.covers.get(key)
        if known is not None:
            memo.reused += 1
            return known

    full_mask = (1 << width) - 1
    on_columns = _transpose_packed(on_packed, len(on_ints), width)
    off_columns = _transpose_packed(off_packed, len(off_ints), width)
    cubes: List[IntCube] = [(full_mask, v) for v in on_ints]
    position = {v: j for j, v in enumerate(on_ints)}
    for round_index in range(max(1, passes)):
        # Espresso-style EXPAND with covered-minterm skipping: a cube
        # whose seed minterm is already absorbed by an earlier prime is
        # not expanded (IRREDUNDANT would drop it anyway).  Full-mask
        # cubes are ON minterms: seeds, or kept because they cover ON.
        expanded: List[IntCube] = []
        absorbed = 0
        for cube in cubes:
            if cube[0] == full_mask and absorbed >> position[cube[1]] & 1:
                continue
            prime = _expand(cube, off_columns, on_columns)
            expanded.append(prime)
            absorbed |= _cover_bits(prime, on_columns)
        kept: List[IntCube] = []
        for cube in sorted(set(expanded), key=lambda c: popcount(c[0])):
            if not any(_contains(other, cube) for other in kept):
                kept.append(cube)
        cubes = _irredundant(kept, on_columns)
        if round_index + 1 < passes:
            # A vector is "owned" by a cube iff that cube is the only
            # one covering it.
            covers = [_cover_bits(cube, on_columns) for cube in cubes]
            single = _coverage(covers)[1]
            cubes = [_reduce(cube, bits & single, on_columns)
                     for cube, bits in zip(cubes, covers)]

    result = SopCover(_cube_back(c, support) for c in cubes)
    _verify(cubes, on_columns, off_columns)
    if memo is not None:
        memo.covers[key] = result
    return result


def _vector_set(vectors: Iterable[Vector],
                support: Tuple[str, ...]) -> Set[int]:
    """The distinct vectors, packed in ``support`` bit order.  Callers on
    the packed path (repro.sg.encoding.next_state_ints,
    synthesis/cover.py) pass ints already in that order; mapping inputs
    are packed here."""
    return {v if isinstance(v, int) else _vector_int(v, support)
            for v in vectors}


def _verify(cubes: Sequence[IntCube], on: Columns, off: Columns) -> None:
    if _coverage(_cover_bits(c, on) for c in cubes)[0] != on.every:
        raise CoverError("minimized cover misses an ON vector")
    if _coverage(_cover_bits(c, off) for c in cubes)[0]:
        raise CoverError("minimized cover hits an OFF vector")


def expand_cube(cube: Cube, off: Sequence[Vector],
                prefer: Optional[Sequence[Vector]] = None) -> Cube:
    """Expand one cube into a prime-like implicant against ``off``.

    Public wrapper around the integer EXPAND primitive (used directly
    by tests and by callers that want a single-cube expansion).
    """
    support = sorted(set(cube.support)
                     | {n for v in off for n in v.keys()}
                     | {n for v in (prefer or []) for n in v.keys()})
    width = len(support)
    off_columns = _transpose([_vector_int(v, support) for v in off], width)
    prefer_columns = _transpose([_vector_int(v, support)
                                 for v in (prefer or [])], width)
    expanded = _expand(_cube_int(cube, support), off_columns,
                       prefer_columns)
    return _cube_back(expanded, support)


def literal_complexity(on: Iterable[Vector], off: Iterable[Vector],
                       support: Sequence[str]) -> Tuple[int, SopCover, SopCover]:
    """The paper's gate-complexity measure.

    "We have measured the complexity of each gate as the number of
    literals required to implement it as a sum-of-product gate, either
    complemented or not" (§4) — i.e. ``min(lit(f), lit(f'))`` where both
    polarities are minimized against the same don't-care set.

    Returns ``(complexity, cover, complement_cover)``.
    """
    on_list = list(on)
    off_list = list(off)
    cover = minimize(on_list, off_list, support)
    complement = minimize(off_list, on_list, support)
    return (min(cover.literal_count(), complement.literal_count()),
            cover, complement)
