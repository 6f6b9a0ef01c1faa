"""Property tests for the bit-sliced minimizer kernels.

The column-bitset fast paths must agree exactly with the scalar
reference semantics they replaced: EXPAND's greedy choice, the
irredundant greedy cover, REDUCE, coverage tests, the whole
``minimize()`` loop, and the dict-backed cube algebra.  The reference
implementations are kept here, in test code, as the executable
specification; they work on plain lists of packed ints.

The kernel strategies draw supports of up to 16 signals and vector
sets of up to 96 vectors, so a column bitset spans more than one
64-bit machine word.
"""

import itertools
from typing import Dict, List, Optional, Sequence, Set, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.boolean.cube import Cube
from repro.boolean.minimize import (_contains, _cover_bits, _coverage,
                                    _cube_back, _cube_int, _expand,
                                    _irredundant, _reduce, _transpose,
                                    _vector_int, minimize)
from repro.boolean.sop import SopCover
from repro.errors import CoverError

SIGNALS = ["a", "b", "c", "d", "e"]
WIDTH = len(SIGNALS)
MAX_WIDTH = 16
MAX_VECTORS = 96
NAMES = [f"s{i}" for i in range(MAX_WIDTH)]

IntCube = Tuple[int, int]


def all_vectors():
    return [dict(zip(SIGNALS, bits))
            for bits in itertools.product((0, 1), repeat=WIDTH)]


cube_strategy = st.dictionaries(
    st.sampled_from(SIGNALS), st.integers(0, 1), max_size=WIDTH
).map(Cube)

spec_strategy = st.lists(st.integers(0, 2), min_size=2 ** WIDTH,
                         max_size=2 ** WIDTH)

widths = st.integers(1, MAX_WIDTH)


@st.composite
def vector_lists(draw, width: int) -> List[int]:
    """Packed vectors over ``width`` signals, duplicates allowed: a few,
    or more than one machine word's worth."""
    size = draw(st.one_of(st.integers(0, 12),
                          st.integers(65, MAX_VECTORS)))
    return draw(st.lists(st.integers(0, (1 << width) - 1),
                         min_size=size, max_size=size))


@st.composite
def int_cubes(draw, width: int, max_size: int = 10) -> List[IntCube]:
    """Distinct well-formed ``(mask, value)`` cubes over ``width``
    signals (the ``minimize()`` call sites guarantee both).  Masks are
    sparse, so the cubes overlap the way primes do."""
    full = (1 << width) - 1
    raw = draw(st.lists(st.tuples(st.integers(0, full),
                                  st.integers(0, full),
                                  st.integers(0, full)),
                        max_size=max_size))
    return sorted({(a & b, value & a & b) for a, b, value in raw})


# ----------------------------------------------------------------------
# Scalar reference implementations (the executable specification)
# ----------------------------------------------------------------------


def _covered(cube: IntCube, vectors: Sequence[int]) -> List[int]:
    mask, value = cube
    return [v for v in vectors if (v & mask) == value]


def _hits(cube: IntCube, vectors: Sequence[int]) -> bool:
    return bool(_covered(cube, vectors))


def _count_covered(cube: IntCube, vectors: Sequence[int]) -> int:
    return len(_covered(cube, vectors))


def reference_expand(cube: IntCube, off: Sequence[int],
                     prefer: Sequence[int], width: int) -> IntCube:
    """The original per-bit EXPAND loop."""
    mask, value = cube
    improved = True
    while improved:
        improved = False
        best: Optional[Tuple[int, int, IntCube]] = None
        for index in range(width):
            bit = 1 << index
            if not mask & bit:
                continue
            wider = (mask & ~bit, value & ~bit)
            if _hits(wider, off):
                continue
            gain = _count_covered(wider, prefer)
            key = (gain, index)
            if best is None or key > best[:2]:
                best = (gain, index, wider)
        if best is not None:
            mask, value = best[2]
            improved = True
    return mask, value


def reference_irredundant(cubes: List[IntCube],
                          on: Sequence[int]) -> List[IntCube]:
    """The original greedy set-based irredundant step."""
    owners: Dict[int, List[IntCube]] = {
        v: [c for c in cubes if (v & c[0]) == c[1]] for v in on}
    for vector, who in owners.items():
        if not who:
            raise CoverError("uncoverable")
    chosen: List[IntCube] = []
    remaining: Set[int] = set(on)
    for vector, who in owners.items():
        if len(who) == 1 and who[0] not in chosen:
            chosen.append(who[0])
    for cube in chosen:
        remaining -= set(_covered(cube, list(remaining)))
    pool = [c for c in cubes if c not in chosen]
    while remaining:
        remaining_list = sorted(remaining)
        best = max(pool or chosen,
                   key=lambda c: (len(_covered(c, remaining_list)),
                                  -bin(c[0]).count("1")))
        gained = set(_covered(best, remaining_list))
        if not gained:
            raise CoverError("stuck")
        if best not in chosen:
            chosen.append(best)
        remaining -= gained
    pruned = list(chosen)
    for cube in list(chosen):
        trial = [c for c in pruned if c != cube]
        if trial and all(any((v & c[0]) == c[1] for c in trial)
                         for v in on):
            pruned = trial
    return pruned


def reference_reduce(cube: IntCube, owned: Sequence[int],
                     width: int) -> IntCube:
    """The original REDUCE: supercube of the owned vectors, if it lies
    inside ``cube``."""
    if not owned:
        return cube
    full_mask = (1 << width) - 1
    common_ones = common_zeros = full_mask
    for v in owned:
        common_ones &= v
        common_zeros &= ~v
    mask = (common_ones | common_zeros) & full_mask
    value = common_ones & mask
    outer_mask, outer_value = cube
    if (outer_mask & ~mask) or ((value & outer_mask) != outer_value):
        return cube
    return mask, value


def reference_minimize(on: Sequence[int], off: Sequence[int],
                       support: Sequence[str], passes: int = 2) -> SopCover:
    """The original minimize() loop over the reference kernels."""
    width = len(support)
    on_ints, off_ints = sorted(set(on)), sorted(set(off))
    if set(on_ints) & set(off_ints):
        raise CoverError("overlap")
    if not on_ints:
        return SopCover.zero()
    if not off_ints:
        return SopCover.one()
    full_mask = (1 << width) - 1
    cubes = [(full_mask, v) for v in on_ints]
    for round_index in range(max(1, passes)):
        expanded: List[IntCube] = []
        for cube in cubes:
            # Skip a seed minterm an earlier prime already absorbed.
            seed = cube[1] & full_mask if cube[0] == full_mask else None
            if seed is not None and any(
                    (seed & mask) == value for mask, value in expanded):
                continue
            expanded.append(reference_expand(cube, off_ints, on_ints,
                                             width))
        kept: List[IntCube] = []
        for cube in sorted(set(expanded),
                           key=lambda c: bin(c[0]).count("1")):
            if not any(_contains(other, cube) for other in kept):
                kept.append(cube)
        cubes = reference_irredundant(kept, on_ints)
        if round_index + 1 < passes:
            owners = {v: [c for c in cubes if (v & c[0]) == c[1]]
                      for v in on_ints}
            cubes = [reference_reduce(
                cube, [v for v in on_ints if owners[v] == [cube]], width)
                for cube in cubes]
            # Re-seed the ON vectors no reduced cube covers.
            cubes += [(full_mask, v) for v in on_ints
                      if not any((v & mask) == value
                                 for mask, value in cubes)]
    return SopCover(_cube_back(c, support) for c in cubes)


def bits_of(bitset: int) -> List[int]:
    return [j for j in range(bitset.bit_length()) if bitset >> j & 1]


# ----------------------------------------------------------------------
# Column bitsets agree with the packed vectors they slice
# ----------------------------------------------------------------------


class TestColumns:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_transpose_columns_are_signal_bits(self, data):
        width = data.draw(widths)
        vectors = data.draw(vector_lists(width))
        every, columns = _transpose(vectors, width)
        assert every == (1 << len(vectors)) - 1
        assert len(columns) == width
        for i, (zeros, ones) in enumerate(columns):
            assert zeros == every ^ ones
            assert bits_of(ones) == [j for j, v in enumerate(vectors)
                                     if v >> i & 1]

    def test_transpose_rejects_wider_vectors(self):
        with pytest.raises(ValueError):
            _transpose([0b1, 0b100], 2)

    @given(st.lists(st.integers(0, (1 << MAX_VECTORS) - 1), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_coverage_counts(self, covers):
        covered, once = _coverage(covers)
        for j in range(MAX_VECTORS):
            count = sum(bits >> j & 1 for bits in covers)
            assert (covered >> j & 1) == (count >= 1)
            assert (once >> j & 1) == (count == 1)


# ----------------------------------------------------------------------
# EXPAND / IRREDUNDANT / REDUCE / coverage agree with the reference
# ----------------------------------------------------------------------


class TestVectorizedKernels:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_expand_matches_reference(self, data):
        width = data.draw(widths)
        seed = data.draw(st.integers(0, (1 << width) - 1))
        off = [v for v in data.draw(vector_lists(width)) if v != seed]
        prefer = data.draw(vector_lists(width))
        cube = ((1 << width) - 1, seed)
        assert _expand(cube, _transpose(off, width),
                       _transpose(prefer, width)) \
            == reference_expand(cube, off, prefer, width)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_expand_of_any_cube_matches_reference(self, data):
        # EXPAND may be handed a cube that already hits OFF.
        width = data.draw(widths)
        full = (1 << width) - 1
        mask = data.draw(st.integers(0, full))
        cube = (mask, data.draw(st.integers(0, full)) & mask)
        off = data.draw(vector_lists(width))
        prefer = data.draw(vector_lists(width))
        assert _expand(cube, _transpose(off, width),
                       _transpose(prefer, width)) \
            == reference_expand(cube, off, prefer, width)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_irredundant_matches_reference(self, data):
        width = data.draw(widths)
        cubes = data.draw(int_cubes(width))
        # ON vectors drawn inside the cubes, so most draws are
        # coverable, plus arbitrary ones that may not be.
        on = set(data.draw(vector_lists(width)))
        for mask, value in cubes:
            for noise in data.draw(st.lists(
                    st.integers(0, (1 << width) - 1), max_size=12)):
                on.add(noise & ~mask | value)
        on_list = sorted(on)
        try:
            expected = reference_irredundant(list(cubes), on_list)
        except CoverError:
            with pytest.raises(CoverError):
                _irredundant(list(cubes), _transpose(on_list, width))
            return
        assert _irredundant(list(cubes),
                            _transpose(on_list, width)) == expected

    def test_irredundant_prunes_cube_covered_by_later_picks(self):
        # No essentials; greedy picks x0' first, then x2' and x2, which
        # cover everything x0' does, so the prune drops it.
        cubes = [(1, 0), (4, 0), (4, 4), (6, 0), (6, 6)]
        on = [1, 2, 4, 7]
        assert reference_irredundant(cubes, on) == [(4, 0), (4, 4)]
        assert _irredundant(cubes, _transpose(on, 3)) == [(4, 0), (4, 4)]

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_reduce_matches_reference(self, data):
        width = data.draw(widths)
        on = sorted(set(data.draw(vector_lists(width))))
        owned = data.draw(st.sets(st.sampled_from(range(len(on))))
                          if on else st.just(set()))
        full = (1 << width) - 1
        mask = data.draw(st.integers(0, full))
        cube = (mask, data.draw(st.integers(0, full)) & mask)
        owned_bits = sum(1 << j for j in owned)
        assert _reduce(cube, owned_bits, _transpose(on, width)) \
            == reference_reduce(cube, [on[j] for j in sorted(owned)],
                                width)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_coverage_matrix_matches_cube_evaluate(self, data):
        # Per-cube bitsets over the columns are the coverage matrix:
        # bit i of cube j's bitset is "cube j covers vector i".
        width = data.draw(widths)
        names = NAMES[:width]
        cubes = data.draw(st.lists(st.dictionaries(
            st.sampled_from(names), st.integers(0, 1)).map(Cube),
            min_size=1, max_size=6))
        vec_list = data.draw(vector_lists(width))
        columns = _transpose(vec_list, width)
        for cube in cubes:
            bits = _cover_bits(_cube_int(cube, names), columns)
            for i, packed in enumerate(vec_list):
                vector = {name: (packed >> k) & 1
                          for k, name in enumerate(names)}
                assert bool(bits >> i & 1) == cube.evaluate(vector)


# ----------------------------------------------------------------------
# The whole minimize() loop agrees with the reference loop
# ----------------------------------------------------------------------


class TestMinimizeReference:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_minimize_matches_reference_minimize(self, data):
        width = data.draw(widths)
        on = data.draw(vector_lists(width))
        off = data.draw(vector_lists(width))
        if data.draw(st.booleans()):
            off = sorted(set(off) - set(on))
        passes = data.draw(st.integers(1, 3))
        support = NAMES[:width]
        try:
            expected = reference_minimize(on, off, support, passes)
        except CoverError:
            with pytest.raises(CoverError):
                minimize(on, off, support, passes)
            return
        assert minimize(on, off, support, passes) == expected


# ----------------------------------------------------------------------
# Int-cube algebra agrees with the Cube reference
# ----------------------------------------------------------------------


class TestCubeAgreement:
    @given(cube_strategy, cube_strategy)
    @settings(max_examples=150, deadline=None)
    def test_containment(self, a, b):
        ia, ib = _cube_int(a, SIGNALS), _cube_int(b, SIGNALS)
        assert _contains(ia, ib) == a.contains(b)

    @given(cube_strategy, cube_strategy)
    @settings(max_examples=150, deadline=None)
    def test_intersection_semantics(self, a, b):
        ia, ib = _cube_int(a, SIGNALS), _cube_int(b, SIGNALS)
        conflict = (ia[1] ^ ib[1]) & ia[0] & ib[0]
        both = a.intersect(b)
        assert (conflict == 0) == (both is not None)
        if both is not None:
            merged = (ia[0] | ib[0], ia[1] | ib[1])
            assert _cube_back(merged, SIGNALS) == both

    @given(cube_strategy, cube_strategy)
    @settings(max_examples=150, deadline=None)
    def test_consensus_against_truth_table(self, a, b):
        # The dict-backed consensus must still be the standard one:
        # defined iff distance == 1, and covered by a ∪ b pointwise
        # union with the conflict variable freed.
        consensus = a.consensus(b)
        assert (consensus is not None) == (a.distance(b) == 1)
        if consensus is not None:
            for vector in all_vectors():
                if consensus.evaluate(vector):
                    flipped = dict(vector)
                    conflicts = [n for n in SIGNALS
                                 if a.polarity(n) is not None
                                 and b.polarity(n) is not None
                                 and a.polarity(n) != b.polarity(n)]
                    assert len(conflicts) == 1
                    name = conflicts[0]
                    flipped[name] = a.polarity(name)
                    other = dict(vector)
                    other[name] = b.polarity(name)
                    assert a.evaluate(flipped) and b.evaluate(other)

    @given(cube_strategy)
    @settings(max_examples=100, deadline=None)
    def test_polarity_matches_literal_tuple(self, cube):
        literals = dict(tuple(cube))
        for name in SIGNALS:
            assert cube.polarity(name) == literals.get(name)


# ----------------------------------------------------------------------
# minimize() accepts packed ints and agrees with the mapping path
# ----------------------------------------------------------------------


class TestPackedInputs:
    @given(spec_strategy)
    @settings(max_examples=60, deadline=None)
    def test_packed_and_mapping_inputs_agree(self, spec):
        vectors = all_vectors()
        on = [v for v, kind in zip(vectors, spec) if kind == 1]
        off = [v for v, kind in zip(vectors, spec) if kind == 0]
        on_ints = [_vector_int(v, SIGNALS) for v in on]
        off_ints = [_vector_int(v, SIGNALS) for v in off]
        assert minimize(on, off, SIGNALS) \
            == minimize(on_ints, off_ints, SIGNALS)
