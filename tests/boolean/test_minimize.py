"""Unit tests for the two-level minimizer."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.boolean.minimize import (_vector_int, cheaper_polarity,
                                    minimize, minimize_complement)
from repro.boolean.cube import Cube
from repro.boolean.sop import SopCover
from repro.errors import CoverError


def vectors(support, bits_list):
    return [dict(zip(support, [int(b) for b in bits]))
            for bits in bits_list]


def literal_complexity(on, off, support):
    """The paper's gate-complexity measure, ``min(lit(f), lit(f'))``
    with both polarities minimized against the same don't-care set
    (§4), as the synthesis layer composes it: ``(complexity, cover,
    complement)``."""
    cover = minimize(on, off, support)
    complement = minimize_complement(on, off, support, cover)
    return (cheaper_polarity(cover, complement).literal_count(), cover,
            complement)


class TestMinimize:
    def test_constant_one(self):
        support = ["a", "b"]
        on = vectors(support, ["00", "01", "10", "11"])
        cover = minimize(on, [], support)
        assert cover.is_one()

    def test_constant_zero(self):
        assert minimize([], vectors(["a"], ["0"]), ["a"]).is_zero()

    def test_overlap_raises(self):
        with pytest.raises(CoverError):
            minimize(vectors(["a"], ["1"]), vectors(["a"], ["1"]), ["a"])

    def test_single_minterm(self):
        support = ["a", "b"]
        cover = minimize(vectors(support, ["10"]),
                         vectors(support, ["00", "01", "11"]), support)
        assert cover.to_string() == "a b'"

    def test_dont_cares_enable_expansion(self):
        # ON = {11}, OFF = {00}; 01 and 10 are DC, so a single literal
        # suffices.
        support = ["a", "b"]
        cover = minimize(vectors(support, ["11"]),
                         vectors(support, ["00"]), support)
        assert cover.literal_count() == 1

    def test_full_function_xor(self):
        support = ["a", "b"]
        on = vectors(support, ["01", "10"])
        off = vectors(support, ["00", "11"])
        cover = minimize(on, off, support)
        assert cover.literal_count() == 4  # XOR is irreducible

    def test_covers_on_avoids_off_exhaustive(self):
        # Random-ish incompletely specified functions over 4 variables.
        support = ["a", "b", "c", "d"]
        space = [dict(zip(support, bits))
                 for bits in itertools.product((0, 1), repeat=4)]
        on = [v for i, v in enumerate(space) if i % 3 == 0]
        off = [v for i, v in enumerate(space) if i % 3 == 1]
        cover = minimize(on, off, support)
        for v in on:
            assert cover.evaluate(v)
        for v in off:
            assert not cover.evaluate(v)

    def test_projection_of_extra_signals(self):
        support = ["a"]
        cover = minimize([{"a": 1, "z": 0}], [{"a": 0, "z": 1}], support)
        assert cover.to_string() == "a"

    def test_quality_adjacent_minterms_merge(self):
        support = ["a", "b", "c"]
        on = vectors(support, ["110", "111"])
        off = vectors(support, ["000", "001", "010", "011", "100", "101"])
        cover = minimize(on, off, support)
        assert cover.to_string() == "a b"

    def test_multi_cube_result(self):
        support = ["a", "b"]
        on = vectors(support, ["01", "10", "11"])
        off = vectors(support, ["00"])
        cover = minimize(on, off, support)
        assert cover.equivalent(minimize(on, off, support))
        assert cover.literal_count() == 2  # a + b


class TestReduceReseed:
    """REDUCE shrinks every cube against the unreduced cover, so an ON
    vector exactly two cubes shared can end up in neither; the next
    round re-seeds it instead of raising."""

    SUPPORT = [f"s{i}" for i in range(9)]

    def test_vector_lost_by_reduce_is_reseeded(self):
        cover = minimize([0, 1, 2, 5, 21, 24], [14], self.SUPPORT)
        assert cover.to_string() == "s1' + s3'"

    @given(st.data())
    @settings(max_examples=1000, deadline=None)
    def test_disjoint_problems_always_solve(self, data):
        width = data.draw(st.integers(1, 10))
        vectors = st.integers(0, (1 << width) - 1)
        on = data.draw(st.lists(vectors, max_size=24, unique=True))
        off = [v for v in data.draw(st.lists(vectors, max_size=24,
                                             unique=True))
               if v not in on]
        support = [f"s{i}" for i in range(width)]
        cover = minimize(on, off, support,
                         passes=data.draw(st.integers(1, 3)))

        def value(vector):
            return cover.evaluate({name: vector >> i & 1
                                   for i, name in enumerate(support)})

        assert all(value(v) for v in on)
        assert not any(value(v) for v in off)


class TestWideSupport:
    """Supports wider than 63 signals do not fit the int64 packing;
    the kernels must fall back to object arrays of Python ints instead
    of raising OverflowError."""

    SUPPORT = [f"s{i:02d}" for i in range(70)]

    def _vector(self, ones):
        return {name: (1 if name in ones else 0) for name in self.SUPPORT}

    def test_minimize_beyond_63_signals(self):
        on = [self._vector({"s69"}),
              self._vector({"s69", "s00"}),
              self._vector({"s69", "s64", "s32"})]
        off = [self._vector(set()),
               self._vector({"s64"}),
               self._vector({"s00", "s31"})]
        cover = minimize(on, off, self.SUPPORT)
        assert all(cover.evaluate(v) for v in on)
        assert not any(cover.evaluate(v) for v in off)
        # EXPAND must still find the single-literal prime on the bit
        # past the int64 boundary.
        assert cover == SopCover([Cube({"s69": 1})])

    def test_packed_int_inputs_agree_beyond_63_signals(self):
        on = [self._vector({"s69"}), self._vector({"s69", "s65"})]
        off = [self._vector({"s65"}), self._vector(set())]
        on_ints = [_vector_int(v, self.SUPPORT) for v in on]
        off_ints = [_vector_int(v, self.SUPPORT) for v in off]
        assert minimize(on, off, self.SUPPORT) \
            == minimize(on_ints, off_ints, self.SUPPORT)


class TestLiteralComplexity:
    def test_xor_is_four_literals(self):
        support = ["a", "b"]
        on = vectors(support, ["01", "10"])
        off = vectors(support, ["00", "11"])
        complexity, cover, complement = literal_complexity(on, off, support)
        assert complexity == 4
        assert cover.literal_count() == 4
        assert complement.literal_count() == 4

    def test_measure_uses_cheaper_polarity(self):
        # f = a + b + c (3 literals); f' = a'b'c' (3 literals) — tie.
        # g = a b + a c + b c (6 literals); g' is also majority (6).
        # h = a' b' (2) vs h' = a + b (2).
        support = ["a", "b", "c"]
        space = [dict(zip(support, bits))
                 for bits in itertools.product((0, 1), repeat=3)]
        on = [v for v in space if not (v["a"] or v["b"])]
        off = [v for v in space if v["a"] or v["b"]]
        complexity, _, _ = literal_complexity(on, off, support)
        assert complexity == 2

    def test_paper_example_4_literal_and_or(self):
        # f = ab + ac + db + dc = (a + d)(b + c); complement has 4
        # literals (a'd' + b'c'), so the paper counts f as a 4-literal
        # gate (§4).
        support = ["a", "b", "c", "d"]
        space = [dict(zip(support, bits))
                 for bits in itertools.product((0, 1), repeat=4)]
        on = [v for v in space
              if (v["a"] or v["d"]) and (v["b"] or v["c"])]
        off = [v for v in space if v not in on]
        complexity, _, _ = literal_complexity(on, off, support)
        assert complexity == 4
