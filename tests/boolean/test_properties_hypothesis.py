"""Property-based tests (hypothesis) for the boolean substrate.

The invariants here are the contracts the synthesis pipeline relies on:
minimization correctness against ON/OFF sets, complement involution,
Shannon cofactors, containment as implication, division
reconstruction, cover equivalence against truth tables, cube algebra
laws.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.boolean.cube import Cube
from repro.boolean.divisors import algebraic_division, kernels
from repro.boolean.minimize import minimize
from repro.boolean.sop import SopCover

SIGNALS = ["a", "b", "c", "d"]


def all_vectors():
    return [dict(zip(SIGNALS, bits))
            for bits in itertools.product((0, 1), repeat=len(SIGNALS))]


cube_strategy = st.dictionaries(
    st.sampled_from(SIGNALS), st.integers(0, 1), max_size=4
).map(Cube)

cover_strategy = st.lists(cube_strategy, max_size=5).map(SopCover)

# A random incompletely specified function: each vector is ON (1),
# OFF (0) or DC (2).
spec_strategy = st.lists(st.integers(0, 2), min_size=16, max_size=16)


class TestMinimizeProperties:
    @given(spec_strategy)
    @settings(max_examples=60, deadline=None)
    def test_minimize_respects_on_and_off(self, spec):
        vectors = all_vectors()
        on = [v for v, kind in zip(vectors, spec) if kind == 1]
        off = [v for v, kind in zip(vectors, spec) if kind == 0]
        cover = minimize(on, off, SIGNALS)
        for v in on:
            assert cover.evaluate(v)
        for v in off:
            assert not cover.evaluate(v)

    @given(spec_strategy)
    @settings(max_examples=30, deadline=None)
    def test_minimize_not_worse_than_minterms(self, spec):
        vectors = all_vectors()
        on = [v for v, kind in zip(vectors, spec) if kind == 1]
        off = [v for v, kind in zip(vectors, spec) if kind == 0]
        cover = minimize(on, off, SIGNALS)
        naive = SopCover.from_minterms(on, SIGNALS)
        assert cover.literal_count() <= naive.literal_count()


class TestCoverProperties:
    @given(cover_strategy)
    @settings(max_examples=60, deadline=None)
    def test_complement_is_involution(self, cover):
        assert cover.complement().complement().equivalent(cover)

    @given(cover_strategy)
    @settings(max_examples=60, deadline=None)
    def test_complement_is_exhaustive_and_disjoint(self, cover):
        complement = cover.complement()
        for v in all_vectors():
            assert cover.evaluate(v) != complement.evaluate(v)

    @given(cover_strategy, cover_strategy)
    @settings(max_examples=60, deadline=None)
    def test_plus_is_disjunction(self, left, right):
        union = left.plus(right)
        for v in all_vectors():
            assert union.evaluate(v) == (left.evaluate(v)
                                         or right.evaluate(v))

    @given(cover_strategy, cover_strategy)
    @settings(max_examples=60, deadline=None)
    def test_times_is_conjunction(self, left, right):
        product = left.times(right)
        for v in all_vectors():
            assert product.evaluate(v) == (left.evaluate(v)
                                           and right.evaluate(v))

    @given(cover_strategy, st.sampled_from(SIGNALS))
    @settings(max_examples=40, deadline=None)
    def test_cofactor_is_shannon_restriction(self, cover, name):
        halves = {value: cover.cofactor(name, value) for value in (0, 1)}
        for v in all_vectors():
            assert halves[v[name]].evaluate(v) == cover.evaluate(v)
        assert name not in halves[0].support + halves[1].support

    @given(cover_strategy, cover_strategy)
    @settings(max_examples=40, deadline=None)
    def test_covers_agrees_with_implication(self, outer, inner):
        implied = all(outer.evaluate(v) for v in all_vectors()
                      if inner.evaluate(v))
        assert outer.covers(inner) == implied

    @given(cover_strategy)
    @settings(max_examples=40, deadline=None)
    def test_tautology_agrees_with_enumeration(self, cover):
        expected = all(cover.evaluate(v) for v in all_vectors())
        assert cover.is_tautology() == expected


class TestDivisionProperties:
    @given(cover_strategy, cover_strategy)
    @settings(max_examples=60, deadline=None)
    def test_division_reconstruction(self, cover, divisor):
        if divisor.is_zero():
            return
        quotient, rest = algebraic_division(cover, divisor)
        rebuilt = divisor.times(quotient).plus(rest)
        # Algebraic division never loses or invents behaviour.
        for v in all_vectors():
            assert rebuilt.evaluate(v) == cover.evaluate(v)

    @given(cover_strategy)
    @settings(max_examples=40, deadline=None)
    def test_kernels_are_cube_free_quotients(self, cover):
        for kernel in kernels(cover):
            assert kernel.is_cube_free()
            assert kernel.num_cubes() >= 2


class TestSopEquivalence:
    @given(cover_strategy, cover_strategy)
    @settings(max_examples=40, deadline=None)
    def test_cover_equivalence_matches_truth_tables(self, left, right):
        same_table = all(left.evaluate(v) == right.evaluate(v)
                         for v in all_vectors())
        assert left.equivalent(right) == same_table


class TestCubeProperties:
    @given(cube_strategy, cube_strategy)
    @settings(max_examples=60, deadline=None)
    def test_intersection_semantics(self, left, right):
        product = left.intersect(right)
        for v in all_vectors():
            expected = left.evaluate(v) and right.evaluate(v)
            got = product.evaluate(v) if product is not None else False
            assert got == expected

    @given(cube_strategy, cube_strategy)
    @settings(max_examples=60, deadline=None)
    def test_supercube_contains_both(self, left, right):
        sup = left.supercube(right)
        assert sup.contains(left)
        assert sup.contains(right)

    @given(cube_strategy, cube_strategy)
    @settings(max_examples=60, deadline=None)
    def test_containment_agrees_with_semantics(self, outer, inner):
        semantic = all(outer.evaluate(v) for v in all_vectors()
                       if inner.evaluate(v))
        assert outer.contains(inner) == semantic
