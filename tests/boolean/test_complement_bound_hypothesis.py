"""Property tests for the essential-variable complement bound.

A variable is *essential* when some ON vector and some OFF vector
differ only in it.  Every cover of either polarity then needs a
literal of it, and a non-constant cover needs at least one literal:
``lit(c) >= max(1, |E|)``.  :func:`minimize_complement` uses that to
skip minimizing the complemented problem when the cover it was given
has at most ``max(1, |E|)`` literals, returning the cover's De Morgan
complement instead.  The checks here compute E by brute force over
all ON x OFF pairs and hold the function to an always-minimize
reference:

(a) the lemma itself, on both polarities of random problems;
(b) the returned complement covers the complemented problem;
(c) the cheaper-polarity verdict and the minimum literal count equal
    the reference's, ties included;
(d) the minimizer is skipped exactly when the bound says so.

:func:`literal_bound` states the lemma as a number, for the mapper's
bound-first trial evaluation: it never exceeds the literal count of
either polarity's cover, and more OFF vectors never lower it.
"""

import importlib
from typing import List, Tuple
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.boolean.minimize import (cheaper_polarity, essential_variables,
                                    literal_bound, minimize,
                                    minimize_complement, minimize_memo)
from repro.boolean.sop import SopCover

#: the module itself (the package re-exports its ``minimize``
#: function under the same name)
minimize_module = importlib.import_module("repro.boolean.minimize")

NAMES = [f"s{i}" for i in range(10)]

Problem = Tuple[List[int], List[int], Tuple[str, ...]]


@st.composite
def disjoint_problems(draw) -> Problem:
    width = draw(st.integers(1, len(NAMES)))
    vectors = st.integers(0, (1 << width) - 1)
    on = draw(st.lists(vectors, max_size=24, unique=True))
    off = [v for v in draw(st.lists(vectors, max_size=24, unique=True))
           if v not in on]
    return on, off, tuple(NAMES[:width])


#: disjoint ON/OFF vector lists over 1-10 signals, either or both
#: possibly empty
problems = disjoint_problems()


def as_mappings(vectors, support):
    """The vectors as signal mappings, with one signal outside the
    support (minimize projects it away)."""
    return [dict({name: v >> i & 1 for i, name in enumerate(support)},
                 extra=1) for v in vectors]


def essential(on, off, support) -> List[str]:
    """The essential variables, from every ON x OFF pair."""
    found = set()
    for u in on:
        for w in off:
            diff = u ^ w
            if diff and not diff & (diff - 1):
                found.add(support[diff.bit_length() - 1])
    return sorted(found)


def bound_skips(cover: SopCover, on, off, support) -> bool:
    """What the brute-force bound allows: a non-constant cover with at
    most ``max(1, |E|)`` literals."""
    literals = cover.literal_count()
    return 1 <= literals <= max(1, len(essential(on, off, support)))


def complement_with_spy(on, off, support, cover):
    """``minimize_complement`` and whether it called the minimizer."""
    with mock.patch.object(minimize_module, "minimize",
                           wraps=minimize) as spy:
        result = minimize_complement(on, off, support, cover)
    return result, spy.called


class TestBound:
    @given(problems)
    @settings(max_examples=300)
    def test_lemma_on_both_polarities(self, problem):
        """(a) A non-constant minimized cover of either polarity has at
        least max(1, |E|) literals, among them one per essential
        variable."""
        on, off, support = problem
        needed = essential(on, off, support)
        for cover in (minimize(on, off, support),
                      minimize(off, on, support)):
            if cover.literal_count() == 0:
                continue
            assert cover.literal_count() >= max(1, len(needed))
            assert set(needed) <= set(cover.support)

    @given(problems, st.booleans())
    @settings(max_examples=300)
    def test_result_covers_the_complemented_problem(self, problem,
                                                    mapped):
        """(b) 1 on every OFF vector, 0 on every ON vector, whether
        the vectors come packed or as mappings."""
        on, off, support = problem
        cover = minimize(on, off, support)
        given_on, given_off = ((as_mappings(on, support),
                                as_mappings(off, support)) if mapped
                               else (on, off))
        complement = minimize_complement(given_on, given_off, support,
                                         cover)
        for vector in as_mappings(off, support):
            assert complement.evaluate(vector)
        for vector in as_mappings(on, support):
            assert not complement.evaluate(vector)

    @given(problems)
    @settings(max_examples=300)
    def test_verdict_matches_always_minimize(self, problem):
        """(c) The shared helper picks the polarity the always-minimize
        reference picks (the complement only when strictly cheaper),
        at the same literal count."""
        on, off, support = problem
        cover = minimize(on, off, support)
        reference = minimize(off, on, support)
        reference_inverted = (reference.literal_count()
                              < cover.literal_count())
        reference_cost = min(cover.literal_count(),
                             reference.literal_count())
        complement = minimize_complement(on, off, support, cover)
        chosen = cheaper_polarity(cover, complement)
        assert (chosen is complement) == reference_inverted
        assert chosen.literal_count() == reference_cost

    @given(problems, st.booleans())
    @settings(max_examples=300)
    def test_skips_exactly_when_the_bound_holds(self, problem, mapped):
        """(d) The minimizer runs unless the brute-force bound holds,
        and each skip is counted in the memo scope."""
        on, off, support = problem
        cover = minimize(on, off, support)
        given_on, given_off = ((as_mappings(on, support),
                                as_mappings(off, support)) if mapped
                               else (on, off))
        with minimize_memo() as memo:
            result, minimized = complement_with_spy(given_on, given_off,
                                                    support, cover)
        skips = bound_skips(cover, on, off, support)
        assert minimized == (not skips)
        assert memo.skipped == int(skips)
        if skips:
            assert result == cover.complement()
        else:
            assert result == minimize(off, on, support)


class TestLiteralBound:
    @given(problems)
    @settings(max_examples=300)
    def test_essential_variables_match_every_pair(self, problem):
        on, off, support = problem
        found = essential_variables(set(on), set(off),
                                    (1 << len(support)) - 1)
        assert [name for i, name in enumerate(support)
                if found >> i & 1] == essential(on, off, support)

    @given(problems)
    @settings(max_examples=300)
    def test_never_exceeds_either_polarity(self, problem):
        """Empty sides included: a constant cover needs no literal."""
        on, off, support = problem
        bound = literal_bound(set(on), set(off), (1 << len(support)) - 1)
        assert bound <= minimize(on, off, support).literal_count()
        assert bound <= minimize(off, on, support).literal_count()
        expected = (max(1, len(essential(on, off, support)))
                    if on and off else 0)
        assert bound == expected

    @given(problems, st.lists(st.integers(0, (1 << len(NAMES)) - 1),
                              min_size=1, max_size=24))
    @settings(max_examples=300)
    def test_more_off_vectors_never_lower_it(self, problem, extra):
        """What the monotonicity repair does to a region's problem."""
        on, off, support = problem
        every = (1 << len(support)) - 1
        more = (set(off) | {v & every for v in extra}) - set(on)
        assert (literal_bound(set(on), more, every)
                >= literal_bound(set(on), set(off), every))


class TestConstantCovers:
    def test_constant_covers_go_through_minimize(self):
        support = ("a", "b")
        for on, off in (([], [0b01]), ([0b01], []), ([], [])):
            cover = minimize(on, off, support)
            assert cover.literal_count() == 0
            result, minimized = complement_with_spy(on, off, support,
                                                    cover)
            assert minimized
            assert result == minimize(off, on, support)

    def test_both_empty_keeps_the_zero_cover(self):
        cover = minimize([], [], ("a",))
        assert minimize_complement([], [], ("a",), cover) \
            == SopCover.zero()

    def test_no_skip_is_counted_outside_a_scope(self):
        cover = minimize([0b1], [0b0], ("a",))
        with minimize_memo() as memo:
            pass
        assert minimize_complement([0b1], [0b0], ("a",), cover) \
            == SopCover.from_string("a'")
        assert memo.skipped == 0


class TestCheaperPolarity:
    def test_ties_go_to_the_cover(self):
        cover = SopCover.from_string("a")
        complement = SopCover.from_string("a'")
        assert cheaper_polarity(cover, complement) is cover

    def test_strictly_cheaper_complement_wins(self):
        cover = SopCover.from_string("a b + a c")
        complement = SopCover.from_string("a' + b' c'")
        assert cheaper_polarity(cover, complement) is complement
