"""Unit tests for the cost model (§3.4 / §4)."""

import pytest

from repro.boolean.sop import SopCover
from repro.mapping.cost import (implementation_cost, non_si_cost,
                                signal_logic_cost, tree_decomposition_cost,
                                tree_literal_cost)
from repro.synthesis.cover import SignalImplementation, synthesize_all


def cover(text):
    return SopCover.from_string(text)


def complexity(on, off):
    """The gate complexity of a complete cover and its complement."""
    return SignalImplementation("f", [], [], cover(on),
                                cover(off)).complete_complexity


class TestCoverComplexity:
    def test_min_of_polarities(self):
        assert complexity("a b c", "a' + b' + c'") == 3
        assert complexity("a b + c", "a' c' + b' c'") == 3

    def test_paper_xor_example(self):
        # A 2-input XOR is a 4-literal gate (§4).
        assert complexity("a b' + a' b", "a b + a' b'") == 4


class TestTreeLiteralCost:
    def test_wire(self):
        assert tree_literal_cost(1, 2) == 0
        assert tree_literal_cost(0, 2) == 0

    def test_single_gate(self):
        assert tree_literal_cost(2, 2) == 2
        assert tree_literal_cost(4, 4) == 4

    def test_binary_tree(self):
        # n leaves need n-1 2-input gates = 2(n-1) literals.
        for n in range(2, 10):
            assert tree_literal_cost(n, 2) == 2 * (n - 1)

    def test_kary_tree(self):
        assert tree_literal_cost(9, 3) == 9 + 3  # 3 gates + root
        # 5 leaves: one AND4 + a 2-input root = 4 + 2.
        assert tree_literal_cost(5, 4) == 6


class TestTreeDecomposition:
    def test_single_cube(self):
        # a b c into 2-input ANDs: 2 gates, 4 literals.
        assert tree_decomposition_cost(cover("a b c"),
                                       cover("a' + b' + c'"), 2) == 4

    def test_multi_cube(self):
        # (a b) + (c d): two ANDs (4) + one OR (2) = 6.
        c = cover("a b + c d")
        assert tree_decomposition_cost(c, c.complement(), 2) == 6

    def test_chooses_cheaper_polarity(self):
        # f = a'b'c' (3 lits) vs f' = a + b + c (3 lits): tie, cover
        # polarity used; both cost 4 at k=2.
        assert tree_decomposition_cost(cover("a' b' c'"),
                                       cover("a + b + c"), 2) == 4

    def test_degenerate_literal(self):
        assert tree_decomposition_cost(cover("a"), cover("a'"), 2) == 1

    def test_wide_gate_at_k4(self):
        # 7-literal cube at k=4: AND4(a..d) + root AND4(g1,e,f,g)
        # = 4 + 4 literals.
        cost = tree_decomposition_cost(
            cover("a b c d e f g"),
            cover("a' + b' + c' + d' + e' + f' + g'"), 4)
        assert cost == 8


class TestImplementationCost:
    def test_celement(self, celement_sg):
        implementations = synthesize_all(celement_sg)
        literals, c_elements = implementation_cost(implementations)
        assert c_elements == 1
        assert literals == 4  # a b  +  a' b'

    def test_non_si_cost_smaller_or_equal_gates(self, celement_sg):
        implementations = synthesize_all(celement_sg)
        literals, c_elements = non_si_cost(implementations, 2)
        assert c_elements == 1
        assert literals == 4  # both covers already fit 2-input gates

    def test_signal_logic_cost_is_the_per_signal_slice(self,
                                                       celement_sg):
        """implementation_cost must equal the sum of the per-signal
        costs — the CSC solver prices candidates with the same measure
        the Table-1 columns use."""
        implementations = synthesize_all(celement_sg)
        literals, _ = implementation_cost(implementations)
        assert literals == sum(signal_logic_cost(impl)
                               for impl in implementations.values())
        assert signal_logic_cost(implementations["c"]) == 4
