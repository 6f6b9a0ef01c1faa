"""Unit tests for I-partition computation (§3.2)."""

import pytest

from repro.boolean.sop import SopCover
from repro.errors import InsertionError
from repro.mapping.partition import compute_insertion_sets
from repro.sg.reachability import state_graph_of
from repro.stg.parser import parse_g


def cover(text):
    return SopCover.from_string(text)


def states_of(sg, bits):
    return set(sg.encoding().states_of(bits))


class TestBasics:
    def test_constant_function_rejected(self, celement_sg):
        with pytest.raises(InsertionError):
            compute_insertion_sets(celement_sg, cover("1"))
        with pytest.raises(InsertionError):
            compute_insertion_sets(celement_sg, SopCover.zero())

    def test_partition_blocks_cover_all_states(self, celement_sg):
        partition = compute_insertion_sets(celement_sg, cover("a b"))
        blocks = (partition.er_plus | partition.er_minus
                  | partition.s1 | partition.s0)
        assert blocks == celement_sg.encoding().full_mask
        assert not partition.er_plus & partition.s1
        assert not partition.er_minus & partition.s0

    def test_er_plus_inside_ones(self, celement_sg):
        f = cover("a b")
        partition = compute_insertion_sets(celement_sg, f)
        for state in states_of(celement_sg, partition.er_plus):
            assert f.evaluate(celement_sg.code(state))
        for state in states_of(celement_sg, partition.er_minus):
            assert not f.evaluate(celement_sg.code(state))

    def test_initial_value(self, celement_sg):
        partition = compute_insertion_sets(celement_sg, cover("a b"))
        initial = celement_sg.states.index(celement_sg.initial)
        assert partition.initial_value(initial) == 0

    def test_block_of_unknown_state(self, celement_sg):
        partition = compute_insertion_sets(celement_sg, cover("a b"))
        with pytest.raises(InsertionError):
            partition.block_of(len(celement_sg))

    def test_summary_mentions_sizes(self, celement_sg):
        partition = compute_insertion_sets(celement_sg, cover("a b"))
        assert "S+" in partition.summary()


class TestCrossingRules:
    def test_crossings_legal(self, celement_sg):
        partition = compute_insertion_sets(celement_sg, cover("a b"))
        index = celement_sg.encoding().index
        for state in celement_sg.states:
            source = partition.block_of(index[state])
            for _, target_state in celement_sg.successors(state):
                target = partition.block_of(index[target_state])
                assert (source, target) in {
                    ("S0", "S0"), ("S0", "S+"), ("S+", "S+"),
                    ("S+", "S1"), ("S+", "S-"), ("S1", "S1"),
                    ("S1", "S-"), ("S-", "S-"), ("S-", "S0"),
                    ("S-", "S+")}


HAZARD_LIKE_G = """
.model hazardlike
.inputs a d
.outputs c x
.graph
c+ x+
x+ a+
a+ d+
d+ c-
c- a-
c- d-
a- x-
d- x-
x- c+
.marking { <x-,c+> }
.end
"""


class TestPaperHazardExample:
    """§3.2's discussion: with a and d falling concurrently while x is
    high, a function that distinguishes the two interleavings (like
    a'd of the paper) has no legal insertion sets, while functions
    constant across the diamond do."""

    @pytest.fixture
    def sg(self):
        return state_graph_of(parse_g(HAZARD_LIKE_G))

    def test_diamond_splitting_function_rejected(self, sg):
        # f = a' d is 1 on exactly one side state of the a-/d- diamond
        # (a fell first, d still high) — the two interleavings disagree
        # about whether f pulsed, so the insertion must fail.
        with pytest.raises(InsertionError):
            compute_insertion_sets(sg, cover("a' d c'"))

    def test_diamond_constant_function_accepted(self, sg):
        # f = a d' x (both-fallen detection) rises/falls consistently.
        partition = compute_insertion_sets(sg, cover("a d"))
        assert partition.er_plus and partition.er_minus


class TestInputPreservation:
    def test_input_exit_grows_region(self, celement_sg):
        # f = a: ER(x+) starts where a just rose; input b+ leaves the
        # border state, so the region must absorb the target.
        partition = compute_insertion_sets(celement_sg, cover("a"))
        er_plus = states_of(celement_sg, partition.er_plus)
        for state in er_plus:
            for event, target in celement_sg.successors(state):
                if celement_sg.is_input_event(event):
                    assert (target in er_plus
                            or not cover("a").evaluate(
                                celement_sg.code(target)))
