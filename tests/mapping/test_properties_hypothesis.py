"""Property-based tests for the insertion machinery and CSC solver.

For random 2-literal seed functions over random valid fork/join STGs:

* every successfully computed I-partition satisfies the crossing rules
  and covers the state set;
* every successful insertion yields a fully implementable SG that is
  weakly bisimilar to the original with the new signal hidden;
* the inserted signal's complete cover exists (it is implementable).

For random live/safe handshake STGs (chained sequencers with optional
concurrent branches — a family dense in CSC conflicts):

* the CSC solver terminates under both candidate methods, either
  solving within its budget or raising :class:`CscViolation`;
* every inserted signal is internal-only (a fresh output, never an
  input, invisible to the environment);
* the reachable state space grows at most by the insertion-theoretic
  bound of 2x per inserted signal.

The suite-level ``ci`` Hypothesis profile (tests/conftest.py) pins
``deadline=None`` and derandomization, so CI failures replay.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.boolean.cube import Cube
from repro.boolean.sop import SopCover
from repro.errors import CoverError, CscViolation, InsertionError
from repro.mapping.csc import CSC_METHODS, csc_conflicts, solve_csc
from repro.mapping.insertion import insert_signal
from repro.mapping.partition import compute_insertion_sets
from repro.sg.properties import check_speed_independence, csc_violations
from repro.sg.reachability import state_graph_of
from repro.stg.builders import marked_graph
from repro.synthesis.cover import synthesize_all
from repro.verify.conformance import weakly_bisimilar


@st.composite
def small_sgs(draw):
    """Fork/join STGs with 2 or 3 concurrent output branches."""
    branches = draw(st.integers(min_value=2, max_value=3))
    signals = [f"s{i}" for i in range(branches)]
    arcs = []
    for s in signals:
        arcs += [("t+", f"{s}+"), (f"{s}+", "a+"), ("a+", "t-"),
                 ("t-", f"{s}-"), (f"{s}-", "a-")]
    stg = marked_graph("rnd", [], ["t", "a"] + signals, arcs,
                       [("a-", "t+")])
    return state_graph_of(stg)


@st.composite
def handshake_sgs(draw):
    """Random live/safe handshake STGs, most with CSC conflicts.

    A request ``r`` is serialized into 2-4 chained ``ro_i``/``ai_i``
    handshakes (each unobserved phase repeat is a classic CSC
    conflict); optionally one of the stages runs a second handshake
    concurrently (fork/join), exercising diamonds in the solver's
    I-partition growth.  Marked graphs built this way are live and
    safe by construction (a single token per cycle).
    """
    stages = draw(st.integers(min_value=2, max_value=4))
    fork_at = draw(st.one_of(
        st.none(), st.integers(min_value=1, max_value=stages)))
    inputs = ["r"] + [f"ai{i}" for i in range(1, stages + 1)]
    outputs = ["a"] + [f"ro{i}" for i in range(1, stages + 1)]
    arcs = [("r+", "ro1+")]
    marked = [("a-", "r+")]
    for i in range(1, stages + 1):
        arcs += [(f"ro{i}+", f"ai{i}+"), (f"ai{i}+", f"ro{i}-"),
                 (f"ro{i}-", f"ai{i}-")]
        if i < stages:
            arcs.append((f"ai{i}-", f"ro{i + 1}+"))
    arcs += [(f"ai{stages}-", "a+"), ("a+", "r-"), ("r-", "a-")]
    if fork_at is not None:
        # a concurrent side handshake forked off stage `fork_at`
        inputs.append("bi")
        outputs.append("bo")
        arcs += [(f"ro{fork_at}+", "bo+"), ("bo+", "bi+"),
                 ("bi+", "bo-"), ("bo-", "bi-"), ("bi-", "a+")]
    stg = marked_graph("rndhs", inputs, outputs, arcs, marked)
    return state_graph_of(stg)


@st.composite
def seed_functions(draw, sg=None):
    names = ["t", "a", "s0", "s1"]
    left = draw(st.sampled_from(names))
    right = draw(st.sampled_from([n for n in names if n != left]))
    pol_left = draw(st.integers(0, 1))
    pol_right = draw(st.integers(0, 1))
    return SopCover([Cube({left: pol_left, right: pol_right})])


class TestInsertionProperties:
    @given(small_sgs(), seed_functions())
    @settings(max_examples=40, deadline=None)
    def test_partitions_cover_and_respect_crossings(self, sg, function):
        try:
            partition = compute_insertion_sets(sg, function)
        except InsertionError:
            return
        blocks = (partition.er_plus | partition.er_minus
                  | partition.s1 | partition.s0)
        assert blocks == sg.encoding().full_mask
        assert not partition.er_plus & partition.er_minus
        order = {"S0", "S+", "S1", "S-"}
        for index in range(len(sg)):
            assert partition.block_of(index) in order

    @given(small_sgs(), seed_functions())
    @settings(max_examples=30, deadline=None)
    def test_insertions_preserve_everything(self, sg, function):
        try:
            partition = compute_insertion_sets(sg, function)
            new_sg = insert_signal(sg, partition, "zz")
        except InsertionError:
            return
        report = check_speed_independence(new_sg)
        assert report.implementable, report.all_violations()[:2]
        assert weakly_bisimilar(sg, new_sg, {"zz"})
        try:
            implementations = synthesize_all(new_sg)
        except (CoverError, CscViolation):
            return
        assert "zz" in implementations


class TestCscSolverProperties:
    @given(handshake_sgs(), st.sampled_from(CSC_METHODS))
    @settings(max_examples=15, deadline=None)
    def test_solver_terminates_and_solves(self, sg, method):
        """The solver always terminates: it either reaches zero
        violations within its budget or raises CscViolation — and a
        returned result really is conflict-free."""
        try:
            result = solve_csc(sg, max_signals=6, method=method)
        except CscViolation:
            return
        assert csc_violations(result.sg) == []
        assert not csc_conflicts(result.sg)
        assert result.inserted_signals <= 6

    @given(handshake_sgs(), st.sampled_from(CSC_METHODS))
    @settings(max_examples=10, deadline=None)
    def test_inserted_signals_are_internal_only(self, sg, method):
        """Encoding signals must be invisible to the environment: new
        outputs, never inputs, never renames of existing signals."""
        try:
            result = solve_csc(sg, max_signals=6, method=method)
        except CscViolation:
            return
        inserted = set(result.inserted_names)
        assert inserted == set(result.sg.signals) - set(sg.signals)
        assert inserted == set(result.sg.outputs) - set(sg.outputs)
        assert not inserted & set(result.sg.inputs)
        assert tuple(result.sg.inputs) == tuple(sg.inputs)
        for name in inserted:
            assert name.startswith("csc")

    @given(handshake_sgs(), st.sampled_from(CSC_METHODS))
    @settings(max_examples=10, deadline=None)
    def test_state_growth_is_bounded(self, sg, method):
        """Each insertion at most doubles the reachable state count
        (every original state keeps 1 or 2 copies), so the solved
        graph is bounded by |S| * 2^inserted."""
        try:
            result = solve_csc(sg, max_signals=6, method=method)
        except CscViolation:
            return
        bound = len(sg) * (2 ** result.inserted_signals)
        assert len(sg) <= len(result.sg) <= bound
