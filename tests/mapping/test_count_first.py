"""Count-first insertion: trials are decided by their plans, and the
whole SI property suite runs once on each graph a step commits to.

* The commit check is not a rejection: when the suite reports a
  violation on a committed graph, the mapper and the CSC solver raise
  :class:`SpeedIndependenceError` instead of falling through to another
  candidate.
* The CSC solver builds only the candidates that can still win: under
  ``blocks`` the first block whose planned count drops, one graph per
  step; under ``regions`` the candidates at the step's fewest remaining
  conflicts, and it prices only those.
"""

from collections import defaultdict

import pytest

import repro.mapping.csc as csc
import repro.mapping.insertion as insertion
from repro.bench_suite import benchmark
from repro.errors import SpeedIndependenceError
from repro.mapping.csc import CSC_METHODS, solve_csc
from repro.mapping.decompose import map_circuit
from repro.sg.properties import PropertyReport
from repro.sg.reachability import state_graph_of
from repro.synthesis.library import GateLibrary
from tests.conftest import chained_sequencer_stg


@pytest.fixture
def broken_suite(monkeypatch):
    """The commit check's suite reports a violation on every graph; the
    list holds the graphs it was asked about."""
    checked = []

    def violated(sg, csc=True):
        checked.append(sg)
        return PropertyReport(persistency=["planted violation"])
    monkeypatch.setattr(insertion, "check_speed_independence", violated)
    return checked


class TestCommitCheck:
    def test_mapper_raises_instead_of_rejecting(self, broken_suite):
        with pytest.raises(SpeedIndependenceError,
                           match="planted violation"):
            map_circuit(benchmark("hazard"), GateLibrary(2))
        assert len(broken_suite) == 1

    @pytest.mark.parametrize("method", CSC_METHODS)
    def test_solver_raises_instead_of_rejecting(self, broken_suite,
                                                method):
        sg = state_graph_of(chained_sequencer_stg())
        with pytest.raises(SpeedIndependenceError,
                           match="planted violation"):
            solve_csc(sg, method=method)
        assert len(broken_suite) == 1

    @pytest.mark.parametrize("method", CSC_METHODS)
    def test_solved_graph_passes(self, method):
        sg = state_graph_of(chained_sequencer_stg())
        result = solve_csc(sg, method=method)
        insertion.verify_insertion(result.sg, result.steps[-1].signal)


class TestWhatTheSolverBuilds:
    @pytest.fixture
    def spied(self, monkeypatch):
        """Per new signal: the conflict counts of every plan, of every
        built graph, and the graphs priced."""
        plans = defaultdict(list)
        built = defaultdict(list)
        priced = defaultdict(list)
        graphs = {}
        real_plan = csc.plan_insertion
        real_insert = csc.insert_signal
        real_cost = csc._candidate_cost

        def plan_spy(sg, partition, name, **kwargs):
            plan = real_plan(sg, partition, name, **kwargs)
            plans[name].append(plan.conflicts)
            return plan

        def insert_spy(sg, partition, name, **kwargs):
            new_sg = real_insert(sg, partition, name, **kwargs)
            built[name].append(kwargs["plan"].conflicts)
            graphs[id(new_sg)] = new_sg
            return new_sg

        def cost_spy(candidate_sg, name):
            assert graphs.get(id(candidate_sg)) is candidate_sg
            priced[name].append(candidate_sg)
            return real_cost(candidate_sg, name)

        monkeypatch.setattr(csc, "plan_insertion", plan_spy)
        monkeypatch.setattr(csc, "insert_signal", insert_spy)
        monkeypatch.setattr(csc, "_candidate_cost", cost_spy)
        return plans, built, priced

    def test_blocks_builds_one_graph_per_step(self, spied):
        plans, built, priced = spied
        sg = state_graph_of(chained_sequencer_stg(6))
        result = solve_csc(sg, method="blocks")
        assert result.steps
        for step in result.steps:
            assert built[step.signal] == [step.conflicts_after]
            # the first planned count that drops is the one built
            dropped = [count for count in plans[step.signal]
                       if count < step.conflicts_before]
            assert dropped[0] == step.conflicts_after
        assert not priced

    def test_regions_builds_and_prices_only_the_fewest(self, spied):
        plans, built, priced = spied
        sg = state_graph_of(chained_sequencer_stg(6))
        result = solve_csc(sg, method="regions")
        assert result.steps
        improving = 0
        for step in result.steps:
            dropped = [count for count in plans[step.signal]
                       if count < step.conflicts_before]
            fewest = min(dropped)
            assert fewest == step.conflicts_after
            assert built[step.signal] == [fewest] * dropped.count(fewest)
            assert len(priced[step.signal]) == len(built[step.signal])
            improving += len(dropped)
        # not vacuous: some improving candidates were never built
        assert sum(map(len, built.values())) < improving
