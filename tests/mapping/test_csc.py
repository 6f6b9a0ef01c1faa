"""Tests for the CSC solver (the companion-[6] capability)."""

import pytest

from repro._util import FrozenVector
from repro.errors import CscViolation
from repro.mapping.csc import (CSC_METHODS, CscConfig, csc_conflicts,
                               solve_csc)
from repro.mapping.decompose import MapperConfig, map_circuit
from repro.sg.graph import StateGraph
from repro.sg.properties import check_speed_independence, csc_violations
from repro.sg.reachability import state_graph_of
from repro.synthesis.library import GateLibrary
from repro.verify import verify_implementation, weakly_bisimilar


@pytest.fixture
def bad_sequencer_sg():
    """Fall-chained sequencer: the textbook CSC violation."""
    from tests.conftest import chained_sequencer_stg
    return state_graph_of(chained_sequencer_stg())


class TestConflictDetection:
    def test_conflicts_found(self, bad_sequencer_sg):
        conflicts = csc_conflicts(bad_sequencer_sg)
        assert conflicts
        for left, right in conflicts:
            assert bad_sequencer_sg.code(left) == \
                bad_sequencer_sg.code(right)

    def test_clean_graph_has_none(self, celement_sg):
        assert not csc_conflicts(celement_sg)

    @staticmethod
    def _toggle_sg(signal_order):
        """A 4-state graph with one CSC conflict, built with signals
        declared and codes assembled in the given order."""
        inputs = [s for s in signal_order if s == "r"]
        outputs = [s for s in signal_order if s != "r"]
        sg = StateGraph("shuffled", inputs, outputs)
        codes = {
            "s0": {"r": 0, "a": 0, "b": 0},
            "s1": {"r": 1, "a": 0, "b": 0},   # enables a+
            "s2": {"r": 0, "a": 1, "b": 0},
        }
        # s3 shares s1's code while enabling a different output (b+),
        # with the dict assembled in the opposite key order
        codes["s3"] = {key: codes["s1"][key]
                       for key in reversed(signal_order)}
        for state in ("s0", "s1", "s2", "s3"):
            sg.add_state(state, FrozenVector(
                {key: codes[state][key] for key in signal_order}))
        sg.add_arc("s0", "r+", "s1")
        sg.add_arc("s1", "a+", "s2")
        sg.add_arc("s2", "r-", "s3")          # inconsistent on purpose:
        sg.add_arc("s3", "b+", "s0")          # only CSC is under test
        sg.set_initial("s0")
        return sg

    @pytest.mark.parametrize("order", [["r", "a", "b"], ["b", "a", "r"],
                                       ["a", "r", "b"]])
    def test_conflicts_stable_across_signal_orderings(self, order):
        """The grouping key must treat the code as a mapping: however
        the signals are declared or the code dicts assembled, the same
        conflict pair is found."""
        sg = self._toggle_sg(order)
        conflicts = csc_conflicts(sg)
        assert [(left, right) for left, right in conflicts] == \
            [("s1", "s3")]
        assert len(csc_violations(sg)) == 1


class TestSolver:
    def test_solves_sequencer(self, bad_sequencer_sg):
        result = solve_csc(bad_sequencer_sg)
        assert result.inserted_signals >= 1
        assert not csc_conflicts(result.sg)
        report = check_speed_independence(result.sg)
        assert report.implementable, report.all_violations()[:2]

    def test_steps_monotone(self, bad_sequencer_sg):
        result = solve_csc(bad_sequencer_sg)
        for step in result.steps:
            assert step.conflicts_after < step.conflicts_before

    def test_solution_conforms_to_spec(self, bad_sequencer_sg):
        result = solve_csc(bad_sequencer_sg)
        hidden = set(result.sg.signals) - set(bad_sequencer_sg.signals)
        assert weakly_bisimilar(bad_sequencer_sg, result.sg, hidden)

    def test_clean_graph_untouched(self, celement_sg):
        result = solve_csc(celement_sg)
        assert result.inserted_signals == 0
        assert len(result.sg) == len(celement_sg)

    def test_budget_enforced(self, bad_sequencer_sg):
        with pytest.raises(CscViolation):
            solve_csc(bad_sequencer_sg, max_signals=0)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            CscConfig(method="magic")

    @pytest.mark.parametrize("budget", [0, -1])
    def test_candidate_budget_must_be_positive(self, budget):
        """A budget below one would slice the ranking from the end
        (-1) or try nothing and report a stall (0)."""
        with pytest.raises(ValueError, match="max_candidates"):
            CscConfig(max_candidates=budget)

    def test_negative_signal_budget_rejected(self, bad_sequencer_sg):
        with pytest.raises(ValueError, match="max_signals"):
            CscConfig(max_signals=-1)
        with pytest.raises(ValueError, match="max_signals"):
            solve_csc(bad_sequencer_sg, max_signals=-1)
        assert CscConfig(max_signals=0).max_signals == 0

    @pytest.mark.parametrize("method", CSC_METHODS)
    def test_both_methods_solve_and_stamp_result(self,
                                                 bad_sequencer_sg,
                                                 method):
        result = solve_csc(bad_sequencer_sg,
                           config=CscConfig(method=method))
        assert result.method == method
        assert not csc_conflicts(result.sg)
        assert result.candidates_evaluated >= result.inserted_signals
        assert result.stats() == {
            "signals_inserted": result.inserted_signals,
            "candidates_evaluated": result.candidates_evaluated}

    def test_regions_steps_carry_costs(self, bad_sequencer_sg):
        result = solve_csc(bad_sequencer_sg,
                           config=CscConfig(method="regions"))
        assert result.steps
        for step in result.steps:
            assert step.cost is not None and step.cost >= 0

    def test_method_argument_overrides_config(self, bad_sequencer_sg):
        result = solve_csc(bad_sequencer_sg,
                           config=CscConfig(method="blocks"),
                           method="regions")
        assert result.method == "regions"


class TestMapperIntegration:
    def test_mapper_solves_csc_when_asked(self, bad_sequencer_sg):
        config = MapperConfig(solve_csc=True)
        result = map_circuit(bad_sequencer_sg, GateLibrary(2), config)
        assert result.success
        verify_implementation(result.sg, result.implementations)

    def test_mapper_rejects_without_flag(self, bad_sequencer_sg):
        with pytest.raises(CscViolation):
            map_circuit(bad_sequencer_sg, GateLibrary(2))
