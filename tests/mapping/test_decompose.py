"""Integration tests for the technology-mapping loop."""

import pytest

from repro.bench_suite import benchmark
from repro.errors import CscViolation
from repro.mapping import decompose
from repro.mapping.decompose import (MapperConfig, TechnologyMapper,
                                     map_circuit)
from repro.pipeline import SynthesisContext
from repro.sg.reachability import state_graph_of
from repro.synthesis.library import GateLibrary
from repro.verify import verify_implementation, weakly_bisimilar


class TestAlreadyFitting:
    def test_celement_needs_nothing(self, celement_stg):
        result = map_circuit(celement_stg, GateLibrary(2))
        assert result.success
        assert result.inserted_signals == 0
        assert "already fits" in result.message

    def test_accepts_stg_and_sg(self, celement_stg, celement_sg):
        from_stg = map_circuit(celement_stg, GateLibrary(2))
        from_sg = map_circuit(celement_sg, GateLibrary(2))
        assert from_stg.success and from_sg.success

    def test_input_sg_not_mutated(self, celement_sg):
        states_before = len(celement_sg)
        map_circuit(celement_sg, GateLibrary(2))
        assert len(celement_sg) == states_before


class TestDecomposition:
    def test_hazard_two_literal(self):
        result = map_circuit(benchmark("hazard"), GateLibrary(2))
        assert result.success
        assert result.inserted_signals >= 1
        assert result.netlist.stats().max_complexity <= 2

    def test_mapped_circuit_verifies(self):
        result = map_circuit(benchmark("hazard"), GateLibrary(2))
        verify_implementation(result.sg, result.implementations)

    def test_mapped_circuit_conforms(self):
        sg = state_graph_of(benchmark("hazard"))
        result = map_circuit(sg, GateLibrary(2))
        hidden = set(result.sg.signals) - set(sg.signals)
        assert weakly_bisimilar(sg, result.sg, hidden)

    def test_steps_recorded(self):
        result = map_circuit(benchmark("trimos-send"), GateLibrary(2))
        assert result.success
        assert len(result.steps) == result.inserted_signals
        for step in result.steps:
            assert step.signal.startswith("x")
            assert step.divisor
            assert step.potential_after <= step.potential_before

    def test_inserted_names_unique(self):
        result = map_circuit(benchmark("trimos-send"), GateLibrary(2))
        names = [step.signal for step in result.steps]
        assert len(names) == len(set(names))

    def test_high_fanin_join(self):
        result = map_circuit(benchmark("trimos-send"), GateLibrary(2))
        assert result.success
        initial = SynthesisContext.from_benchmark("trimos-send")
        assert initial.initial_netlist().stats().max_complexity == 3
        assert result.netlist.stats().max_complexity <= 2
        verify_implementation(result.sg, result.implementations)

    def test_coarser_library_needs_fewer_signals(self):
        fine = map_circuit(benchmark("trimos-send"), GateLibrary(2))
        coarse = map_circuit(benchmark("trimos-send"), GateLibrary(3))
        assert coarse.success
        assert coarse.inserted_signals <= fine.inserted_signals


class TestFailureModes:
    def test_iteration_limit(self, monkeypatch):
        monkeypatch.setattr(decompose, "MAX_ITERATIONS", 0)
        result = map_circuit(benchmark("trimos-send"), GateLibrary(2))
        assert not result.success
        assert "iteration limit" in result.message

    def test_no_neutral_budget_fails_on_join(self):
        config = MapperConfig(max_neutral_steps=0)
        result = map_circuit(benchmark("trimos-send"), GateLibrary(2),
                             config)
        assert not result.success

    def test_csc_violating_input_rejected(self):
        from repro.stg.builders import marked_graph
        # fall-chained sequencer: shares codes between phases.
        arcs = [("r+", "ro1+"), ("ro1+", "ai1+"), ("ai1+", "ro1-"),
                ("ro1-", "ai1-"), ("ai1-", "ro2+"), ("ro2+", "ai2+"),
                ("ai2+", "ro2-"), ("ro2-", "ai2-"), ("ai2-", "a+"),
                ("a+", "r-"), ("r-", "a-")]
        stg = marked_graph("badseq", ["r", "ai1", "ai2"],
                           ["a", "ro1", "ro2"], arcs, [("a-", "r+")])
        with pytest.raises(CscViolation):
            map_circuit(stg, GateLibrary(2))


class TestLocalAckMode:
    def test_local_ack_restricts_acknowledgment(self):
        result = map_circuit(benchmark("hazard"), GateLibrary(2),
                             MapperConfig().local_ack())
        if result.success:
            # No foreign cover may mention an inserted signal.
            inserted = {step.signal for step in result.steps}
            for signal, impl in result.implementations.items():
                if signal in inserted:
                    continue
                target_signals = {step.signal for step in result.steps}
                covers = [rc.cover for rc in impl.region_covers]
                if impl.complete is not None:
                    covers.append(impl.complete)

    def test_local_ack_weaker_than_global(self):
        ours = map_circuit(benchmark("trimos-send"), GateLibrary(2))
        local = map_circuit(benchmark("trimos-send"), GateLibrary(2),
                            MapperConfig().local_ack())
        assert ours.success
        # the gate-splitting baseline fails where sharing is needed
        assert not local.success or \
            local.inserted_signals >= ours.inserted_signals
