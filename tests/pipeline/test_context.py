"""SynthesisContext memoization: the shared-artifact contract."""

import pytest

import repro.pipeline.context as context_module
from repro.mapping.decompose import MapperConfig
from repro.pipeline import ArtifactCache, SynthesisContext

CIRCUIT = "hazard"


class Counter:
    """Call-counting wrapper around a module-level function."""

    def __init__(self, function):
        self.function = function
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.function(*args, **kwargs)


@pytest.fixture
def reach_spy(monkeypatch):
    spy = Counter(context_module.state_graph_of)
    monkeypatch.setattr(context_module, "state_graph_of", spy)
    return spy


@pytest.fixture
def synth_spy(monkeypatch):
    spy = Counter(context_module.synthesize_all)
    monkeypatch.setattr(context_module, "synthesize_all", spy)
    return spy


class TestBatterySharing:
    def test_one_reachability_pass_for_whole_battery(self, reach_spy):
        """k = 2/3/4 plus the local-ack baseline: ONE state_graph_of."""
        context = SynthesisContext.from_benchmark(CIRCUIT)
        for literals in (2, 3, 4):
            context.mapping(literals)
        context.mapping(2, "local")
        assert reach_spy.calls == 1
        assert context.stats["sg"] == 1
        assert context.stats["map"] == 4

    def test_one_initial_synthesis_for_whole_battery(self, synth_spy):
        context = SynthesisContext.from_benchmark(CIRCUIT)
        for literals in (2, 3, 4):
            context.mapping(literals)
        context.mapping(2, "local")
        assert synth_spy.calls == 1
        assert context.stats["implementations"] == 1

    def test_repeated_mapping_is_cached(self):
        context = SynthesisContext.from_benchmark(CIRCUIT)
        first = context.mapping(2)
        second = context.mapping(2)
        assert first is second
        assert context.stats["map"] == 1

    def test_distinct_configs_not_conflated(self):
        context = SynthesisContext.from_benchmark(CIRCUIT)
        default = context.mapping(2)
        tuned = context.mapping(2, config=MapperConfig(max_divisors=24))
        assert default is not tuned
        assert context.stats["map"] == 2


class TestContentKeyedSharing:
    def test_same_circuit_shares_across_contexts(self, reach_spy,
                                                 traffic):
        cache = ArtifactCache()
        left = SynthesisContext.from_benchmark(CIRCUIT, cache=cache)
        right = SynthesisContext.from_benchmark(CIRCUIT, cache=cache)
        assert left.state_graph() is right.state_graph()
        assert reach_spy.calls == 1
        assert traffic()["cache_hits"] >= 1

    def test_different_circuits_do_not_collide(self):
        cache = ArtifactCache()
        half = SynthesisContext.from_benchmark("half", cache=cache)
        hazard = SynthesisContext.from_benchmark(CIRCUIT, cache=cache)
        assert half.content_key != hazard.content_key
        assert half.state_graph() is not hazard.state_graph()

    def test_content_key_is_load_path_independent(self, tmp_path):
        from repro.stg.writer import write_g
        from repro.bench_suite import benchmark
        path = tmp_path / "c.g"
        path.write_text(write_g(benchmark(CIRCUIT)))
        from_registry = SynthesisContext.from_benchmark(CIRCUIT)
        from_file = SynthesisContext.from_file(str(path))
        assert from_registry.content_key == from_file.content_key


class TestMappingEquivalence:
    def test_context_mapping_matches_direct_mapper(self):
        """Precomputed shared artifacts change nothing in the result."""
        from repro.mapping.decompose import map_circuit
        from repro.sg.reachability import state_graph_of
        from repro.synthesis.library import GateLibrary

        context = SynthesisContext.from_benchmark(CIRCUIT)
        shared = context.mapping(2)
        direct = map_circuit(
            state_graph_of(context.stg), GateLibrary(2))
        assert shared.success == direct.success
        assert shared.inserted_signals == direct.inserted_signals
        assert shared.message == direct.message
        assert (shared.netlist.stats().histogram
                == direct.netlist.stats().histogram)
        assert [step.divisor for step in shared.steps] \
            == [step.divisor for step in direct.steps]
