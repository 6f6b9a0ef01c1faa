"""End-to-end differential harness for the CSC solver.

Every built-in benchmark and a family of deliberately conflicted
circuits is pushed through *both* solver methods (``"regions"`` and
``"blocks"``) and checked against the library's own oracles:

* the solved state graph has zero :func:`csc_violations` and passes the
  full speed-independence property suite;
* the synthesized standard-C netlist passes the gate-level SI check
  (:func:`verify_implementation`);
* the solved graph conforms to the original STG — weak bisimilarity
  with the inserted signals hidden (:mod:`repro.verify.conformance`);
* the two methods' telemetry is diffed: both must solve, and their
  per-step records must be internally consistent.

The 32 published benchmarks are all CSC-clean (the paper's Table-1
suite assumes CSC), so for them the harness additionally proves the
solver is a strict no-op: identical state sets, arcs and codes.
"""

import pytest

from repro.bench_suite import benchmark_names
from repro.mapping.csc import CSC_METHODS, csc_conflicts, solve_csc
from repro.sg.properties import check_speed_independence, csc_violations
from repro.sg.reachability import state_graph_of
from repro.stg.parser import parse_g
from repro.synthesis.cover import synthesize_all
from repro.verify import verify_implementation, weakly_bisimilar
from tests.conftest import alternator_stg, chained_sequencer_stg

# ----------------------------------------------------------------------
# Conflicted circuits (the built-in suite is CSC-clean by construction)
# ----------------------------------------------------------------------


def _sequencer(stages: int):
    return state_graph_of(chained_sequencer_stg(stages))


ALTERNATOR_G = """
.model alternator
.inputs r
.outputs a b
.graph
r+ a+
a+ r-
r- a-
a- r+/2
r+/2 b+
b+ r-/2
r-/2 b-
b- r+
.marking { <b-,r+> }
.end
"""


def _conflicted_circuits():
    circuits = {
        "seqcsc2": _sequencer(2),
        "seqcsc3": _sequencer(3),
        "seqcsc4": _sequencer(4),
        "alternator": state_graph_of(parse_g(ALTERNATOR_G)),
        "alternator3": state_graph_of(alternator_stg(3)),
    }
    for name, sg in circuits.items():
        assert csc_conflicts(sg), f"{name} fixture must conflict"
    return circuits


_CONFLICTED = _conflicted_circuits()


@pytest.fixture(scope="module")
def solved():
    """Memoized solver outcomes, keyed by (circuit, method)."""
    cache = {}

    def run(name: str, sg, method: str):
        key = (name, method)
        if key not in cache:
            cache[key] = solve_csc(sg, method=method)
        return cache[key]

    return run


# ----------------------------------------------------------------------
# The whole built-in suite: the solver must be a verified no-op
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def benchmark_graphs():
    cache = {}

    def get(name: str):
        if name not in cache:
            from repro.bench_suite import benchmark
            cache[name] = state_graph_of(benchmark(name))
        return cache[name]

    return get


@pytest.mark.parametrize("name", benchmark_names())
@pytest.mark.parametrize("method", CSC_METHODS)
def test_benchmark_suite_stays_clean(name, method, benchmark_graphs,
                                     solved):
    sg = benchmark_graphs(name)
    result = solved(name, sg, method)
    assert csc_violations(result.sg) == []
    assert result.inserted_signals == 0
    assert result.candidates_evaluated == 0
    # A clean input must come back untouched: same states, same codes,
    # same arcs (strictly stronger than conformance for the no-op
    # case, and much cheaper on the 1000+-state graphs).
    assert set(result.sg.states) == set(sg.states)
    for state in sg.states:
        assert result.sg.code(state) == sg.code(state)
        assert sorted(result.sg.successors(state), key=repr) == \
            sorted(sg.successors(state), key=repr)


@pytest.mark.parametrize("name", benchmark_names())
def test_benchmark_telemetry_diff(name, benchmark_graphs, solved):
    """Both methods agree on the (empty) work done for clean inputs."""
    sg = benchmark_graphs(name)
    telemetries = {method: solved(name, sg, method).stats()
                   for method in CSC_METHODS}
    assert telemetries["regions"] == telemetries["blocks"] == {
        "signals_inserted": 0, "candidates_evaluated": 0}


# ----------------------------------------------------------------------
# Conflicted circuits: full differential treatment
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(_CONFLICTED))
@pytest.mark.parametrize("method", CSC_METHODS)
class TestConflictedCircuits:
    def test_solver_reaches_zero_violations(self, name, method, solved):
        sg = _CONFLICTED[name]
        result = solved(name, sg, method)
        assert csc_violations(result.sg) == []
        assert result.inserted_signals >= 1
        report = check_speed_independence(result.sg)
        assert report.implementable, report.all_violations()[:3]

    def test_netlist_passes_si_check(self, name, method, solved):
        sg = _CONFLICTED[name]
        result = solved(name, sg, method)
        implementations = synthesize_all(result.sg)
        verify_implementation(result.sg, implementations)
        # every inserted signal has real logic in the netlist
        for signal in result.inserted_names:
            assert signal in implementations

    def test_solution_conforms_to_original(self, name, method, solved):
        sg = _CONFLICTED[name]
        result = solved(name, sg, method)
        hidden = set(result.inserted_names)
        assert hidden == set(result.sg.signals) - set(sg.signals)
        assert weakly_bisimilar(sg, result.sg, hidden)

    def test_steps_are_monotone(self, name, method, solved):
        sg = _CONFLICTED[name]
        result = solved(name, sg, method)
        for step in result.steps:
            assert step.conflicts_after < step.conflicts_before
            assert step.candidates_evaluated >= 1
        assert result.steps[-1].conflicts_after == 0


@pytest.mark.parametrize("name", sorted(_CONFLICTED))
def test_conflicted_telemetry_diff(name, solved):
    """Diff the two methods' telemetry on the same conflicted input.

    Both must solve; the regions method prices every step (``cost``)
    while the legacy method never does — the differential harness
    pins that contract so a silent method mix-up cannot hide.
    """
    sg = _CONFLICTED[name]
    by_method = {method: solved(name, sg, method)
                 for method in CSC_METHODS}
    for method, result in by_method.items():
        assert result.method == method
        assert result.stats()["signals_inserted"] == \
            result.inserted_signals
        assert result.stats()["candidates_evaluated"] == \
            sum(s.candidates_evaluated for s in result.steps)
    assert all(s.cost is not None for s in by_method["regions"].steps)
    assert all(s.cost is None for s in by_method["blocks"].steps)
