"""The mapping loop against the paper's full pass: the bound-first
evaluation makes the decisions and netlists of the reference
(:class:`tests.mapping.full_pass.FullPassMapper`), plus the telemetry
contract."""

import os
import subprocess
import sys
from dataclasses import fields

import pytest

from repro.bench_suite import benchmark
from repro.mapping.csc import solve_csc
from repro.mapping.decompose import (MapperConfig, TechnologyMapper,
                                     map_circuit)
from repro.sg.reachability import state_graph_of
from repro.synthesis.library import GateLibrary
from tests.conftest import alternator_stg
from tests.mapping.full_pass import full_pass_map

#: small enough for tier-1, large enough that trials are rejected
FAST = ["half", "hazard", "chu133", "seq_mix", "trimos-send"]


def assert_same_mapping(got, want):
    assert ([s.decision() for s in got.steps]
            == [s.decision() for s in want.steps])
    assert got.success == want.success
    assert got.message == want.message
    assert got.netlist.pretty() == want.netlist.pretty()


class TestIdenticalToFullResynthesis:
    @pytest.mark.parametrize("name", FAST)
    def test_steps_potentials_netlists_identical(self, name):
        assert_same_mapping(
            map_circuit(benchmark(name), GateLibrary(2)),
            full_pass_map(benchmark(name), GateLibrary(2)))

    @pytest.mark.parametrize("name", ["hazard", "seq_mix", "trimos-send"])
    def test_local_mode_identical(self, name):
        """Local acknowledgment: the early refusal of trials whose
        inserted signal is essential elsewhere changes no decision."""
        config = MapperConfig().local_ack()
        assert_same_mapping(
            map_circuit(benchmark(name), GateLibrary(2), config),
            full_pass_map(benchmark(name), GateLibrary(2), config))


@pytest.fixture(scope="module")
def solved_alternators():
    """``alternator_stg(n)`` for n = 5 and 6, CSC-solved by ``blocks``
    as ``si-mapper map --solve-csc`` solves it."""
    return {outputs: solve_csc(state_graph_of(alternator_stg(outputs)),
                               method="blocks").sg
            for outputs in (5, 6)}


class TestCscSolvedAlternators:
    """Carrying a cover over from the graph before an insertion once
    priced these potentials too high: a carried cover cannot mention
    the inserted signal, a fresh minimization can.  Every trial output
    is synthesized fresh now, as in the full pass."""

    @pytest.mark.parametrize("local", [False, True],
                             ids=["global", "local"])
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("outputs", [5, 6])
    def test_same_as_full_pass(self, solved_alternators, outputs, k,
                               local):
        config = MapperConfig().local_ack() if local else MapperConfig()
        sg = solved_alternators[outputs]
        assert_same_mapping(map_circuit(sg, GateLibrary(k), config),
                            full_pass_map(sg, GateLibrary(k), config))

    def test_alternator5_maps_with_three_signals_at_k3(
            self, solved_alternators):
        result = map_circuit(solved_alternators[5], GateLibrary(3))
        assert result.success
        assert result.inserted_signals == 3


class TestTelemetry:
    def test_early_abort_skips_rejected_candidates(self):
        result = map_circuit(benchmark("trimos-send"), GateLibrary(2))
        assert result.success
        assert result.trial_skipped > 0
        assert result.trial_resynthesized > 0

    def test_bound_synthesizes_less_than_the_full_pass(self):
        bounded = map_circuit(benchmark("trimos-send"), GateLibrary(2))
        full = full_pass_map(benchmark("trimos-send"), GateLibrary(2))
        assert full.trial_skipped == 0
        assert 0 < bounded.trial_resynthesized < full.trial_resynthesized

    def test_trial_counters_cover_every_output(self):
        """Every output of every evaluated trial is counted once:
        synthesized, or skipped when the trial was rejected first."""
        outputs = []

        class CountingMapper(TechnologyMapper):
            def _evaluate_candidate(self, new_sg, *args):
                outputs.append(len(new_sg.outputs))
                return super()._evaluate_candidate(new_sg, *args)

        result = CountingMapper(GateLibrary(2)).map(benchmark("hazard"))
        assert outputs
        assert (result.trial_resynthesized + result.trial_skipped
                == sum(outputs))


class TestConfig:
    def test_local_ack_carries_every_field(self):
        """Regression: the hand-copied field list silently dropped new
        config fields; dataclasses.replace must carry them all."""
        config = MapperConfig(max_divisors=7, max_neutral_steps=3,
                              use_progress_filters=False, solve_csc=True,
                              csc_method="regions")
        local = config.local_ack()
        assert local.global_acknowledgment is False
        carried = [field for field in fields(MapperConfig)
                   if field.name != "global_acknowledgment"]
        for field in carried:
            assert (getattr(local, field.name)
                    == getattr(config, field.name) != field.default)


class TestDeterminism:
    def test_netlist_stable_across_hash_seeds(self):
        """Regression: monotonicity repair used to iterate a raw set of
        quiescent states, making the repaired cover depend on the
        interpreter's hash seed."""
        script = (
            "from repro.bench_suite import benchmark\n"
            "from repro.mapping.decompose import map_circuit\n"
            "from repro.synthesis.library import GateLibrary\n"
            "r = map_circuit(benchmark('hazard'), GateLibrary(2))\n"
            "print(r.netlist.pretty())\n"
        )
        outputs = set()
        for seed in ("0", "1", "424242"):
            src = os.path.join(os.path.dirname(__file__), "..", "..",
                               "src")
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, timeout=300,
                env={"PYTHONPATH": os.path.abspath(src),
                     "PYTHONHASHSEED": seed})
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1

    def test_minimize_inputs_stable_across_hash_seeds(self):
        """Regression: monotonicity repair visited quiescent states in
        ``repr`` order, and STG states are Petri-net markings —
        frozensets whose ``repr`` follows string hashing — so mr1's
        repairs forced different codes OFF under different seeds.  The
        whole sequence of minimizer inputs (mr1's initial synthesis plus
        one k=2 mapper step) must be one and the same.  So must every
        I-partition grown on the way (partition growth used to visit
        region states in ``repr`` order too) — as index lists, or the
        error type when growth fails — and a CSC solve of
        ``examples/badseq.g`` under both candidate methods."""
        script = (
            "import hashlib, importlib, sys\n"
            "from repro.bench_suite import benchmark\n"
            "import repro.mapping.csc as csc\n"
            "import repro.mapping.partition as partition\n"
            "import repro.mapping.decompose as decompose\n"
            "from repro.sg.reachability import state_graph_of\n"
            "from repro.stg.parser import parse_g\n"
            "from repro.synthesis.cover import synthesize_all\n"
            "from repro.synthesis.library import GateLibrary\n"
            "original = importlib.import_module("
            "'repro.boolean.minimize').minimize\n"
            "digest = hashlib.sha256()\n"
            "def spy(on, off, support=None, *args, **kwargs):\n"
            "    digest.update(repr((list(on), list(off),\n"
            "                        list(support or ()))).encode())\n"
            "    return original(on, off, support, *args, **kwargs)\n"
            "for module in list(sys.modules.values()):\n"
            "    if (getattr(module, '__name__', '').startswith('repro')\n"
            "            and getattr(module, 'minimize', None) is original):\n"
            "        module.minimize = spy\n"
            "grow = partition.compute_insertion_sets_from_states\n"
            "def grow_spy(sg, ones, *args, **kwargs):\n"
            "    def indices(bits):\n"
            "        return [i for i in range(len(sg)) if bits >> i & 1]\n"
            "    try:\n"
            "        p = grow(sg, ones, *args, **kwargs)\n"
            "    except Exception as error:\n"
            "        digest.update(repr((indices(ones),\n"
            "                            type(error).__name__)).encode())\n"
            "        raise\n"
            "    digest.update(repr([indices(b) for b in (ones,\n"
            "        p.er_plus, p.er_minus, p.s1, p.s0)]).encode())\n"
            "    return p\n"
            "partition.compute_insertion_sets_from_states = grow_spy\n"
            "csc.compute_insertion_sets_from_states = grow_spy\n"
            "sg = state_graph_of(benchmark('mr1'))\n"
            "implementations = synthesize_all(sg)\n"
            "decompose.MAX_ITERATIONS = 1\n"
            "decompose.map_circuit(sg, GateLibrary(2),\n"
            "                      implementations=implementations)\n"
            "with open(sys.argv[1]) as handle:\n"
            "    badseq = state_graph_of(parse_g(handle.read()))\n"
            "for method in csc.CSC_METHODS:\n"
            "    result = csc.solve_csc(badseq, method=method)\n"
            "    digest.update(repr((result.steps, len(result.sg)))"
            ".encode())\n"
            "print(digest.hexdigest())\n"
        )
        root = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                            "..", ".."))
        src = os.path.join(root, "src")
        badseq = os.path.join(root, "examples", "badseq.g")
        digests = set()
        for seed in ("0", "9", "13"):
            proc = subprocess.run(
                [sys.executable, "-c", script, badseq],
                capture_output=True, text=True, timeout=300,
                env={"PYTHONPATH": src, "PYTHONHASHSEED": seed})
            assert proc.returncode == 0, proc.stderr
            digests.add(proc.stdout)
        assert len(digests) == 1
