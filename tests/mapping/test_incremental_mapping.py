"""The mapping loop with incremental resynthesis: identical decisions
and netlists to the legacy full pass, plus the telemetry contract."""

import os
import subprocess
import sys

import pytest

from repro.bench_suite import benchmark
from repro.mapping.decompose import MapperConfig, map_circuit
from repro.synthesis.library import GateLibrary

#: small enough for tier-1, large enough that trials are rejected and
#: (for the join circuits) covers are carried over
FAST = ["half", "hazard", "chu133", "seq_mix", "trimos-send"]


def _map(name, incremental, literals=2):
    return map_circuit(benchmark(name), GateLibrary(literals),
                       MapperConfig(incremental_resynthesis=incremental))


class TestIdenticalToFullResynthesis:
    @pytest.mark.parametrize("name", FAST)
    def test_steps_potentials_netlists_identical(self, name):
        full = _map(name, incremental=False)
        incremental = _map(name, incremental=True)
        assert ([s.decision() for s in incremental.steps]
                == [s.decision() for s in full.steps])
        assert incremental.success == full.success
        assert incremental.message == full.message
        assert incremental.netlist.pretty() == full.netlist.pretty()
        assert (incremental.initial_netlist.pretty()
                == full.initial_netlist.pretty())

    def test_local_mode_identical(self):
        full = map_circuit(
            benchmark("hazard"), GateLibrary(2),
            MapperConfig(incremental_resynthesis=False).local_ack())
        incremental = map_circuit(
            benchmark("hazard"), GateLibrary(2),
            MapperConfig(incremental_resynthesis=True).local_ack())
        assert ([s.decision() for s in incremental.steps]
                == [s.decision() for s in full.steps])
        assert incremental.netlist.pretty() == full.netlist.pretty()


class TestTelemetry:
    def test_early_abort_skips_rejected_candidates(self):
        result = _map("trimos-send", incremental=True)
        assert result.success
        assert result.trial_skipped > 0
        assert result.trial_resynthesized > 0

    def test_legacy_mode_never_skips_or_reuses(self):
        result = _map("trimos-send", incremental=False)
        assert result.trial_skipped == 0
        assert result.trial_reused == 0
        assert result.trial_resynthesized > 0

    def test_step_counters_cover_all_outputs(self):
        result = _map("hazard", incremental=True)
        for step in result.steps:
            assert step.resynthesized + step.reused > 0
        assert (result.signals_resynthesized + result.signals_reused
                == sum(s.resynthesized + s.reused for s in result.steps))


class TestConfig:
    def test_local_ack_carries_every_field(self):
        """Regression: the hand-copied field list silently dropped new
        config fields; dataclasses.replace must carry them all."""
        config = MapperConfig(incremental_resynthesis=False,
                              max_divisors=7, signal_prefix="q")
        local = config.local_ack()
        assert local.global_acknowledgment is False
        assert local.incremental_resynthesis is False
        assert local.max_divisors == 7
        assert local.signal_prefix == "q"


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
            "from repro.mapping.decompose import MapperConfig, map_circuit\n"
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
            "map_circuit(sg, GateLibrary(2), MapperConfig(max_iterations=1),\n"
            "            implementations)\n"
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
