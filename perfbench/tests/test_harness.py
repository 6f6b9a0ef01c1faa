"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q

They cover the percentile rule, seeded input generation, the span
wrappers, the output oracle, and a seconds-long smoke configuration of
every workload run end to end through ``run.py``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from harness import inputs, metrics, oracle
from harness.spans import LAYERS, PRELOAD, SpanRecorder
from harness.stats import median, percentile

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def test_percentile_needs_ten_samples_beyond():
    with pytest.raises(ValueError):
        percentile(list(range(100)), 95)       # 5 beyond
    with pytest.raises(ValueError):
        percentile(list(range(3)), 95)         # p95 of 3 = their max
    assert percentile(list(range(1, 201)), 95) == 190   # 10 beyond
    assert percentile(list(range(1, 21)), 50) == 10
    assert median([3.0, 1.0, 2.0]) == 2.0


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

def test_table1_battery_accounts_for_the_whole_suite():
    from repro.bench_suite import benchmark_names
    chosen, excluded = set(inputs.TABLE1_CIRCUITS), set(
        inputs.TABLE1_EXCLUDED)
    assert not chosen & excluded
    assert chosen | excluded == set(benchmark_names())
    assert len(chosen) == 22


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_inputs_are_deterministic_per_seed(seed):
    assert inputs.table1_inputs(seed) == inputs.table1_inputs(seed)
    assert inputs.csc_inputs(seed) == inputs.csc_inputs(seed)
    plan = inputs.SERVICE_PLAN
    assert inputs.service_inputs(seed, plan) == \
        inputs.service_inputs(seed, plan)


def test_seeds_permute_but_keep_the_input_set():
    one, two = inputs.table1_inputs(1), inputs.table1_inputs(2)
    assert [name for name, _ in one] != [name for name, _ in two]
    assert sorted(one) == sorted(two)
    csc_one, csc_two = inputs.csc_inputs(1), inputs.csc_inputs(2)
    assert csc_one != csc_two
    assert sorted(csc_one, key=lambda m: m.label) == \
        sorted(csc_two, key=lambda m: m.label)
    assert len(csc_one) == 32


def test_no_input_repeats_inside_a_run():
    assert len({name for name, _ in inputs.table1_inputs(3)}) == 22
    assert len({m.label for m in inputs.csc_inputs(3)}) == 32
    arrivals, batches = inputs.service_inputs(3, inputs.SERVICE_PLAN)
    burst = [arrival for batch in batches for arrival in batch]
    fresh = [a.name for a in arrivals + burst
             if a.kind in ("fresh", "burst")]
    assert len(fresh) == len(set(fresh))
    # duplicates repeat an earlier fresh job, never a new circuit
    seen = set()
    for arrival in arrivals:
        if arrival.kind == "fresh":
            seen.add(arrival.name)
        else:
            assert arrival.name in seen
    kinds = {a.kind for a in arrivals}
    assert kinds == {"fresh", "hot", "cold"}


def test_every_seed_gets_the_same_burst_circuits():
    # the service's counts are taken over the burst, so its circuits
    # must not depend on the seed
    plan = inputs.SERVICE_PLAN
    rounds = plan.batch // len(inputs.SERVICE_BASES)
    for seed in (1, 2):
        _, batches = inputs.service_inputs(seed, plan)
        assert len(batches) == plan.batches
        for batch in batches:
            assert sorted(a.base for a in batch) == \
                sorted(inputs.SERVICE_BASES * rounds)


def test_renamed_changes_only_the_model_line():
    text = inputs.suite_text("half")
    other = inputs.renamed(text, "x-half")
    assert other.splitlines()[0] == ".model x-half"
    assert other.splitlines()[1:] == text.splitlines()[1:]


def test_table1_counts_split_solved_and_ni_cells():
    from repro.report import Table1Row
    row = Table1Row(name="x", histogram=[0] * 6,
                    inserted={2: None, 3: 1, 4: 0}, siegel_2lit=2,
                    non_si_cost=(5, 1), si_cost=None)
    assert metrics.table1_counts(row) == {
        "inserted_signals": 3, "si_area": 0, "solved_cells": 3,
        "ni_cells": 1}
    row.siegel_ran, row.siegel_2lit = False, None
    row.inserted[2], row.si_cost = 2, (7, 1)
    assert metrics.table1_counts(row) == {
        "inserted_signals": 3, "si_area": 7, "solved_cells": 3,
        "ni_cells": 0}


# ----------------------------------------------------------------------
# span wrappers
# ----------------------------------------------------------------------

def _bindings():
    """(module, attribute) -> object for every repro module attribute
    that is one of the wrapped functions."""
    import importlib
    for name in PRELOAD:
        importlib.import_module(name)
    targets = []
    for entries in LAYERS.values():
        for module_name, qualname in entries:
            owner = importlib.import_module(module_name)
            for part in qualname.split("."):
                owner = getattr(owner, part)
            targets.append(owner)
    found = {}
    for name, module in sorted(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in vars(module).items():
            if any(value is target for target in targets):
                found[(name, attr)] = value
    return found


def test_wrappers_install_and_uninstall_cleanly():
    from repro.mapping.decompose import TechnologyMapper
    original_map = TechnologyMapper.map
    originals = _bindings()
    # the names callers import directly are bindings too
    for binding in (("repro.synthesis.cover", "minimize"),
                    ("repro.mapping.decompose", "insert_signal"),
                    ("repro.mapping.csc", "insert_signal"),
                    ("repro.mapping", "solve_csc")):
        assert binding in originals
    recorder = SpanRecorder()
    recorder.install()
    try:
        for (module, attr), function in originals.items():
            wrapper = getattr(sys.modules[module], attr)
            assert wrapper is not function
            assert wrapper.__wrapped__ is function
        assert TechnologyMapper.map.__wrapped__ is original_map
        with pytest.raises(RuntimeError):
            recorder.install()
    finally:
        recorder.uninstall()
    assert _bindings() == originals
    assert TechnologyMapper.map is original_map
    assert recorder.bindings == []


def test_traced_row_equals_untraced_row():
    from repro.pipeline import Pipeline, PipelineConfig
    text = inputs.suite_text("hazard")
    config = PipelineConfig(libraries=(2, 3, 4), with_siegel=True)
    plain = Pipeline(config).run(("hazard", text)).row.to_json()
    recorder = SpanRecorder()
    recorder.install()
    recorder.active = True
    try:
        traced = Pipeline(config).run(("hazard", text)).row.to_json()
    finally:
        recorder.uninstall()
    assert traced == plain
    totals = recorder.layer_totals()
    assert totals["pipeline.run"]["calls"] == 1
    assert totals["mapping.decompose"]["calls"] == 4
    assert totals["boolean.minimize"]["calls"] > 0
    # self times never exceed the run they sit in
    run_span = [s for s in recorder.spans if s[2] == "pipeline.run"][0]
    inside = sum(entry["self_s"] for layer, entry in totals.items()
                 if layer != "runs")
    assert inside <= (run_span[5] - run_span[4]) * 1.0001


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------

def test_service_row_check_ignores_only_the_name():
    reference = oracle.reference_rows({"half": inputs.suite_text("half")})
    good = json.loads(reference["half"])
    good["name"] = "s1-fresh0001-half"
    payload = (json.dumps(good, sort_keys=True) + "\n").encode()
    assert oracle.check_service_row(payload, "s1-fresh0001-half",
                                    reference["half"]) == []
    good["si_cost"] = [99, 0]
    payload = (json.dumps(good, sort_keys=True) + "\n").encode()
    assert oracle.check_service_row(payload, "s1-fresh0001-half",
                                    reference["half"])
    assert oracle.check_service_row(None, "x", reference["half"])


def test_gate_bound_check_flags_oversized_gates():
    from repro.pipeline import Pipeline, PipelineConfig
    record = Pipeline(PipelineConfig(libraries=(2,))).run(
        ("hazard", inputs.suite_text("hazard")))
    initial = record.context.implementations()
    assert oracle.gate_bound_violations(initial, 2)     # 3-literal gate
    assert oracle.gate_bound_violations(initial, 3) == []
    assert oracle.check_table1(record) == []


# ----------------------------------------------------------------------
# the declared metrics and the end-to-end smoke runs
# ----------------------------------------------------------------------

def test_benchmark_json_declares_the_harness_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert [w["name"] for w in declared["workloads"]] == \
        list(metrics.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == \
        metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == \
        metrics.PER_LAYER


def _run(workload, *extra, cwd=ROOT):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
               "--workload", workload, "--seed", "5", "--seconds", "5",
               *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True,
                          timeout=170)


@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_smoke_run_passes_its_oracle(workload):
    completed = _run(workload, "--trace", "0", "--smoke")
    assert completed.returncode == 0, completed.stderr.decode()[-2000:]
    result = json.loads(completed.stdout.decode().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    # every workload reports every end-to-end metric, none of them 0
    assert list(result["metrics"]) == list(metrics.END_TO_END)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == metrics.END_TO_END[name]
        assert entry["value"] > 0, name


def test_traced_smoke_run_reports_every_layer_metric():
    completed = _run("table1-cold", "--trace", "1", "--smoke")
    assert completed.returncode == 0, completed.stderr.decode()[-2000:]
    result = json.loads(completed.stdout.decode().splitlines()[-1])
    assert result["correct"] is True
    assert {name: entry["unit"] for name, entry in
            result["metrics"].items()} == metrics.PER_LAYER
    assert result["metrics"]["boolean.minimize_calls"]["value"] > 0
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("table1-cold", "--trace", "0", cwd=str(tmp_path))
    assert completed.returncode != 0
    assert completed.stdout.strip() == b""
