"""The pipeline reproduces the pre-refactor Table-1 battery exactly.

``_legacy_table1_row`` is a replica of the direct-call glue the
Table-1 row was built with before the pipeline existed; the regression
contract is that the pipeline's row equals it field for field, and that
the formatted table text is identical however the batch is executed.
"""

from typing import Dict, Optional, Tuple

import pytest

from repro.bench_suite import benchmark
from repro.mapping.cost import implementation_cost, non_si_cost
from repro.mapping.decompose import MapperConfig, map_circuit
from repro.pipeline import Pipeline, PipelineConfig, STAGES
from repro.report import Table1Row, render_report, run_battery
from repro.sg.reachability import state_graph_of
from repro.synthesis.cover import synthesize_all
from repro.synthesis.library import GateLibrary
from repro.synthesis.netlist import Netlist

FAST = ["half", "hazard", "chu133"]


def _legacy_table1_row(name, libraries=(2, 3, 4), config=None,
                       with_siegel=True) -> Table1Row:
    """The seed implementation: one flow re-run per battery entry."""
    stg = benchmark(name)
    sg = state_graph_of(stg)
    implementations = synthesize_all(sg)
    stats = Netlist(name, implementations).stats()

    inserted: Dict[int, Optional[int]] = {}
    si_cost: Optional[Tuple[int, int]] = None
    for k in libraries:
        result = map_circuit(sg, GateLibrary(k), config)
        inserted[k] = result.inserted_signals if result.success else None
        if k == 2 and result.success:
            si_cost = implementation_cost(result.implementations)

    siegel: Optional[int] = None
    if with_siegel:
        siegel_result = map_circuit(sg, GateLibrary(2),
                                    (config or MapperConfig()).local_ack())
        siegel = (siegel_result.inserted_signals
                  if siegel_result.success else None)

    return Table1Row(
        name=name,
        histogram=stats.histogram_row(7),
        inserted=inserted,
        siegel_2lit=siegel,
        non_si_cost=non_si_cost(implementations, 2),
        si_cost=si_cost,
    )


def _table(names, libraries, with_siegel, jobs):
    """Rows and report text, as ``si-mapper report`` prints them."""
    items = run_battery(names, libraries=libraries,
                        with_siegel=with_siegel, jobs=jobs)
    rows = [item.record.row for item in items if item.ok]
    failures = [(item.name, item.error) for item in items
                if not item.ok]
    return rows, render_report(rows, failures)


@pytest.mark.parametrize("name", FAST)
def test_row_identical_to_direct_calls(name):
    legacy = _legacy_table1_row(name, libraries=(2, 3),
                                with_siegel=True)
    pipelined = Pipeline(PipelineConfig(libraries=(2, 3),
                                        with_siegel=True)).run(name).row
    assert pipelined == legacy


def test_table_text_identical_serial_vs_parallel():
    serial = _table(FAST, libraries=(2,), with_siegel=True, jobs=1)
    parallel = _table(FAST, libraries=(2,), with_siegel=True, jobs=2)
    assert serial[1] == parallel[1]
    assert serial[0] == parallel[0]


def test_table_survives_one_bad_circuit():
    rows, text = _table(["half", "no-such-circuit"], libraries=(2,),
                        with_siegel=False, jobs=1)
    assert [row.name for row in rows] == ["half"]
    assert "no-such-circuit: ERROR" in text


def test_run_record_telemetry():
    record = Pipeline(PipelineConfig(libraries=(2,),
                                     with_siegel=False)).run("half")
    stages = [timing.stage for timing in record.timings]
    assert stages == ["load", "reach", "synthesize", "map", "report"]
    assert all(stage in STAGES for stage in stages)
    assert record.total_seconds > 0
    assert record.row.name == "half"
    assert "ms" in record.timing_summary()
    assert record.mappings and (2, "global") in record.mappings
