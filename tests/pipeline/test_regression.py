"""The pipeline reproduces the pre-refactor Table-1 battery exactly.

``_legacy_table1_row`` is a verbatim replica of the direct-call glue
that ``repro.report.table1_row`` used before the pipeline existed; the
regression contract is that the pipeline's row equals it field for
field, and that the formatted table text is identical however the
batch is executed.
"""

from typing import Dict, Optional, Tuple

import pytest

from repro.baselines.local_ack import map_local_ack
from repro.bench_suite import benchmark
from repro.mapping.cost import implementation_cost, non_si_cost
from repro.mapping.decompose import map_circuit
from repro.pipeline import Pipeline, PipelineConfig, STAGES
from repro.report import Table1Row, table1, table1_row
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
        siegel_result = map_local_ack(sg, GateLibrary(2), config)
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


@pytest.mark.parametrize("name", FAST)
def test_row_identical_to_direct_calls(name):
    legacy = _legacy_table1_row(name, libraries=(2, 3),
                                with_siegel=True)
    pipelined = table1_row(name, libraries=(2, 3), with_siegel=True)
    assert pipelined == legacy


def test_table_text_identical_serial_vs_parallel():
    serial = table1(names=FAST, libraries=(2,), with_siegel=True,
                    jobs=1)
    parallel = table1(names=FAST, libraries=(2,), with_siegel=True,
                      jobs=2)
    assert serial[1] == parallel[1]
    assert serial[0] == parallel[0]


def test_table_survives_one_bad_circuit():
    rows, text = table1(names=["half", "no-such-circuit"],
                        libraries=(2,), with_siegel=False, jobs=1)
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
