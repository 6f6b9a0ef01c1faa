"""The complement bound changes no result.

``minimize_complement`` skips minimizing a gate's complement when the
essential-variable bound shows it cannot be the cheaper polarity.  The
reference here patches it to always minimize, as the synthesis flow
did before the bound: every unit's complexity, chosen polarity and
combinational choice, the CSC solve of ``examples/badseq.g`` and the
trimos-send mapping must be the reference's.
"""

import os
from unittest import mock

import pytest

from repro.bench_suite import benchmark
from repro.boolean.minimize import (cheaper_polarity, minimize,
                                    minimize_memo)
from repro.mapping.csc import solve_csc
from repro.mapping.decompose import map_circuit
from repro.sg.reachability import state_graph_of
from repro.stg.parser import parse_g
from repro.synthesis import cover as cover_module
from repro.synthesis.cover import synthesize_all
from repro.synthesis.library import GateLibrary

BADSEQ = os.path.join(os.path.dirname(__file__), "..", "..", "examples",
                      "badseq.g")


def always_minimize():
    """Route the flow's complement minimizations around the bound."""
    def reference(on, off, support, cover):
        return minimize(off, on, support)
    return mock.patch.object(cover_module, "minimize_complement",
                             reference)


def units(implementations):
    """Per unit: its complexity, whether the complement is the chosen
    polarity, and (per signal) the combinational choice."""
    rows = []
    for signal, impl in sorted(implementations.items()):
        complete = None
        if impl.complete is not None:
            chosen = cheaper_polarity(impl.complete,
                                      impl.complete_complement)
            complete = (impl.complete_complexity,
                        chosen is impl.complete_complement)
        rows.append((signal, impl.is_combinational, complete))
        for rc in impl.region_covers:
            chosen = cheaper_polarity(rc.cover, rc.complement)
            rows.append((rc.event, tuple(r.index for r in rc.regions),
                         rc.complexity, chosen is rc.complement))
    return rows


def badseq_solved():
    with open(BADSEQ, encoding="utf-8") as handle:
        sg = state_graph_of(parse_g(handle.read()))
    return solve_csc(sg)


@pytest.mark.parametrize("name", ["hazard", "seq_mix", "trimos-send",
                                  "mmu"])
def test_units_match_always_minimize(name):
    sg = state_graph_of(benchmark(name))
    with minimize_memo() as memo:
        production = units(synthesize_all(sg))
    with always_minimize(), minimize_memo() as reference_memo:
        reference = units(synthesize_all(sg))
    assert production == reference
    # the bound fired, and the reference minimized every complement
    assert memo.skipped > 0
    assert reference_memo.skipped == 0


def test_csc_solved_badseq_matches_always_minimize():
    solved = badseq_solved()
    with always_minimize():
        reference = badseq_solved()
    assert solved.steps == reference.steps
    assert units(synthesize_all(solved.sg)) \
        == units(synthesize_all(reference.sg))


def test_trimos_send_mapping_matches_always_minimize():
    production = map_circuit(benchmark("trimos-send"), GateLibrary(2))
    with always_minimize():
        reference = map_circuit(benchmark("trimos-send"), GateLibrary(2))
    assert ([step.decision() for step in production.steps]
            == [step.decision() for step in reference.steps])
    assert production.netlist.pretty() == reference.netlist.pretty()
