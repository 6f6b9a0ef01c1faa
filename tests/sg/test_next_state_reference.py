"""``next_state_ints`` against its per-code reference.

``next_state_ints`` collects the ON/OFF codes of a next-state function
from the value and excitation bitsets and, for a complete-cover
support (every signal but the one synthesized, in order), projects
them with one shift and mask per code.  The reference here is the
plain specification: classify every state by its implied value, check
the full codes for a clash, and re-pack each code onto the support
with :meth:`Encoding.project`.  The two must agree on the full
support, on every one-signal-dropped support and on an arbitrary
reordered subset — and raise the same :class:`CscViolation` on the
same graphs.
"""

import random
from typing import List, Sequence, Tuple

import pytest
from hypothesis import given, settings

from repro.bench_suite import benchmark, benchmark_names
from repro.errors import CscViolation
from repro.sg.encoding import next_state_ints
from repro.sg.graph import StateGraph
from repro.sg.reachability import state_graph_of
from tests.conftest import alternator_stg, chained_sequencer_stg
from tests.mapping.test_properties_hypothesis import handshake_sgs


def reference_next_state_ints(sg: StateGraph, signal: str,
                              support: Sequence[str]
                              ) -> Tuple[List[int], List[int]]:
    enc = sg.encoding()
    excited = enc.excited_bits(signal)
    vbit = 1 << enc.bit[signal]
    on, off = set(), set()
    for i, code in enumerate(enc.codes):
        implied = bool(code & vbit) ^ bool((excited >> i) & 1)
        (on if implied else off).add(code)
    clash = on & off
    if clash:
        sample = enc.unpack(min(clash))
        raise CscViolation(
            f"next-state function of {signal!r} is ill-defined on code "
            f"{sample!r} (CSC violation)")
    return (sorted({enc.project(code, support) for code in on}),
            sorted({enc.project(code, support) for code in off}))


def supports(sg: StateGraph, seed: int) -> List[Tuple[str, ...]]:
    """The full support, every one-signal-dropped support (in order),
    and one arbitrary reordered subset."""
    signals = tuple(sg.signals)
    out = [signals]
    out += [signals[:k] + signals[k + 1:] for k in range(len(signals))]
    rng = random.Random(seed)
    out.append(tuple(rng.sample(signals, rng.randint(1, len(signals)))))
    return out


def outcome(function, sg, signal, support):
    try:
        return function(sg, signal, support)
    except CscViolation as error:
        return ("CscViolation", str(error))


def assert_agrees(sg: StateGraph, seed: int = 0) -> None:
    for signal in sg.signals:
        for support in supports(sg, seed):
            assert (outcome(next_state_ints, sg, signal, support)
                    == outcome(reference_next_state_ints, sg, signal,
                               support)), (signal, support)


@given(handshake_sgs())
@settings(max_examples=40, deadline=None)
def test_handshake_graphs(sg):
    assert_agrees(sg)


@pytest.mark.parametrize("name", benchmark_names())
def test_suite_circuits(name):
    assert_agrees(state_graph_of(benchmark(name)), seed=len(name))


@pytest.mark.parametrize("stg", [chained_sequencer_stg(2),
                                 chained_sequencer_stg(3),
                                 alternator_stg(3)],
                         ids=["badseq", "seqcsc3", "alternator3"])
def test_conflicted_graphs_raise_the_same_violation(stg):
    sg = state_graph_of(stg)
    raised = 0
    for signal in sg.signals:
        for support in supports(sg, 7):
            got = outcome(next_state_ints, sg, signal, support)
            assert got == outcome(reference_next_state_ints, sg, signal,
                                  support)
            raised += isinstance(got, tuple) and got[0] == "CscViolation"
    assert raised
