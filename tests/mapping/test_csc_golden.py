"""Golden solver records: the full :class:`CscStep` list per circuit.

perfbench's csc-encode only sees totals (inserted signals, literals,
solved pairs), so a change to the candidate algebra that reordered the
candidates while keeping the totals would pass it unnoticed.  These
records pin every step — signal, chosen block label, conflicts before
and after, estimated cost and candidates evaluated — for chained
sequencers and alternators of 2–5 stages/outputs under both methods,
and at csc-encode sizes (6 under ``blocks``, 8 under ``regions``),
where large tie groups of equal split meet the top-24 cut.

Each row is ``(signal, block_label, conflicts_before, conflicts_after,
cost, candidates_evaluated)``.
"""

import pytest

from repro.mapping.csc import CscConfig, solve_csc
from repro.sg.reachability import state_graph_of
from tests.conftest import alternator_stg, chained_sequencer_stg

BUILDERS = {"seqcsc": chained_sequencer_stg, "alternator": alternator_stg}

GOLDEN = {
    "seqcsc2/blocks": [
        ("csc0", "after ai1+ until ai2+", 3, 1, None, 11),
        ("csc1", "after r- until ai1+", 1, 0, None, 10),
    ],
    "seqcsc2/regions": [
        ("csc0", "after ai1+ until ro2-", 3, 1, 2, 24),
        ("csc1", "after ai2+ until a-", 1, 0, 2, 24),
    ],
    "seqcsc3/blocks": [
        ("csc0", "after ai1- until ai3+", 6, 4, None, 1),
        ("csc1", "after ai1- until ai2+", 4, 3, None, 1),
        ("csc2", "after ai1+ until csc0+", 3, 1, None, 11),
        ("csc3", "after r- until ai1+", 1, 0, None, 10),
    ],
    "seqcsc3/regions": [
        ("csc0", "after ai1+ until ai3+", 6, 2, 2, 24),
        ("csc1", "after ai2+ until a-", 2, 0, 2, 24),
    ],
    "seqcsc4/blocks": [
        ("csc0", "after ai1- until ai3+", 10, 7, None, 1),
        ("csc1", "after r+ until ai2+", 7, 4, None, 1),
        ("csc2", "after r+ until ai1+", 4, 3, None, 1),
        ("csc3", "after ai4+ until r-", 3, 1, None, 12),
        ("csc4", "after ai3+ until ai4+", 1, 0, None, 12),
    ],
    "seqcsc4/regions": [
        ("csc0", "after ai1+ until ai3+", 10, 4, 2, 24),
        ("csc1", "after ai2+ until ro4-", 4, 1, 2, 24),
        ("csc2", "after ai4+ until a-", 1, 0, 2, 24),
    ],
    "seqcsc5/blocks": [
        ("csc0", "after ai1- until ai4+", 15, 9, None, 1),
        ("csc1", "after r+ until ai2+", 9, 5, None, 1),
        ("csc2", "after r+ until ai1+", 5, 4, None, 1),
        ("csc3", "after ai3- until ai5+", 4, 2, None, 1),
        ("csc4", "after ai3- until r-", 2, 1, None, 1),
        ("csc5", "after ai3+ until csc3+", 1, 0, None, 8),
    ],
    "seqcsc5/regions": [
        ("csc0", "after ai1+ until ai4+", 15, 6, 2, 24),
        ("csc1", "after ai3+ until ro5-", 6, 2, 2, 24),
        ("csc2", "after ai2+ until a-", 2, 0, 2, 24),
    ],
    "seqcsc6/blocks": [
        ("csc0", "after ai1- until ai4+", 21, 13, None, 1),
        ("csc1", "after r+ until ai2+", 13, 8, None, 1),
        ("csc2", "after ai6- until ai1+", 8, 5, None, 1),
        ("csc3", "after ai6- until r-", 5, 4, None, 1),
        ("csc4", "after ai3- until ai5+", 4, 2, None, 1),
        ("csc5", "after ai3- until ai6+", 2, 1, None, 1),
        ("csc6", "after ai3+ until csc4+", 1, 0, None, 8),
    ],
    "seqcsc8/regions": [
        ("csc0", "after ai1- until ro5-", 36, 21, 2, 24),
        ("csc1", "after ai3+ until ro8-", 21, 8, 2, 24),
        ("csc2", "after ai7+ until a-", 8, 4, 2, 24),
        ("csc3", "after ai1+ until ro2-", 4, 2, 2, 24),
        ("csc4", "after ai4+ until ro6-", 2, 0, 2, 24),
    ],
    "alternator2/blocks": [
        ("csc0", "after r- until o1-", 1, 0, None, 7),
    ],
    "alternator2/regions": [
        ("csc0", "after o1+ until o2-", 1, 0, 3, 24),
    ],
    "alternator3/blocks": [
        ("csc0", "after o1+ until o2-", 3, 1, None, 7),
        ("csc1", "after csc0- until r-", 1, 0, None, 3),
    ],
    "alternator3/regions": [
        ("csc0", "after o1+ until o2-", 3, 1, 3, 24),
        ("csc1", "after o3+ until csc0+", 1, 0, 2, 24),
    ],
    "alternator4/blocks": [
        ("csc0", "after o1+ until o3-", 6, 2, None, 5),
        ("csc1", "after o2+ until o4-", 2, 0, None, 3),
    ],
    "alternator4/regions": [
        ("csc0", "after o1+ until o3-", 6, 2, 3, 24),
        ("csc1", "after o2+ until o4-", 2, 0, 3, 24),
    ],
    "alternator5/blocks": [
        ("csc0", "after o1+ until o3-", 10, 4, None, 6),
        ("csc1", "after o2- until o4-", 4, 3, None, 1),
        ("csc2", "after o5- until o2-", 3, 2, None, 1),
        ("csc3", "after csc1- until r-", 2, 0, None, 2),
    ],
    "alternator5/regions": [
        ("csc0", "after o1+ until o3-", 10, 4, 3, 24),
        ("csc1", "after o2+ until o4-", 4, 1, 3, 24),
        ("csc2", "after o5+ until csc0+", 1, 0, 2, 24),
    ],
    "alternator6/blocks": [
        ("csc0", "after o1- until o4-", 15, 12, None, 1),
        ("csc1", "after o3- until o1+", 12, 9, None, 1),
        ("csc2", "after o3- until o5-", 9, 7, None, 1),
        ("csc3", "after o1- until o3+", 7, 4, None, 1),
        ("csc4", "after o1- until r-", 4, 3, None, 7),
        ("csc5", "after o6+ until o1-", 3, 1, None, 4),
        ("csc6", "after o2- until r-", 1, 0, None, 5),
    ],
    "alternator8/regions": [
        ("csc0", "after o1+ until o5-", 28, 12, 3, 24),
        ("csc1", "after o3+ until o7-", 12, 4, 3, 24),
        ("csc2", "after o2+ until o4-", 4, 2, 3, 24),
        ("csc3", "after o6+ until o8-", 2, 0, 3, 24),
    ],
}


@pytest.mark.parametrize("member", sorted(GOLDEN))
def test_solver_steps_match_golden_record(member):
    circuit, method = member.split("/")
    family = circuit.rstrip("0123456789")
    size = int(circuit[len(family):])
    sg = state_graph_of(BUILDERS[family](size))
    result = solve_csc(sg, config=CscConfig(method=method))
    assert [(step.signal, step.block_label, step.conflicts_before,
             step.conflicts_after, step.cost, step.candidates_evaluated)
            for step in result.steps] == GOLDEN[member]
