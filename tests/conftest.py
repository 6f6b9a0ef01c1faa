"""Suite-wide pytest configuration.

Pins a derandomized Hypothesis profile so property-based tests are
reproducible in CI: no wall-clock deadline (the solver's worst case is
data-dependent, not a regression signal) and examples derived from a
fixed seed.  Set ``HYPOTHESIS_PROFILE=dev`` locally to explore with
fresh random examples instead.
"""

import os

import pytest
from hypothesis import settings

settings.register_profile("ci", deadline=None, derandomize=True,
                          print_blob=True)
settings.register_profile("dev", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture
def traffic():
    """The cache and store traffic the test's own thread counts from
    here on, as the 18 ``RunRecord.stats`` counters: call it for the
    counts so far.  Traffic counted on other threads (daemon handlers,
    job workers) never shows; read a fresh registry for that."""
    from repro.obs.metrics import close_journal, open_journal
    from repro.pipeline.store import traffic_stats
    journal = open_journal()
    yield lambda: traffic_stats(journal)
    close_journal()


def chained_sequencer_stg(stages: int = 2):
    """One request serialized into ``stages`` chained handshakes — the
    textbook CSC-violation family (every unobserved phase repeat is a
    conflict).  Shared by the CSC solver tests, the differential
    harness, the store tests and the CLI tests; ``stages=2`` is the
    classic "badseq".
    """
    from repro.stg.builders import marked_graph
    arcs = [("r+", "ro1+")]
    for i in range(1, stages + 1):
        arcs += [(f"ro{i}+", f"ai{i}+"), (f"ai{i}+", f"ro{i}-"),
                 (f"ro{i}-", f"ai{i}-")]
        if i < stages:
            arcs.append((f"ai{i}-", f"ro{i + 1}+"))
    arcs += [(f"ai{stages}-", "a+"), ("a+", "r-"), ("r-", "a-")]
    return marked_graph(
        "badseq" if stages == 2 else f"seqcsc{stages}",
        ["r"] + [f"ai{i}" for i in range(1, stages + 1)],
        ["a"] + [f"ro{i}" for i in range(1, stages + 1)],
        arcs, [("a-", "r+")])


def alternator_stg(outputs: int = 2):
    """One input handshaking with ``outputs`` outputs in turn: the ``r``
    phases repeat unobserved, so ``outputs`` states share each code
    while enabling different outputs.  Signals ``r`` and ``o1..on``,
    the same circuit as perfbench's csc-encode ``alternator<n>``.
    """
    from repro.stg.builders import marked_graph

    def edge(sign: str, i: int) -> str:
        return f"r{sign}" if i == 1 else f"r{sign}/{i}"

    arcs = []
    for i in range(1, outputs + 1):
        arcs += [(edge("+", i), f"o{i}+"), (f"o{i}+", edge("-", i)),
                 (edge("-", i), f"o{i}-")]
        if i < outputs:
            arcs.append((f"o{i}-", edge("+", i + 1)))
    return marked_graph(f"alternator{outputs}", ["r"],
                        [f"o{i}" for i in range(1, outputs + 1)], arcs,
                        [(f"o{outputs}-", "r+")])
