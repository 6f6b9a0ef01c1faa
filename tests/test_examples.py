"""Smoke tests: every example script must run to completion."""

import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: int = 600) -> str:
    script = EXAMPLES / name
    assert script.exists(), f"missing example {name}"
    # The subprocess does not inherit pytest's `pythonpath` setting.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(EXAMPLES.parent / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, timeout=timeout, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "verified: speed-independent" in out


def test_hazard_walkthrough():
    out = run_example("hazard_walkthrough.py")
    assert "REJECTED" in out           # the illegal-diamond case
    assert "insertable" in out
    assert "speed-independence verified" in out


def test_custom_library():
    out = run_example("custom_library.py")
    assert "i = 2:" in out and "i = 4:" in out


def test_parallel_suite():
    out = run_example("parallel_suite.py")
    assert "circuit" in out                      # the Table-1 header
    assert "reach passes=1" in out               # shared artifacts
    assert "FAILED" not in out


def test_distributed_suite():
    out = run_example("distributed_suite.py")
    assert "merged == single-machine report: True" in out
    assert "warm re-run of shard 2:" in out
    # the warm shard computes nothing and reads everything remotely
    warm = out.rstrip().splitlines()[-1]
    assert warm.startswith("  reach passes computed: 0, remote hits:")
    assert not warm.endswith(" 0")


@pytest.mark.slow
def test_vbe10b_decomposition():
    out = run_example("vbe10b_decomposition.py", timeout=1800)
    assert "before decomposition" in out
    assert "global acknowledgment" in out


def test_badseq_example_is_the_chained_sequencer():
    """README's CSC commands run on ``examples/badseq.g``: the two-stage
    chained sequencer, with 12 states and 3 CSC conflict pairs."""
    from repro.mapping.csc import csc_conflicts
    from repro.sg.reachability import state_graph_of
    from repro.stg.parser import parse_g
    from repro.stg.writer import write_g
    from tests.conftest import chained_sequencer_stg

    text = (EXAMPLES / "badseq.g").read_text()
    assert text == write_g(chained_sequencer_stg())
    sg = state_graph_of(parse_g(text))
    assert (len(sg), len(csc_conflicts(sg))) == (12, 3)


def test_seqcsc6_example_is_the_six_stage_sequencer():
    """CI's larger CSC smoke runs on ``examples/seqcsc6.g``: the
    six-stage chained sequencer, with 28 states and 21 CSC conflict
    pairs."""
    from repro.mapping.csc import csc_conflicts
    from repro.sg.reachability import state_graph_of
    from repro.stg.parser import parse_g
    from repro.stg.writer import write_g
    from tests.conftest import chained_sequencer_stg

    text = (EXAMPLES / "seqcsc6.g").read_text()
    assert text == write_g(chained_sequencer_stg(6))
    sg = state_graph_of(parse_g(text))
    assert (len(sg), len(csc_conflicts(sg))) == (28, 21)
