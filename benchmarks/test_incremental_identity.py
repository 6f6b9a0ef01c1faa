"""The mapper against the paper's full pass, through the pipeline.

The mapping loop synthesizes every output of the trials its bound keeps
from scratch, so its decisions are those of the paper's "resynthesize
everything from scratch" pass by construction.  This harness checks
that against the full-pass reference (``tests/mapping/full_pass.py``),
run through the same :class:`~repro.pipeline.Pipeline` with the
synthesis context building the reference mapper instead:

* the representative suite subset (all 32 circuits with
  ``REPRO_FULL_TABLE1=1``) under the Table-1 battery;
* the generated CSC-conflicted families, chained sequencers and
  alternators of 2 to 7 stages, solved by both CSC candidate methods
  and mapped at k = 2 and 3 in both acknowledgment modes.

Rows, steps, netlists, success and message must be equal.  The run
also prints how much trial synthesis the bound saved.

Run: ``PYTHONPATH=src python -m pytest
benchmarks/test_incremental_identity.py --benchmark-disable -s``
"""

import pathlib
import sys

import pytest

import repro.pipeline.context as context
from repro.mapping.decompose import MapperConfig
from repro.pipeline import ArtifactCache, Pipeline, PipelineConfig
from repro.stg.writer import write_g

# the tests package holds the reference and the generated families;
# plain ``pytest benchmarks/`` puts only this directory on the path
ROOT = str(pathlib.Path(__file__).resolve().parent.parent)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from tests.conftest import alternator_stg, chained_sequencer_stg  # noqa: E402
from tests.mapping.full_pass import FullPassMapper  # noqa: E402

from conftest import selected_names  # noqa: E402


def _run(monkeypatch, source, full_pass, **config):
    with monkeypatch.context() as patch:
        if full_pass:
            patch.setattr(context, "TechnologyMapper", FullPassMapper)
        return Pipeline(PipelineConfig(keep_artifacts=True, **config),
                        cache=ArtifactCache()).run(source)


def _assert_same_runs(monkeypatch, source, label, **config):
    """Run both mappers; return the bound-first run."""
    full = _run(monkeypatch, source, True, **config)
    mine = _run(monkeypatch, source, False, **config)
    assert mine.row == full.row, label
    assert mine.mappings.keys() == full.mappings.keys(), label
    for key, want in full.mappings.items():
        got = mine.mappings[key]
        assert ([s.decision() for s in got.steps]
                == [s.decision() for s in want.steps]), (label, key)
        assert got.netlist.pretty() == want.netlist.pretty(), (label, key)
        assert got.success == want.success, (label, key)
        assert got.message == want.message, (label, key)
    return mine


def test_suite_rows_steps_netlists_identical(monkeypatch):
    synthesized = skipped = 0
    for name in selected_names():
        mine = _assert_same_runs(monkeypatch, name, name,
                                 libraries=(2, 3, 4), with_siegel=True)
        # The RunRecord telemetry must mirror the per-mapping counters.
        mappings = mine.mappings.values()
        assert mine.stats["signals_resynthesized"] == sum(
            m.trial_resynthesized for m in mappings), name
        assert mine.stats["signals_skipped"] == sum(
            m.trial_skipped for m in mappings), name
        synthesized += mine.stats["signals_resynthesized"]
        skipped += mine.stats["signals_skipped"]
    print(f"\nbound-first evaluation over the subset: {synthesized} "
          f"signals synthesized, {skipped} skipped")
    assert synthesized > 0 and skipped > 0


@pytest.mark.parametrize("method", ["blocks", "regions"])
@pytest.mark.parametrize("family", [chained_sequencer_stg, alternator_stg],
                         ids=["sequencer", "alternator"])
def test_generated_families_identical(monkeypatch, family, method):
    mapper = MapperConfig(solve_csc=True, csc_method=method)
    for size in range(2, 8):
        stg = family(size)
        source = (stg.name, write_g(stg))
        for local in (False, True):
            label = (stg.name, method, "local" if local else "global")
            _assert_same_runs(monkeypatch, source, label,
                              libraries=(2, 3), with_siegel=False,
                              local_mode=local, mapper=mapper)
