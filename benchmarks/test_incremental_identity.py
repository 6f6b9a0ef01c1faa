"""Incremental vs full resynthesis: byte-identical results on the
benchmark subset.

The incremental engine (``MapperConfig.incremental_resynthesis``)
claims exact equivalence to the legacy "resynthesize everything from
scratch" pass: same accepted insertions, same potentials, same final
netlists, same Table-1 rows.  This harness proves it over the whole
representative subset (all 32 circuits with ``REPRO_FULL_TABLE1=1``)
and records how much synthesis work the engine saved.

Run: ``PYTHONPATH=src pytest benchmarks/test_incremental_identity.py
--benchmark-disable -s``
"""

from repro.mapping.decompose import MapperConfig
from repro.pipeline import ArtifactCache, Pipeline, PipelineConfig

from conftest import selected_names


def _run(name, incremental):
    config = PipelineConfig(
        libraries=(2, 3, 4), with_siegel=True,
        mapper=MapperConfig(incremental_resynthesis=incremental),
        keep_artifacts=True)
    return Pipeline(config, cache=ArtifactCache()).run(name)


def test_incremental_rows_steps_netlists_identical():
    saved = {"resynthesized": 0, "reused": 0, "skipped": 0}
    for name in selected_names():
        full = _run(name, incremental=False)
        incremental = _run(name, incremental=True)
        assert incremental.row == full.row, name
        for key, full_map in full.mappings.items():
            incr_map = incremental.mappings[key]
            assert ([s.decision() for s in incr_map.steps]
                    == [s.decision() for s in full_map.steps]), (name, key)
            assert (incr_map.netlist.pretty()
                    == full_map.netlist.pretty()), (name, key)
            assert incr_map.success == full_map.success, (name, key)
            assert incr_map.message == full_map.message, (name, key)
            saved["resynthesized"] += incr_map.trial_resynthesized
            saved["reused"] += incr_map.trial_reused
            saved["skipped"] += incr_map.trial_skipped
        # The RunRecord telemetry must mirror the per-mapping counters.
        stats = incremental.stats
        mappings = incremental.mappings.values()
        assert stats["signals_resynthesized"] == sum(
            m.trial_resynthesized for m in mappings), name
        assert stats["signals_reused"] == sum(
            m.trial_reused for m in mappings), name
        assert stats["signals_skipped"] == sum(
            m.trial_skipped for m in mappings), name
    print(f"\nincremental engine over the subset: "
          f"{saved['resynthesized']} signals resynthesized, "
          f"{saved['reused']} reused, {saved['skipped']} skipped")
    total = sum(saved.values())
    assert total > 0
