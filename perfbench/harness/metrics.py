"""Metric names and units: what BENCHMARK.json declares.

End-to-end metrics are taken from untraced runs; per-layer metrics
from a separate traced run.  A per-layer metric of a layer that does
not run in a workload reads 0 there (e.g. ``mapping.csc_s`` on
table1-cold, every ``dist.*`` metric offline).
"""

from __future__ import annotations

from typing import Dict

#: the workloads, in the order BENCHMARK.json lists them
WORKLOADS = ("table1-cold", "csc-encode", "service-open")

#: end-to-end metric -> unit.  Every workload reports every one:
#:
#: * ``wall_s``: the timed per-input pipeline runs, summed (table1-cold,
#:   csc-encode); the burst's makespan, first submit to last row
#:   fetched (service-open);
#: * ``inserted_signals``: signals the flow inserted into its outputs,
#:   by decomposition (table1-cold, service-open) or CSC encoding
#:   (csc-encode);
#: * ``si_area``: literal cost of the SI implementations produced;
#: * ``solved_cells``: outputs the flow completed, i.e. battery cells not
#:   n.i. (table1-cold, service-open) or circuit/method pairs encoded
#:   (csc-encode).
#:
#: service-open takes its three counts over the burst's rows: whole
#: rounds of the base circuits, so every seed has the same ones.  Its
#: open-loop latencies swung beyond any allowed bound over ten seeds
#: (p50 up to 29 %, p95 38 % IQR): the traced run reports them,
#: ungated, as dist.job_p50_s and dist.job_p95_s.
END_TO_END: Dict[str, str] = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "inserted_signals": "count", "si_area": "literals",
    "solved_cells": "count",
}

#: per-layer metric -> unit
PER_LAYER: Dict[str, str] = {
    "stg.parse_s": "s", "stg.write_s": "s",
    "sg.reach_s": "s", "sg.states": "count", "sg.regions_s": "s",
    "boolean.minimize_s": "s", "boolean.minimize_calls": "count",
    "boolean.divisors_s": "s",
    "synthesis.synth_s": "s", "synthesis.signals_resynthesized": "count",
    "synthesis.reuse_ratio": "ratio",
    "mapping.decompose_s": "s", "mapping.progress_s": "s",
    "mapping.candidates": "count", "mapping.accept_ratio": "ratio",
    "mapping.skip_ratio": "ratio",
    "mapping.partition_s": "s", "mapping.partition_calls": "count",
    "mapping.insert_s": "s", "mapping.insert_calls": "count",
    "mapping.csc_s": "s", "mapping.csc_candidates": "count",
    "mapping.csc_accept_ratio": "ratio",
    "pipeline.stage_load_s": "s", "pipeline.stage_reach_s": "s",
    "pipeline.stage_csc_s": "s", "pipeline.stage_synthesize_s": "s",
    "pipeline.stage_map_s": "s", "pipeline.stage_report_s": "s",
    "pipeline.cache_hit_ratio": "ratio",
    "pipeline.store_writes": "count", "pipeline.store_reads": "count",
    "pipeline.store_bytes_written": "bytes",
    "dist.http_submit_s": "s", "dist.http_result_s": "s",
    "dist.http_requests": "count", "dist.queue_wait_p95_s": "s",
    "dist.job_run_p50_s": "s", "dist.client_overhead_p50_s": "s",
    "dist.polls_per_job": "count", "dist.dedupe_ratio": "ratio",
    "dist.restored": "count", "dist.evicted": "count",
    "dist.job_p50_s": "s", "dist.job_p95_s": "s",
    "client.send_lag_p95_s": "s",
    "trace.overhead_ratio": "ratio", "trace.spans": "count",
}

#: pipeline stages with a per-layer metric
STAGES = ("load", "reach", "csc", "synthesize", "map", "report")

#: span layer -> per-layer self-time metric
SELF_TIME = {
    "stg.parse": "stg.parse_s", "stg.write": "stg.write_s",
    "sg.reach": "sg.reach_s", "sg.regions": "sg.regions_s",
    "boolean.minimize": "boolean.minimize_s",
    "boolean.divisors": "boolean.divisors_s",
    "synthesis.synth": "synthesis.synth_s",
    "mapping.decompose": "mapping.decompose_s",
    "mapping.progress": "mapping.progress_s",
    "mapping.partition": "mapping.partition_s",
    "mapping.insert": "mapping.insert_s", "mapping.csc": "mapping.csc_s",
}


def ratio(part: float, whole: float) -> float:
    """``part / whole``, 0 when nothing was attempted."""
    return part / whole if whole else 0.0


def span_metrics(totals: Dict[str, Dict[str, float]],
                 candidates: float) -> Dict[str, float]:
    """Per-layer metrics from span totals (see
    :meth:`~harness.spans.SpanRecorder.layer_totals`) and the mapper's
    candidate count."""
    runs = totals["runs"]
    layers = {layer: entry for layer, entry in totals.items()
              if layer != "runs"}
    out = {metric: layers[layer]["self_s"]
           for layer, metric in SELF_TIME.items()}
    out["sg.states"] = layers["sg.reach"]["count"]
    out["boolean.minimize_calls"] = layers["boolean.minimize"]["calls"]
    out["mapping.partition_calls"] = layers["mapping.partition"]["calls"]
    out["mapping.insert_calls"] = layers["mapping.insert"]["calls"]
    out["trace.spans"] = sum(entry["calls"] for entry in layers.values())
    for stage in STAGES:
        out[f"pipeline.stage_{stage}_s"] = runs.get(f"stage_{stage}_s",
                                                    0.0)
    out.update(_stats_metrics(runs, candidates,
                              layers["mapping.decompose"]["count"]))
    return out


def _stats_metrics(stats: Dict[str, float], candidates: float,
                   accepted: float) -> Dict[str, float]:
    """Ratios from summed ``RunRecord.stats`` counters."""
    resynthesized = stats.get("signals_resynthesized", 0)
    reused = stats.get("signals_reused", 0)
    skipped = stats.get("signals_skipped", 0)
    hits = stats.get("cache_hits", 0)
    return {
        "synthesis.signals_resynthesized": resynthesized,
        "synthesis.reuse_ratio": ratio(reused, reused + resynthesized),
        "mapping.skip_ratio": ratio(skipped,
                                    resynthesized + reused + skipped),
        "mapping.candidates": candidates,
        "mapping.accept_ratio": ratio(accepted, candidates),
        "mapping.csc_candidates": stats.get("candidates_evaluated", 0),
        "mapping.csc_accept_ratio": ratio(
            stats.get("signals_inserted", 0),
            stats.get("candidates_evaluated", 0)),
        "pipeline.cache_hit_ratio": ratio(
            hits, hits + stats.get("cache_misses", 0)),
    }


def table1_counts(row) -> Dict[str, int]:
    """The quality counts of one :class:`~repro.report.Table1Row`:
    signals inserted over its solved battery cells, its SI literal cost
    at the smallest library (0 when that cell is n.i.), and its solved
    and n.i. cells."""
    cells = list(row.inserted.values())
    if row.siegel_ran:
        cells.append(row.siegel_2lit)
    solved = [value for value in cells if value is not None]
    return {"inserted_signals": sum(solved),
            "si_area": row.si_cost[0] if row.si_cost is not None else 0,
            "solved_cells": len(solved),
            "ni_cells": len(cells) - len(solved)}


def unit_of(name: str) -> str:
    return END_TO_END[name] if name in END_TO_END else PER_LAYER[name]


def complete(values: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric, 0 where the workload has none."""
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics {sorted(unknown)}")
    return {name: float(values.get(name, 0.0)) for name in PER_LAYER}
