"""Unified observability core: metrics registry + span tracing.

One process-wide :class:`~repro.obs.metrics.MetricsRegistry` holds
the counters of the envelope codec layer, the job service and every
cache and store tier; ``GET /metrics`` exposes them as Prometheus
text.  Cache and store traffic is counted nowhere else: a run's
``RunRecord.stats`` counters come from a per-thread counter journal
and the daemon's ``/stats`` ``telemetry`` from the registry, so shard
telemetry blocks and ``/stats`` JSON keep their keys.

The tracing half (:mod:`repro.obs.trace`) builds nestable spans:
activating a :class:`~repro.obs.trace.Tracer` arms the explicit
:func:`~repro.obs.trace.trace_span` sites — the pipeline stages, the
report battery and its circuits, the mapper inner loops and the
service client — and a daemon worker keeping job traces wraps each
job in a span.  With no tracer active every site is a near-free null
check — the overhead contract of the recorded perf trajectory.

See ``docs/observability.md`` for the instrument catalogue, the span
taxonomy and the exposition/trace file contracts.
"""

from repro.obs.metrics import (Counter, Gauge, Histogram,
                               MetricsRegistry, default_registry,
                               set_default_registry, use_registry)
from repro.obs.trace import (SpanRecord, Tracer, chrome_trace,
                             current_tracer, trace_span)

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "default_registry", "set_default_registry", "use_registry",
    "SpanRecord", "Tracer", "chrome_trace", "current_tracer",
    "trace_span",
]
