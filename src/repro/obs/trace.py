"""Span tracing, with Chrome export.

A :class:`Tracer` records nestable spans — name, category, wall time,
thread CPU time, thread identity, parent linkage and free-form args.
Every span is a ``with`` block at an explicit :func:`trace_span` call
site: the pipeline's ``stage:<name>`` spans, the report battery and
its circuits, the mapper's candidate trials, a job on a daemon worker
and the service client's requests.  With no tracer active on the
current thread those sites cost one thread-local attribute read —
that is the whole "tracing off" overhead story.

Span stacks are kept *per thread*, so concurrent jobs on a threaded
daemon produce disjoint well-nested trees.  A span in a delta-worthy
category opens a counter journal (:func:`repro.obs.metrics.
open_journal`) for its lifetime and attaches the counter increments
its own thread made as ``args["stats"]`` — "this stage did 3 disk
hits and 1 miss" travels with the span, untouched by other threads.

Export is Chrome trace-event JSON ("X" complete events, microsecond
timestamps) loadable in Perfetto / ``chrome://tracing``, plus a
loader and aggregator backing the ``si-mapper trace`` subcommand.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.errors import ReproError
from repro.obs.metrics import close_journal, open_journal

#: Span categories that attach their thread's counter increments as
#: ``args["stats"]``.
DELTA_CATEGORIES = frozenset({"stage", "battery", "circuit", "job",
                              "http"})


@dataclass
class SpanRecord:
    """One finished (or still-open) span."""

    name: str
    category: str
    start: float          # seconds since the tracer's epoch
    duration: Optional[float]
    cpu: Optional[float]  # thread CPU seconds inside the span
    tid: int              # small stable per-tracer thread number
    thread_name: str
    span_id: int
    parent_id: Optional[int]
    depth: int
    args: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "name": self.name,
            "cat": self.category,
            "start": round(self.start, 6),
            "duration": (None if self.duration is None
                         else round(self.duration, 6)),
            "tid": self.tid,
            "thread": self.thread_name,
            "id": self.span_id,
            "parent": self.parent_id,
            "depth": self.depth,
        }
        if self.cpu is not None:
            payload["cpu"] = round(self.cpu, 6)
        if self.args:
            payload["args"] = self.args
        return payload


class _SpanHandle:
    """Context manager for one explicit span on the current thread.

    ``__enter__`` returns the span's mutable args dict so call sites
    can annotate outcomes (``sp["outcome"] = "hit"``) without holding
    a reference to tracer internals.
    """

    __slots__ = ("_tracer", "_name", "_category", "_args", "_record")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 args: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._category = category
        self._args = args
        self._record: Optional[SpanRecord] = None

    def __enter__(self) -> Dict[str, Any]:
        self._record = self._tracer._begin(self._name, self._category,
                                           self._args)
        return self._args

    def __exit__(self, *exc: object) -> None:
        if self._record is not None:
            self._tracer._end(self._record)
            self._record = None


class Tracer:
    """Collects spans for one activation window (a command or a job)."""

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._spans: List[SpanRecord] = []
        self._next_id = 1
        self._tids: Dict[int, int] = {}
        self._thread_names: Dict[int, str] = {}
        self._local = threading.local()

    # -- per-thread stack ------------------------------------------------

    def _stack(self) -> List[SpanRecord]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _tid(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            tid = self._tids.get(ident)
            if tid is None:
                tid = len(self._tids) + 1
                self._tids[ident] = tid
                self._thread_names[tid] = threading.current_thread().name
            return tid

    # -- span lifecycle --------------------------------------------------

    def _begin(self, name: str, category: str,
               args: Dict[str, Any]) -> SpanRecord:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        record = SpanRecord(
            name=name,
            category=category,
            start=time.perf_counter() - self._epoch,
            duration=None,
            cpu=None,
            tid=self._tid(),
            thread_name=threading.current_thread().name,
            span_id=span_id,
            parent_id=parent.span_id if parent else None,
            depth=len(stack),
            args=args,
        )
        if category in DELTA_CATEGORIES:
            open_journal()
        args["_cpu_start"] = time.thread_time()
        stack.append(record)
        return record

    def _end(self, record: SpanRecord) -> None:
        # spans are ``with`` blocks, so the record closing is the
        # innermost open one of this thread
        closing = self._stack().pop()
        assert closing is record
        record.duration = time.perf_counter() - self._epoch - record.start
        record.cpu = max(0.0, time.thread_time()
                         - record.args.pop("_cpu_start"))
        if record.category in DELTA_CATEGORIES:
            stats = {key: (int(value) if float(value).is_integer()
                           else value)
                     for key, value in sorted(close_journal().items())
                     if value}
            if stats:
                record.args["stats"] = stats
        with self._lock:
            self._spans.append(record)

    def span(self, name: str, category: str = "",
             **args: Any) -> _SpanHandle:
        return _SpanHandle(self, name, category, dict(args))

    @contextmanager
    def activate(self) -> Iterator["Tracer"]:
        """Make this tracer current for this thread."""
        previous = getattr(_state, "tracer", None)
        _state.tracer = self
        try:
            yield self
        finally:
            _state.tracer = previous

    # -- export ----------------------------------------------------------

    def snapshot(self) -> List[SpanRecord]:
        with self._lock:
            spans = list(self._spans)
        return sorted(spans, key=lambda s: (s.start, s.span_id))

    def chrome_trace(self) -> Dict[str, Any]:
        """This tracer's spans as a Chrome trace-event document, the
        one :func:`write_chrome_trace` writes."""
        spans = self.snapshot()
        with self._lock:
            names = dict(self._thread_names)
        return chrome_trace(spans, thread_names=names)


_state = threading.local()


def current_tracer() -> Optional[Tracer]:
    tracer = getattr(_state, "tracer", None)
    if tracer is None:
        return None
    assert isinstance(tracer, Tracer)
    return tracer


class _NullSpan:
    """Shared no-op handle returned when no tracer is active."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


def trace_span(name: str, category: str = "", **args: Any) -> Any:
    """Span on the current thread's tracer, or a shared no-op.

    Call sites must tolerate ``__enter__`` returning ``None``::

        with trace_span("store.get", "store", kind=kind) as sp:
            ...
            if sp is not None:
                sp["outcome"] = "hit"
    """
    tracer = getattr(_state, "tracer", None)
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, category, **args)


# -- Chrome trace-event export -------------------------------------------


def chrome_trace(spans: Sequence[SpanRecord],
                 thread_names: Optional[Dict[int, str]] = None,
                 pid: int = 1) -> Dict[str, Any]:
    """Chrome trace-event JSON object ("X" complete events, µs)."""
    events: List[Dict[str, Any]] = []
    names: Dict[int, str] = dict(thread_names or {})
    for span in spans:
        names.setdefault(span.tid, span.thread_name)
    for tid in sorted(names):
        events.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": names[tid]},
        })
    for span in spans:
        args: Dict[str, Any] = {
            key: value for key, value in span.args.items()
            if not key.startswith("_")}
        if span.cpu is not None:
            args["cpu_ms"] = round(span.cpu * 1e3, 3)
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        events.append({
            "name": span.name,
            "cat": span.category or "span",
            "ph": "X",
            "ts": round(span.start * 1e6, 3),
            "dur": round((span.duration or 0.0) * 1e6, 3),
            "pid": pid,
            "tid": span.tid,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, tracer: Tracer) -> int:
    """Write :meth:`Tracer.chrome_trace` as JSON; returns the number
    of spans written."""
    document = tracer.chrome_trace()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    return sum(1 for event in document["traceEvents"]
               if event["ph"] == "X")


# -- trace-file loading + aggregation (``si-mapper trace``) --------------


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Load the "X" events of a Chrome trace file (ours or foreign)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ReproError(f"cannot load trace {path}: {exc}") from exc
    if isinstance(document, dict):
        events = document.get("traceEvents", [])
    elif isinstance(document, list):
        events = document
    else:
        raise ReproError(f"unrecognised trace document in {path}")
    out: List[Dict[str, Any]] = []
    for event in events:
        if isinstance(event, dict) and event.get("ph") == "X":
            out.append(event)
    return out


def summarize_trace(events: Sequence[Dict[str, Any]],
                    ) -> List[Dict[str, Any]]:
    """Aggregate events by name: count / total / mean / max (ms)."""
    totals: Dict[str, Dict[str, float]] = {}
    for event in events:
        name = str(event.get("name", "?"))
        dur_ms = float(event.get("dur", 0.0)) / 1e3
        bucket = totals.setdefault(
            name, {"count": 0.0, "total_ms": 0.0, "max_ms": 0.0})
        bucket["count"] += 1
        bucket["total_ms"] += dur_ms
        bucket["max_ms"] = max(bucket["max_ms"], dur_ms)
    out: List[Dict[str, Any]] = []
    for name in sorted(totals,
                       key=lambda n: -totals[n]["total_ms"]):
        bucket = totals[name]
        count = int(bucket["count"])
        out.append({
            "name": name,
            "count": count,
            "total_ms": round(bucket["total_ms"], 3),
            "mean_ms": round(bucket["total_ms"] / max(count, 1), 3),
            "max_ms": round(bucket["max_ms"], 3),
        })
    return out


def format_summary(rows: Sequence[Dict[str, Any]],
                   top: Optional[int] = None) -> str:
    shown = list(rows[:top] if top else rows)
    name_width = max([len(str(row["name"])) for row in shown] + [4])
    lines = [f"{'span':<{name_width}}  {'count':>7}  {'total ms':>10}  "
             f"{'mean ms':>9}  {'max ms':>9}"]
    for row in shown:
        lines.append(
            f"{row['name']:<{name_width}}  {row['count']:>7}  "
            f"{row['total_ms']:>10.3f}  {row['mean_ms']:>9.3f}  "
            f"{row['max_ms']:>9.3f}")
    if top and len(rows) > top:
        lines.append(f"... {len(rows) - top} more span names")
    return "\n".join(lines)


def format_tree(events: Sequence[Dict[str, Any]],
                max_lines: int = 200) -> str:
    """Indented per-thread call tree from args.span_id/parent_id."""
    by_tid: Dict[Any, List[Dict[str, Any]]] = {}
    for event in events:
        by_tid.setdefault(event.get("tid", 0), []).append(event)
    lines: List[str] = []
    for tid in sorted(by_tid, key=str):
        lines.append(f"thread {tid}:")
        ordered = sorted(by_tid[tid],
                         key=lambda e: float(e.get("ts", 0.0)))
        ids = {e.get("args", {}).get("span_id") for e in ordered}
        depth_of: Dict[Any, int] = {}
        for event in ordered:
            args = event.get("args", {}) or {}
            parent = args.get("parent_id")
            depth = (depth_of.get(parent, -1) + 1
                     if parent in ids else 0)
            depth_of[args.get("span_id")] = depth
            dur_ms = float(event.get("dur", 0.0)) / 1e3
            lines.append(f"  {'  ' * depth}{event.get('name', '?')}  "
                         f"[{dur_ms:.3f} ms]")
            if len(lines) >= max_lines:
                lines.append(f"  ... truncated at {max_lines} lines")
                return "\n".join(lines)
    return "\n".join(lines)
