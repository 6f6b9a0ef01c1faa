"""Typed, thread-safe metrics instruments and their registry.

The design follows the Prometheus client-library data model closely
enough that :meth:`MetricsRegistry.render_prometheus` is a complete
text-format exposition, but stays dependency-free: three instrument
kinds (Counter, Gauge, Histogram), optional label dimensions fixed at
registration time, and a registry that hands back the *same*
instrument object for repeated registrations of the same name so
modules can resolve instruments lazily without coordination.

Every mutation happens under the instrument's lock; snapshot order is
deterministic (sorted by metric name, then by label values) so that
two scrapes of identical state render identical bytes.

A *counter journal* (:func:`open_journal` / :func:`close_journal`)
records the counter increments one thread makes while it is open —
what a span attaches as its ``stats``, so concurrent jobs never see
each other's work.
"""

from __future__ import annotations

import re
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (Callable, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

from repro.errors import ReproError

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default latency buckets (seconds): micro-stages through whole
#: batteries.  Chosen to straddle the DATE'97 battery's observed
#: spread — reachability in microseconds, mapping in tens of seconds.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0,
    float("inf"),
)

LabelKey = Tuple[str, ...]

#: per-thread stack of open counter journals
_journals = threading.local()


def _check_name(name: str) -> str:
    if not _METRIC_NAME.match(name):
        raise ReproError(f"invalid metric name: {name!r}")
    return name


def _check_labelnames(labelnames: Sequence[str]) -> Tuple[str, ...]:
    for label in labelnames:
        if not _LABEL_NAME.match(label) or label.startswith("__"):
            raise ReproError(f"invalid label name: {label!r}")
    if len(set(labelnames)) != len(labelnames):
        raise ReproError(f"duplicate label names: {labelnames!r}")
    return tuple(labelnames)


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if value != value:  # NaN
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _render_labels(labelnames: Sequence[str],
                   labelvalues: Sequence[str],
                   extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = [f'{name}="{_escape_label_value(value)}"'
             for name, value in zip(labelnames, labelvalues)]
    pairs.extend(f'{name}="{_escape_label_value(value)}"'
                 for name, value in extra)
    if not pairs:
        return ""
    return "{" + ",".join(pairs) + "}"


@dataclass(frozen=True)
class Sample:
    """One exposition line: ``name{labels} value``."""

    name: str
    labels: Tuple[Tuple[str, str], ...]
    value: float

    @property
    def key(self) -> str:
        """``name{labels}``: the line without its value, which is also
        how a counter journal keys the series."""
        return self.name + _render_labels(
            [name for name, _ in self.labels],
            [value for _, value in self.labels])


class Instrument:
    """Base class: name/label validation plus the per-instrument lock.

    Subclasses must only mutate their series maps inside
    ``with self._lock`` — the ``obs-unlocked-instrument`` lint rule
    enforces the same discipline on call sites that reach into
    instrument internals.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str,
                 labelnames: Sequence[str] = ()) -> None:
        self.name = _check_name(name)
        self.help = help
        self.labelnames = _check_labelnames(labelnames)
        self._lock = threading.Lock()

    def _label_key(self, labels: Mapping[str, str]) -> LabelKey:
        if set(labels) != set(self.labelnames):
            raise ReproError(
                f"metric {self.name}: got labels {sorted(labels)}, "
                f"declared {sorted(self.labelnames)}")
        return tuple(str(labels[name]) for name in self.labelnames)

    def samples(self) -> List[Sample]:
        raise NotImplementedError

    def _labels_for(self, key: LabelKey) -> Tuple[Tuple[str, str], ...]:
        return tuple(zip(self.labelnames, key))


class Counter(Instrument):
    """Monotonically increasing count (events, bytes, rejections)."""

    kind = "counter"

    def __init__(self, name: str, help: str,
                 labelnames: Sequence[str] = ()) -> None:
        # Conventional counter names end in _total; the exposition
        # sample re-appends it, so strip it here (prometheus_client
        # does the same normalisation).
        if name.endswith("_total"):
            name = name[: -len("_total")]
        super().__init__(name, help, labelnames)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ReproError(
                f"counter {self.name}: negative increment {amount}")
        key = self._label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount
        journals = getattr(_journals, "stack", None)
        if journals:
            sample = (self.name + "_total"
                      + _render_labels(self.labelnames, key))
            for journal in journals:
                journal[sample] = journal.get(sample, 0.0) + amount

    def value(self, **labels: str) -> float:
        key = self._label_key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def total(self) -> float:
        with self._lock:
            return sum(self._values.values())

    def samples(self) -> List[Sample]:
        with self._lock:
            items = sorted(self._values.items())
        return [Sample(self.name + "_total", self._labels_for(key), value)
                for key, value in items]


class Gauge(Instrument):
    """Point-in-time value (queue depth, resident jobs, entries)."""

    kind = "gauge"

    def __init__(self, name: str, help: str,
                 labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        key = self._label_key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = self._label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        key = self._label_key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def samples(self) -> List[Sample]:
        with self._lock:
            items = sorted(self._values.items())
        return [Sample(self.name, self._labels_for(key), value)
                for key, value in items]


class Histogram(Instrument):
    """Cumulative-bucket distribution (stage and request latencies)."""

    kind = "histogram"

    def __init__(self, name: str, help: str,
                 labelnames: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ReproError(f"histogram {self.name}: no buckets")
        if bounds[-1] != float("inf"):
            bounds = bounds + (float("inf"),)
        if len(set(bounds)) != len(bounds):
            raise ReproError(
                f"histogram {self.name}: duplicate buckets {buckets!r}")
        self.buckets = bounds
        self._counts: Dict[LabelKey, List[int]] = {}
        self._sums: Dict[LabelKey, float] = {}
        self._totals: Dict[LabelKey, int] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = self._label_key(labels)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = [0] * len(self.buckets)
                self._counts[key] = counts
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[i] += 1
                    break
            self._sums[key] = self._sums.get(key, 0.0) + value
            self._totals[key] = self._totals.get(key, 0) + 1

    def count(self, **labels: str) -> int:
        key = self._label_key(labels)
        with self._lock:
            return self._totals.get(key, 0)

    def sum(self, **labels: str) -> float:
        key = self._label_key(labels)
        with self._lock:
            return self._sums.get(key, 0.0)

    def samples(self) -> List[Sample]:
        with self._lock:
            keys = sorted(self._counts)
            counts = {key: list(self._counts[key]) for key in keys}
            sums = dict(self._sums)
            totals = dict(self._totals)
        out: List[Sample] = []
        for key in keys:
            labels = self._labels_for(key)
            cumulative = 0
            for bound, bucket_count in zip(self.buckets, counts[key]):
                cumulative += bucket_count
                out.append(Sample(
                    self.name + "_bucket",
                    labels + (("le", _format_value(bound)),),
                    float(cumulative)))
            out.append(Sample(self.name + "_sum", labels, sums[key]))
            out.append(Sample(self.name + "_count", labels,
                              float(totals[key])))
        return out


class MetricsRegistry:
    """Get-or-create instrument store with deterministic exposition."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, Instrument] = {}

    def _get_or_create(self, name: str, labelnames: Tuple[str, ...],
                       kind: str,
                       factory: "Callable[[], Instrument]",
                       ) -> Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if existing.kind != kind:
                    raise ReproError(
                        f"metric {name} already registered as "
                        f"{existing.kind}, requested {kind}")
                if existing.labelnames != labelnames:
                    raise ReproError(
                        f"metric {name} already registered with labels "
                        f"{existing.labelnames}, requested {labelnames}")
                return existing
            instrument = factory()
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        if name.endswith("_total"):
            name = name[: -len("_total")]
        names = tuple(labelnames)
        instrument = self._get_or_create(
            name, names, "counter", lambda: Counter(name, help, names))
        assert isinstance(instrument, Counter)
        return instrument

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        names = tuple(labelnames)
        instrument = self._get_or_create(
            name, names, "gauge", lambda: Gauge(name, help, names))
        assert isinstance(instrument, Gauge)
        return instrument

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  ) -> Histogram:
        names = tuple(labelnames)
        instrument = self._get_or_create(
            name, names, "histogram",
            lambda: Histogram(name, help, names, buckets))
        assert isinstance(instrument, Histogram)
        return instrument

    def instruments(self) -> List[Instrument]:
        with self._lock:
            return [self._instruments[name]
                    for name in sorted(self._instruments)]

    def snapshot(self) -> List[Sample]:
        """All samples, sorted by metric name then label values."""
        out: List[Sample] = []
        for instrument in self.instruments():
            out.extend(instrument.samples())
        return out

    def render_prometheus(self) -> str:
        """Text exposition format 0.0.4 (what Prometheus scrapes)."""
        lines: List[str] = []
        for instrument in self.instruments():
            lines.append(f"# HELP {instrument.name} "
                         f"{_escape_help(instrument.help)}")
            lines.append(f"# TYPE {instrument.name} {instrument.kind}")
            for sample in instrument.samples():
                lines.append(
                    f"{sample.key} {_format_value(sample.value)}")
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        with self._lock:
            self._instruments.clear()


def open_journal() -> Dict[str, float]:
    """Record this thread's counter increments from now on.

    Returns the journal: ``{name_total{labels}: amount}``, filled by
    every :meth:`Counter.inc` on this thread until
    :func:`close_journal`.  Journals nest; an increment lands in every
    open one."""
    stack = getattr(_journals, "stack", None)
    if stack is None:
        stack = []
        _journals.stack = stack
    journal: Dict[str, float] = {}
    stack.append(journal)
    return journal


def close_journal() -> Dict[str, float]:
    """Stop this thread's innermost journal and return it."""
    stack: List[Dict[str, float]] = _journals.stack
    return stack.pop()


_default_lock = threading.Lock()
_default_registry: Optional[MetricsRegistry] = None


def default_registry() -> MetricsRegistry:
    """The process-wide registry all built-in integrations resolve."""
    global _default_registry
    with _default_lock:
        if _default_registry is None:
            _default_registry = MetricsRegistry()
        return _default_registry


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one."""
    global _default_registry
    with _default_lock:
        previous = _default_registry
        if previous is None:
            previous = MetricsRegistry()
        _default_registry = registry
        return previous


@contextmanager
def use_registry(registry: Optional[MetricsRegistry] = None,
                 ) -> Iterator[MetricsRegistry]:
    """Temporarily install ``registry`` (default: a fresh one).

    Process-wide, not thread-scoped — intended for test isolation
    where one test owns the process, not for concurrent use.
    """
    if registry is None:
        registry = MetricsRegistry()
    previous = set_default_registry(registry)
    try:
        yield registry
    finally:
        set_default_registry(previous)
