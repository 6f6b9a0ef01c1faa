"""Per-layer spans recorded from the benchmark's own code.

:class:`SpanRecorder` wraps public functions of the runtime layers and
records one span per call: layer name, function, start, end, parent
span and the circuit or job it serves.  Callers import names directly
(``synthesis/cover.py`` binds ``minimize``; ``mapping/decompose.py``
and ``mapping/csc.py`` bind ``insert_signal``), so installing a
wrapper replaces *every* binding of the function object across the
loaded ``repro.*`` modules, and uninstalling restores each one.

Spans stay in memory; :meth:`SpanRecorder.dump` writes them once, at
the end.  A layer's self time is its span's duration minus the part
covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Tuple

#: layer -> the functions that time it, as (module, qualified name)
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "pipeline.run": (("repro.pipeline.run", "Pipeline.run"),),
    "stg.parse": (("repro.stg.parser", "parse_g"),),
    "stg.write": (("repro.stg.writer", "write_g"),),
    "sg.reach": (("repro.sg.reachability", "state_graph_of"),),
    "sg.regions": (("repro.sg.regions", "excitation_regions"),
                   ("repro.sg.regions", "encoding_atoms"),
                   ("repro.sg.regions", "event_cones")),
    "boolean.minimize": (("repro.boolean.minimize", "minimize"),),
    "boolean.divisors": (("repro.boolean.divisors", "generate_divisors"),
                         ("repro.boolean.divisors",
                          "algebraic_division")),
    "synthesis.synth": (("repro.synthesis.cover", "synthesize_signal"),
                        ("repro.synthesis.cover", "synthesize_all"),
                        ("repro.synthesis.cover", "resynthesize_signal")),
    "mapping.decompose": (("repro.mapping.decompose",
                           "TechnologyMapper.map"),),
    "mapping.progress": (("repro.mapping.progress", "check_property_31"),
                         ("repro.mapping.progress",
                          "estimate_global_impact")),
    "mapping.partition": (("repro.mapping.partition",
                           "compute_insertion_sets"),
                          ("repro.mapping.partition",
                           "compute_insertion_sets_from_states")),
    "mapping.insert": (("repro.mapping.insertion", "insert_signal"),),
    "mapping.csc": (("repro.mapping.csc", "solve_csc"),),
}

#: modules imported before installing, so every binding exists
PRELOAD = ("repro.pipeline", "repro.mapping", "repro.synthesis",
           "repro.boolean", "repro.sg", "repro.stg", "repro.report",
           "repro.dist.jobs")


#: the fields of a span tuple, as :meth:`SpanRecorder.dump` names them
_KEYS = ("id", "parent", "layer", "function", "start", "end", "unit",
         "extra")


def _extra(layer: str, result: object):
    """What a span keeps of its result: states built, insertions
    accepted, or a pipeline run's stats counters and stage timings."""
    if layer == "sg.reach":
        return len(result.states)  # type: ignore[attr-defined]
    if layer == "mapping.decompose":
        return len(result.steps)  # type: ignore[attr-defined]
    if layer == "pipeline.run":
        stages: Dict[str, float] = {}
        for timing in result.timings:  # type: ignore[attr-defined]
            stages[timing.stage] = (stages.get(timing.stage, 0.0)
                                    + timing.seconds)
        return {"stats": dict(result.stats),  # type: ignore[attr-defined]
                "stages": stages}
    return 0


class SpanRecorder:
    """Wraps layer functions and keeps their spans in memory."""

    def __init__(self) -> None:
        self.spans: List[Tuple] = []
        self.active = False             # recording on/off (oracle off)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patched: List[Tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------

    def _wrap(self, layer: str, function: Callable) -> Callable:
        label = function.__qualname__
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not recorder.active:
                return function(*args, **kwargs)
            local = recorder._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else 0
            if layer == "pipeline.run":
                source = args[1] if len(args) > 1 else kwargs.get("source")
                local.unit = (source[0] if isinstance(source, tuple)
                              else str(source))
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append(
                    (span_id, parent, layer, label, start, end,
                     getattr(local, "unit", None),
                     0 if result is None else _extra(layer, result)))

        return traced

    def install(self) -> None:
        """Replace every binding of each layer function in the loaded
        ``repro.*`` modules (and the owning class for methods)."""
        if self._patched:
            raise RuntimeError("wrappers already installed")
        for name in PRELOAD:
            importlib.import_module(name)
        modules = [module for name, module in sorted(sys.modules.items())
                   if (name == "repro" or name.startswith("repro."))
                   and module is not None]
        for layer, targets in LAYERS.items():
            for module_name, qualname in targets:
                owner: object = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
                wrapper = self._wrap(layer, original)
                if path:                      # a method: patch the class
                    self._patch(owner, attr, original, wrapper)
                    continue
                for module in modules:
                    for binding, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, binding, original,
                                        wrapper)

    def _patch(self, owner: object, attr: str, original: object,
               wrapper: object) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []
        self.active = False

    @property
    def bindings(self) -> List[Tuple[object, str, object]]:
        return list(self._patched)

    # -- results -----------------------------------------------------

    def layer_totals(self, since: float = float("-inf"),
                     until: float = float("inf")
                     ) -> Dict[str, Dict[str, float]]:
        """Per layer: self seconds, calls and work count, over spans
        that started inside ``[since, until]``; under ``"runs"``, the
        summed stats counters and stage seconds of pipeline runs."""
        spans = [span for span in self.spans
                 if since <= span[4] <= until]
        child = {}
        for span_id, parent, _, _, start, end, _, _ in spans:
            child[parent] = child.get(parent, 0.0) + (end - start)
        totals: Dict[str, Dict[str, float]] = {
            layer: {"self_s": 0.0, "calls": 0, "count": 0}
            for layer in LAYERS}
        runs: Dict[str, float] = {}
        for span_id, _, layer, _, start, end, _, extra in spans:
            entry = totals[layer]
            entry["self_s"] += (end - start) - child.get(span_id, 0.0)
            entry["calls"] += 1
            if isinstance(extra, dict):
                for name, value in extra["stats"].items():
                    runs[name] = runs.get(name, 0) + value
                for stage, seconds in extra["stages"].items():
                    key = f"stage_{stage}_s"
                    runs[key] = runs.get(key, 0.0) + seconds
            else:
                entry["count"] += extra
        totals["runs"] = runs
        return totals

    def dump(self, path: str) -> None:
        """Write every span once, as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": [dict(zip(_KEYS, span))
                                 for span in self.spans]}, handle)

    @classmethod
    def load(cls, path: str) -> "SpanRecorder":
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        recorder = cls()
        recorder.spans = [tuple(span[key] for key in _KEYS)
                          for span in data["spans"]]
        return recorder
