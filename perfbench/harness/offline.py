"""table1-cold and csc-encode: serial pipeline runs in this process.

Each input gets its own :class:`~repro.pipeline.Pipeline` with a fresh
in-memory artifact cache, as ``si-mapper report`` does.  Only the
``Pipeline.run`` call is timed; the output check follows it, outside
the timer (and outside any span), and the run's artifacts are then
released so ``peak_rss_mb`` reflects one circuit at a time.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import List, Optional

from harness import inputs, metrics, oracle
from harness.common import Outcome, peak_rss_mb
from harness.spans import SpanRecorder

#: the Table-1 battery: k = 2, 3, 4 plus the local-ack baseline at 2
TABLE1_LIBRARIES = (2, 3, 4)


def _table1_config():
    from repro.pipeline import PipelineConfig
    return PipelineConfig(libraries=TABLE1_LIBRARIES, with_siegel=True)


def _csc_config(method: str):
    from repro.mapping.decompose import MapperConfig
    from repro.pipeline import PipelineConfig
    return PipelineConfig(libraries=(), with_siegel=False,
                          mapper=MapperConfig(solve_csc=True,
                                              csc_method=method))


def _candidates_total() -> float:
    from repro.obs.metrics import default_registry
    return default_registry().counter(
        "si_mapper_candidates_total",
        "Decomposition candidate insertions tried.").total()


class OfflineWorkload:
    """Shared driver: set up inputs, time each run, check, release."""

    name = ""

    def __init__(self, seed: int, smoke: bool = False,
                 traced: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.traced = traced
        self.units: List = []

    # -- per-workload hooks ------------------------------------------

    def prepare(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_one(self, unit):
        raise NotImplementedError

    def check(self, unit, record, outcome: Outcome) -> None:
        raise NotImplementedError

    def totals(self, outcome: Outcome) -> None:
        raise NotImplementedError

    # -- the run -----------------------------------------------------

    def setup(self) -> None:
        """Imports, input generation and one warm-up unit."""
        import repro.pipeline  # noqa: F401  (the import is set-up work)
        import repro.verify  # noqa: F401
        self.prepare()
        self.warm_up()

    def close(self) -> None:
        """Nothing outlives a run in this process."""

    def measure(self) -> Outcome:
        """Time each unit (spans only around the ``Pipeline.run``
        call when traced), check it, release it."""
        recorder = SpanRecorder() if self.traced else None
        if recorder is not None:
            recorder.install()
        try:
            return self._measure(recorder)
        finally:
            if recorder is not None:
                recorder.uninstall()

    def _measure(self, recorder: Optional[SpanRecorder]) -> Outcome:
        outcome = Outcome()
        wall = 0.0
        candidates_before = _candidates_total()
        for unit in self.units:
            outcome.attempted += len(self.operations(unit))
            if recorder is not None:
                recorder.active = True
            start = time.perf_counter()
            try:
                record = self.run_one(unit)
            except Exception as error:  # the unit fails, the run goes on
                record = None
                for operation in self.operations(unit):
                    outcome.fail(operation,
                                 [f"{type(error).__name__}: {error}"])
            seconds = time.perf_counter() - start
            if recorder is not None:
                recorder.active = False
            wall += seconds
            outcome.detail.append(f"{self.label(unit):>24} "
                                  f"{seconds * 1e3:10.1f} ms")
            if record is not None:
                try:
                    self.check(unit, record, outcome)
                except Exception as error:  # an oracle crash fails it too
                    for operation in self.operations(unit):
                        outcome.fail(operation, [
                            f"check: {type(error).__name__}: {error}"])
            del record
        outcome.put("wall_s", wall)
        self.totals(outcome)
        outcome.put("peak_rss_mb", peak_rss_mb())
        if recorder is not None:
            outcome.layer = metrics.span_metrics(
                recorder.layer_totals(),
                _candidates_total() - candidates_before)
        return outcome

    def label(self, unit) -> str:
        return str(unit)

    def operations(self, unit) -> List[str]:
        """The operations one unit counts as (its battery cells)."""
        return [self.label(unit)]


class Table1Cold(OfflineWorkload):
    """The paper's Table-1 battery over 22 built-in circuits."""

    name = "table1-cold"

    def prepare(self) -> None:
        self.units = inputs.table1_inputs(self.seed, self.smoke)
        self.counts: Counter = Counter()

    def warm_up(self) -> None:
        from repro.pipeline import Pipeline
        Pipeline(_table1_config()).run(("warmup-celement",
                                        inputs.WARMUP_G))

    def label(self, unit) -> str:
        return unit[0]

    def operations(self, unit) -> List[str]:
        return [f"{unit[0]} k={literals} {mode}" for literals, mode
                in _table1_config().modes]

    def run_one(self, unit):
        from repro.pipeline import Pipeline
        return Pipeline(_table1_config()).run(unit)

    def check(self, unit, record, outcome: Outcome) -> None:
        for message in oracle.check_table1(record):
            cell = message.split(":", 1)[0]
            outcome.fail(cell, [message])
        self.counts.update(metrics.table1_counts(record.row))
        outcome.detail[-1] += "  " + " ".join(record.row.cells())

    def totals(self, outcome: Outcome) -> None:
        for name in ("inserted_signals", "si_area", "solved_cells"):
            outcome.put(name, self.counts[name])
        outcome.detail.append(f"cells: {self.counts['solved_cells']} "
                              f"solved, {self.counts['ni_cells']} n.i.")


class CscEncode(OfflineWorkload):
    """Generated CSC-conflicted STGs through load/reach/csc/synthesize."""

    name = "csc-encode"

    def prepare(self) -> None:
        self.units = inputs.csc_inputs(self.seed, self.smoke)
        self.csc_signals = 0
        self.solved = 0
        self.si_area = 0

    def warm_up(self) -> None:
        from repro.pipeline import Pipeline
        for method in ("blocks", "regions"):
            Pipeline(_csc_config(method)).run(("warmup-seqcsc1",
                                               inputs.csc_warmup_g()))

    def label(self, unit) -> str:
        return unit.label

    def run_one(self, unit):
        from repro.pipeline import Pipeline
        return Pipeline(_csc_config(unit.method)).run((unit.name,
                                                       unit.text))

    def check(self, unit, record, outcome: Outcome) -> None:
        from repro.mapping.cost import implementation_cost
        outcome.fail(unit.label, oracle.check_csc(record, unit.method))
        if record.row.csc_signals is not None:
            self.csc_signals += record.row.csc_signals
            self.solved += 1
        covers = record.context.implementations(True, unit.method)
        self.si_area += implementation_cost(covers)[0]
        outcome.detail[-1] += f"  csc={record.row.csc_signals}"

    def totals(self, outcome: Outcome) -> None:
        outcome.put("inserted_signals", self.csc_signals)
        outcome.put("si_area", self.si_area)
        outcome.put("solved_cells", self.solved)


WORKLOADS = {Table1Cold.name: Table1Cold, CscEncode.name: CscEncode}
