"""Table-1-style reporting.

A :class:`Table1Row` holds the full experiment battery for one
circuit, as one :class:`repro.pipeline.Pipeline` run computes it
(``Pipeline(config).run(name).row``):

* the initial gate-complexity histogram (first column group);
* our technology mapping for libraries of 2/3/4 literals (number of
  inserted signals, or ``n.i.``);
* the local-acknowledgment (Siegel-style) baseline at 2 literals
  (the ``[12]`` column);
* the non-SI tree-decomposition cost and the SI decomposition cost in
  the paper's ``literals/C-elements`` notation (last column group).

:func:`run_battery` runs the battery over many circuits, and
:func:`render_report` formats the rows like the paper's Table 1; that
text is what ``si-mapper report`` and the shard merge print.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.mapping.decompose import MapperConfig


@dataclass
class Table1Row:
    """All measurements for one circuit."""

    name: str
    histogram: List[int]                 # gates with n = 2..6, 7+ literals
    inserted: Dict[int, Optional[int]]   # library k -> #signals or None (n.i.)
    siegel_2lit: Optional[int]           # local-ack baseline, None = n.i.
    non_si_cost: Tuple[int, int]         # (literals, C elements), smallest k
    si_cost: Optional[Tuple[int, int]]   # same, ours; None if n.i.
    siegel_ran: bool = True              # False: baseline not configured
    csc_signals: Optional[int] = None    # state signals inserted by the
                                         # CSC stage; None = stage not run

    @property
    def libraries(self) -> Tuple[int, ...]:
        """The library sizes this row actually ran."""
        return tuple(sorted(self.inserted))

    def cells(self, libraries: Optional[Sequence[int]] = None,
              with_csc: bool = False) -> List[str]:
        """One formatted cell per column.

        Columns follow the *configured* libraries (this row's own by
        default): a library that never ran renders as ``"-"`` — only a
        mapping that ran and failed is ``"n.i."``.  ``with_csc``
        appends the auxiliary inserted-state-signals column (``"-"``
        when this row's run skipped the CSC stage); without it the cell
        list is byte-identical to the historical layout.
        """
        chosen = (tuple(libraries) if libraries is not None
                  else self.libraries)

        def fmt_ins(value: Optional[int]) -> str:
            return "n.i." if value is None else str(value)

        def fmt_cost(value: Optional[Tuple[int, int]]) -> str:
            return "-" if value is None else f"{value[0]}/{value[1]}"

        cells = ([self.name]
                 + [str(n) if n else "" for n in self.histogram]
                 + [fmt_ins(self.inserted[k]) if k in self.inserted
                    else "-" for k in chosen]
                 + [fmt_ins(self.siegel_2lit) if self.siegel_ran
                    else "-"]
                 + [fmt_cost(self.non_si_cost), fmt_cost(self.si_cost)])
        if with_csc:
            cells.append("-" if self.csc_signals is None
                         else str(self.csc_signals))
        return cells

    # ------------------------------------------------------------------
    # Shard-file serialization (``si-mapper report --shard / --merge``)
    # ------------------------------------------------------------------

    def to_json(self) -> Dict:
        """A JSON-safe dict; :meth:`from_json` round-trips exactly, so
        a merged shard row is ``==`` the in-process row."""
        return {
            "name": self.name,
            "histogram": list(self.histogram),
            # JSON keys are strings; from_json restores the ints
            "inserted": {str(k): v for k, v in self.inserted.items()},
            "siegel_2lit": self.siegel_2lit,
            "non_si_cost": list(self.non_si_cost),
            "si_cost": (None if self.si_cost is None
                        else list(self.si_cost)),
            "siegel_ran": self.siegel_ran,
            "csc_signals": self.csc_signals,
        }

    @classmethod
    def from_json(cls, data: Dict) -> "Table1Row":
        return cls(
            name=data["name"],
            histogram=list(data["histogram"]),
            inserted={int(k): v for k, v in data["inserted"].items()},
            siegel_2lit=data["siegel_2lit"],
            non_si_cost=tuple(data["non_si_cost"]),
            si_cost=(None if data["si_cost"] is None
                     else tuple(data["si_cost"])),
            siegel_ran=data["siegel_ran"],
            csc_signals=data["csc_signals"],
        )


def header_for(libraries: Sequence[int],
               with_csc: bool = False) -> List[str]:
    """The column headers for a configured library battery."""
    header = (["circuit"] + [f"n={n}" for n in (2, 3, 4, 5, 6)]
              + ["n>=7"] + [f"i={k}" for k in libraries] + ["[12]"]
              + ["non-SI", "SI"])
    if with_csc:
        header.append("csc")
    return header


def format_rows(rows: Sequence[Table1Row]) -> str:
    """Plain-text table in the paper's column layout.

    The ``i=k`` column group follows the libraries the rows were
    actually configured with — ``si-mapper report -k 3`` prints one
    ``i=3`` column instead of pretending k=2/4 ran and failed.  The
    auxiliary ``csc`` column (state signals inserted by the CSC stage)
    appears only when at least one row ran that stage, so legacy
    reports stay byte-identical.
    """
    libraries = sorted({k for row in rows for k in row.libraries})
    with_csc = any(row.csc_signals is not None for row in rows)
    header = header_for(libraries, with_csc)
    table = [header] + [row.cells(libraries, with_csc)
                        for row in rows]
    widths = [max(len(line[col]) for line in table)
              for col in range(len(header))]
    lines = []
    for index, line in enumerate(table):
        lines.append("  ".join(cell.rjust(width)
                               for cell, width in zip(line, widths)))
        if index == 0:
            lines.append("-" * len(lines[0]))
    return "\n".join(lines)


def summarize(rows: Sequence[Table1Row]) -> str:
    """The paper's headline claims, recomputed on our suite."""
    libraries = sorted({k for row in rows for k in row.libraries})
    smallest = libraries[0] if libraries else 2
    # only rows that actually ran the smallest library can be judged
    # implemented / n.i. at it
    attempted = [row for row in rows if smallest in row.inserted]
    ni2 = sum(1 for row in attempted
              if row.inserted[smallest] is None)
    lines = [
        f"{len(attempted) - ni2} of {len(attempted)} circuits "
        f"implemented with {smallest}-literal gates ({ni2} n.i.).",
    ]
    ran_siegel = [row for row in rows if row.siegel_ran]
    if ran_siegel:
        siegel_ni = sum(1 for row in ran_siegel
                        if row.siegel_2lit is None)
        lines.append(f"Local-acknowledgment baseline [12]: "
                     f"{len(ran_siegel) - siegel_ni} of "
                     f"{len(ran_siegel)} at 2 literals.")
    both = [(row.non_si_cost, row.si_cost) for row in rows
            if row.si_cost is not None]
    if both:
        non_si_lits = sum(cost[0][0] for cost in both)
        si_lits = sum(cost[1][0] for cost in both)
        c_elements = sum(cost[1][1] for cost in both)
        # The paper prices a C element like a 3-input AND gate (§4).
        non_si_c = sum(row.non_si_cost[1] for row in rows
                       if row.si_cost is not None)
        si_area = si_lits + 3 * c_elements
        non_si_area = non_si_lits + 3 * non_si_c
        overhead = 100.0 * (si_area - non_si_area) / max(1, non_si_area)
        lines.append(
            f"SI cost {si_lits} literals + {c_elements} C vs non-SI "
            f"{non_si_lits} literals + {non_si_c} C: "
            f"area overhead {overhead:+.1f}% "
            "(paper: below +10%).")
    return "\n".join(lines)


def run_battery(names: Sequence[str],
                libraries: Sequence[int] = (2, 3, 4),
                config: Optional[MapperConfig] = None,
                with_siegel: bool = True,
                progress: bool = False,
                jobs: Optional[int] = None,
                cache_dir: Optional[str] = None,
                cache_url: Optional[str] = None,
                cache_s3: Optional[str] = None):
    """Run the Table-1 battery over ``names``; the raw ``BatchItem``
    list in input order (one per circuit, errored or not).

    The suite fans out over a :class:`repro.pipeline.BatchRunner`
    (``jobs=None`` uses every CPU, ``jobs=1`` forces serial); a circuit
    that errors is a failed item, not a failed run.  With ``cache_dir``
    / ``cache_url`` / ``cache_s3`` every worker warm-starts from (and
    feeds) the persistent, remote, or object-store artifact tier.
    """
    from repro.pipeline import BatchRunner, PipelineConfig
    runner = BatchRunner(PipelineConfig(
        libraries=tuple(libraries), with_siegel=with_siegel,
        mapper=config, keep_artifacts=False, cache_dir=cache_dir,
        cache_url=cache_url, cache_s3=cache_s3), jobs=jobs)
    callback = ((lambda name: print(f"... {name}", flush=True))
                if progress else None)
    from repro.obs.trace import trace_span
    with trace_span("battery", "battery", circuits=len(names)):
        return runner.run(list(names), progress=callback)


def render_report(rows: Sequence[Table1Row],
                  failures: Sequence[Tuple[str, str]] = ()) -> str:
    """The printed report: table, headline summary, error lines.

    One rendering shared by ``si-mapper report`` and the shard merge
    (:func:`repro.dist.shard.merge_shards`) — byte-for-byte, which is
    what makes "merged output == unsharded output" a meaningful
    equality.
    """
    text = format_rows(rows) + "\n\n" + summarize(rows)
    if failures:
        text += "\n\n" + "\n".join(
            f"{name}: ERROR {error}" for name, error in failures)
    return text
