"""Output checks, run outside every timer and every traced span.

* table1-cold: every successful battery cell passes
  :func:`repro.verify.verify_implementation`, and every first-level
  gate is within its library bound;
* csc-encode: the solved graph has no CSC violation, its covers pass
  ``verify_implementation``, and it is weakly bisimilar to the
  specification with the inserted signals hidden;
* service-open: a fetched row byte-equals the in-process
  :class:`~repro.pipeline.Pipeline` row of its base circuit except
  for ``name``.

Each check returns a list of failure messages (empty = pass).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional


def gate_bound_violations(implementations, literals: int) -> List[str]:
    """Gates whose min-polarity literal count exceeds the library."""
    bad = []
    for signal, impl in sorted(implementations.items()):
        if impl.is_combinational:
            gates = [("complete", impl.complete, impl.complete_complement)]
        else:
            gates = [(rc.event, rc.cover, rc.complement)
                     for rc in impl.region_covers]
        for label, cover, complement in gates:
            size = min(cover.literal_count(), complement.literal_count())
            if size > literals:
                bad.append(f"{signal} {label}: {size} literals > "
                           f"{literals}")
    return bad


def check_table1(record) -> List[str]:
    """Verify every successful mapping of one battery run."""
    from repro.verify import verify_implementation
    failures = []
    for (literals, mode), result in sorted(record.mappings.items()):
        if not result.success:
            continue
        cell = f"{record.name} k={literals} {mode}"
        try:
            verify_implementation(result.sg, result.implementations)
        except Exception as error:  # any violation fails the cell
            failures.append(f"{cell}: {type(error).__name__}: {error}")
            continue
        failures += [f"{cell}: {message}" for message in
                     gate_bound_violations(result.implementations,
                                           literals)]
    return failures


def check_csc(record, method: str) -> List[str]:
    """Check one solved csc-encode member against its specification."""
    from repro.sg.properties import csc_violations
    from repro.verify import verify_implementation, weakly_bisimilar
    context = record.context
    solved = context.csc_result(method=method)
    spec = context.state_graph()
    label = f"{record.name}/{method}"
    failures = [f"{label}: CSC violation {violation}"
                for violation in csc_violations(solved.sg)[:3]]
    try:
        verify_implementation(solved.sg,
                              context.implementations(True, method))
    except Exception as error:
        failures.append(f"{label}: {type(error).__name__}: {error}")
    hidden = set(solved.inserted_names)
    if hidden != set(solved.sg.signals) - set(spec.signals):
        failures.append(f"{label}: inserted names do not match the new "
                        "signals")
    elif not weakly_bisimilar(spec, solved.sg, hidden):
        failures.append(f"{label}: not weakly bisimilar to the "
                        "specification")
    return failures


def reference_rows(texts: Dict[str, str]) -> Dict[str, bytes]:
    """Canonical row bytes of each base circuit (name -> ``.g`` text),
    computed in-process with the service's default job parameters."""
    from repro.dist.jobs import JobParams, canonical_row_bytes
    from repro.mapping.decompose import MapperConfig
    from repro.pipeline import Pipeline, PipelineConfig
    params = JobParams()
    config = PipelineConfig(
        libraries=params.libraries, with_siegel=params.with_siegel,
        mapper=MapperConfig(solve_csc=params.solve_csc,
                            csc_method=params.csc_method),
        keep_artifacts=False)
    return {name: canonical_row_bytes(Pipeline(config).run((name, text)).row)
            for name, text in sorted(texts.items())}


def check_service_row(payload: Optional[bytes], expected_name: str,
                      reference: bytes) -> List[str]:
    """A fetched row must equal the reference but for its name."""
    if payload is None:
        return [f"{expected_name}: no row fetched"]
    try:
        row = json.loads(payload.decode("utf-8"))
    except ValueError:
        return [f"{expected_name}: row is not JSON"]
    if row.get("name") != expected_name:
        return [f"{expected_name}: row names {row.get('name')!r}"]
    row["name"] = json.loads(reference.decode("utf-8"))["name"]
    if (json.dumps(row, sort_keys=True) + "\n").encode("utf-8") \
            != reference:
        return [f"{expected_name}: row differs from the in-process row"]
    return []
