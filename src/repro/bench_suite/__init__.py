"""The 32-circuit benchmark suite of Table 1.

The original 1997 benchmark ``.g`` files are not distributed with the
paper; every circuit here is a *reconstruction* — a valid STG
(consistent, deterministic, commutative, output-persistent, CSC) of the
same name, built from the standard asynchronous-control patterns
(handshake joins, fork/join controllers, sequencers, micropipelines)
with signal counts and initial cover complexities in the range Table 1
reports.  Absolute Table-1 values therefore differ from the paper's;
what carries over is the shape of its claims.

Use :func:`~repro.bench_suite.circuits.benchmark` /
:func:`~repro.bench_suite.circuits.benchmark_names` to access them.
"""

from repro.bench_suite.circuits import (benchmark, benchmark_names,
                                        load_all)

# Circuits that exercise every regime (small classics, mid-size
# controllers, high-fanin joins, one of the hard input-dominated ones)
# while keeping a default battery under a few minutes.  Shared by the
# benchmark harness conftest and ``si-mapper bench --subset``.
SUBSET = (
    "chu133", "converta", "dff", "half", "hazard", "nowick",
    "rcv-setup", "vbe5b", "vbe6a", "mp-forward-pkt", "alloc-outbound",
    "seq_mix", "trimos-send", "mr1", "wrdatab", "vbe10b",
)


def subset_names():
    """The representative benchmark subset, as a fresh list."""
    return list(SUBSET)


__all__ = ["benchmark", "benchmark_names", "load_all", "SUBSET",
           "subset_names"]
