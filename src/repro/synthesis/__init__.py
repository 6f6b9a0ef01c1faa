"""Monotonous-cover synthesis and the standard-C architecture.

* :mod:`~repro.synthesis.library` — literal-bounded gate libraries;
* :mod:`~repro.synthesis.cover` — one output's covering problems,
  posed once and solved into its monotonous covers per excitation
  region (§2.2) and its complete cover, if it can be combinational;
* :mod:`~repro.synthesis.netlist` — the standard-C netlist (first-level
  AND-OR cover gates, OR join networks, C elements / wires) with the
  paper's complexity statistics.
"""

from repro.synthesis.library import Gate, GateLibrary
from repro.synthesis.cover import (
    RegionCover,
    ResynthesisStats,
    SignalImplementation,
    synthesize_all,
    synthesize_signal,
)
from repro.synthesis.netlist import Netlist, NetlistStats

__all__ = [
    "Gate",
    "GateLibrary",
    "RegionCover",
    "ResynthesisStats",
    "SignalImplementation",
    "synthesize_signal",
    "synthesize_all",
    "Netlist",
    "NetlistStats",
]
