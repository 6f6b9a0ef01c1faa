"""Monotonous-cover synthesis and the standard-C architecture.

* :mod:`~repro.synthesis.library` — literal-bounded gate libraries;
* :mod:`~repro.synthesis.cover` — monotonous covers per excitation
  region (§2.2) and complete covers for combinational signals;
* :mod:`~repro.synthesis.netlist` — the standard-C netlist (first-level
  AND-OR cover gates, OR join networks, C elements / wires) with the
  paper's complexity statistics.
"""

from repro.synthesis.library import Gate, GateLibrary
from repro.synthesis.cover import (
    RegionCover,
    ResynthesisStats,
    SignalImplementation,
    complete_cover,
    monotonous_cover,
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
    "monotonous_cover",
    "complete_cover",
    "synthesize_signal",
    "synthesize_all",
    "Netlist",
    "NetlistStats",
]
