"""State-graph substrate.

* :class:`~repro.sg.graph.StateGraph` — labelled transition systems over
  binary-encoded states, with diamond enumeration;
* :mod:`~repro.sg.reachability` — token-game reachability from an STG,
  with consistent binary encoding inference;
* :mod:`~repro.sg.properties` — the speed-independence property suite
  (consistency, determinism, commutativity, output persistency, CSC);
* :mod:`~repro.sg.regions` — excitation / switching / quiescent regions
  and trigger events;
* :mod:`~repro.sg.encoding` — the packed view every state set is a
  bitset of, and next-state functions.
"""

from repro.sg.graph import StateGraph, Diamond
from repro.sg.reachability import state_graph_of
from repro.sg.properties import PropertyReport, check_speed_independence
from repro.sg.regions import (
    ExcitationRegion,
    excitation_regions,
    quiescent_region,
    switching_region,
    trigger_events,
)

__all__ = [
    "StateGraph",
    "Diamond",
    "state_graph_of",
    "PropertyReport",
    "check_speed_independence",
    "ExcitationRegion",
    "excitation_regions",
    "switching_region",
    "quiescent_region",
    "trigger_events",
]
