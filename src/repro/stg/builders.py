"""Programmatic STG construction helpers.

The benchmark suite and the property-based tests need families of valid
STGs.  These helpers build the standard asynchronous-control patterns:

* :func:`cycle` — a single loop of events (handshake expansions);
* :func:`marked_graph` — an arbitrary marked graph given as event pairs;
* :func:`pipeline_stg` — an n-stage micropipeline control;
* :func:`parallelizer_stg` — a fork/join of two handshakes;
* :func:`sequencer_stg` — one request serialised into n handshakes.

All constructors return consistent, deterministic, commutative,
output-persistent STGs with CSC (the test-suite asserts this for every
published benchmark).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.errors import StgError
from repro.stg.stg import Stg


def _declare(stg: Stg, inputs: Iterable[str], outputs: Iterable[str],
             internal: Iterable[str] = ()) -> None:
    for signal in inputs:
        stg.add_input(signal)
    for signal in outputs:
        stg.add_output(signal)
    for signal in internal:
        stg.add_internal(signal)


def cycle(name: str, inputs: Sequence[str], outputs: Sequence[str],
          events: Sequence[str], internal: Sequence[str] = ()) -> Stg:
    """A single cycle of events; the token sits on the last→first arc.

    ``events`` are labels like ``"a+"``; each consecutive pair is
    connected with an implicit place, and the loop is closed with a
    marked place.
    """
    if len(events) < 2:
        raise StgError("a cycle needs at least two events")
    stg = Stg(name)
    _declare(stg, inputs, outputs, internal)
    for label in events:
        stg.ensure_transition(label)
    for source, target in zip(events, events[1:]):
        stg.connect(source, target)
    stg.connect(events[-1], events[0], marked=True)
    stg.validate()
    return stg


def marked_graph(name: str, inputs: Sequence[str], outputs: Sequence[str],
                 arcs: Sequence[Tuple[str, str]],
                 marked_arcs: Sequence[Tuple[str, str]],
                 internal: Sequence[str] = ()) -> Stg:
    """A marked graph given as transition→transition arc pairs.

    ``marked_arcs`` lists the arcs carrying the initial token; they are
    added in addition to ``arcs`` (do not repeat them).
    """
    stg = Stg(name)
    _declare(stg, inputs, outputs, internal)
    for source, target in list(arcs) + list(marked_arcs):
        stg.ensure_transition(source)
        stg.ensure_transition(target)
    for source, target in arcs:
        stg.connect(source, target)
    for source, target in marked_arcs:
        stg.connect(source, target, marked=True)
    stg.validate()
    return stg


def pipeline_stg(stages: int, name: str = "") -> Stg:
    """An n-stage micropipeline control (half-handshake latch chain).

    Signals: input ``ri``/output ``ao`` on the left, output ``ro``/input
    ``ai`` on the right, plus one internal latch-control signal per
    stage.  Classic C-element chain behaviour.
    """
    if stages < 1:
        raise StgError("pipeline needs at least one stage")
    name = name or f"pipeline{stages}"
    controls = [f"c{i}" for i in range(stages)]
    chain = ["ri"] + controls + ["ro"]
    arcs: List[Tuple[str, str]] = []
    marked: List[Tuple[str, str]] = []
    # Request wavefronts propagate left to right on both phases.
    for phase in ("+", "-"):
        for left, right in zip(chain, chain[1:]):
            arcs.append((left + phase, right + phase))
    # Left environment handshake: ao mirrors c0, ri waits for ao.
    arcs += [("c0+", "ao+"), ("ao+", "ri-"), ("c0-", "ao-")]
    marked += [("ao-", "ri+")]
    # Right environment handshake: classic req/ack on ro/ai.
    arcs += [("ro+", "ai+"), ("ai+", "ro-"), ("ro-", "ai-")]
    marked += [("ai-", "ro+")]
    # Backpressure: a stage falls only after its successor rose, and
    # rises again only after its successor fell (token: all start low).
    successors = controls[1:] + ["ro"]
    for control, successor in zip(controls, successors):
        arcs.append((successor + "+", control + "-"))
        marked.append((successor + "-", control + "+"))
    return marked_graph(name, ["ri", "ai"], ["ro", "ao"], arcs, marked,
                        internal=controls)


def parallelizer_stg(name: str = "parallelizer") -> Stg:
    """Fork/join: one request fans out to two concurrent handshakes.

    Input handshake (``r``, ``a``) forks into two output handshakes
    (``ro1``/``ai1``, ``ro2``/``ai2``); the acknowledge ``a`` is produced
    after both branches complete.
    """
    arcs = [
        ("r+", "ro1+"), ("r+", "ro2+"),
        ("ro1+", "ai1+"), ("ro2+", "ai2+"),
        ("ai1+", "a+"), ("ai2+", "a+"),
        ("a+", "r-"),
        ("r-", "ro1-"), ("r-", "ro2-"),
        ("ro1-", "ai1-"), ("ro2-", "ai2-"),
        ("ai1-", "a-"), ("ai2-", "a-"),
    ]
    marked = [("a-", "r+")]
    return marked_graph(name, ["r", "ai1", "ai2"], ["a", "ro1", "ro2"],
                        arcs, marked)


def sequencer_stg(branches: int, name: str = "") -> Stg:
    """One input handshake serialised into ``branches`` sub-handshakes.

    The sub-handshakes are chained on the *rising* acknowledge
    (``ai_i+ → ro_{i+1}+``) so that every phase of the cycle has a
    distinct binary code — a naive fall-chained sequencer violates CSC.
    """
    if branches < 2:
        raise StgError("sequencer needs at least two branches")
    name = name or f"sequencer{branches}"
    arcs: List[Tuple[str, str]] = [("r+", "ro1+")]
    marked: List[Tuple[str, str]] = [("a-", "r+")]
    for i in range(1, branches + 1):
        # d_i is the "branch i done" state signal; without it the
        # phases of the cycle would share binary codes (CSC).
        arcs += [(f"ro{i}+", f"ai{i}+"), (f"ai{i}+", f"d{i}+"),
                 (f"d{i}+", f"ro{i}-"), (f"ro{i}-", f"ai{i}-"),
                 ("r-", f"d{i}-"), (f"d{i}-", "a-")]
        next_label = f"ro{i + 1}+" if i < branches else "a+"
        arcs.append((f"d{i}+", next_label))
    arcs += [("a+", "r-")]
    # a- must also wait for all falling acknowledges, otherwise the
    # next cycle could observe a stale branch handshake
    arcs += [(f"ai{i}-", "a-") for i in range(1, branches + 1)]
    inputs = ["r"] + [f"ai{i}" for i in range(1, branches + 1)]
    outputs = ["a"] + [f"ro{i}" for i in range(1, branches + 1)]
    internal = [f"d{i}" for i in range(1, branches + 1)]
    return marked_graph(name, inputs, outputs, arcs, marked,
                        internal=internal)
