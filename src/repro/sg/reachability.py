"""STG → state-graph reachability with consistent encoding inference.

The token game of the underlying Petri net generates the marking graph;
each marking must then be labelled with a binary signal vector such that
every ``a+`` arc goes 0→1 on ``a`` (and only on ``a``), every ``a-`` arc
1→0.  Initial signal values are not part of the ``.g`` format — they are
*inferred*: the parity of signal flips along any path from the initial
marking must be path-independent (otherwise the STG is inconsistent),
and the absolute initial value of each signal is pinned by the direction
of the first transition of that signal reachable on any path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro._util import FrozenVector
from repro.errors import ConsistencyError
from repro.sg.graph import StateGraph
from repro.sg.properties import consistency_violations
from repro.stg.petri import Marking
from repro.stg.stg import Stg


def state_graph_of(stg: Stg, max_states: int = 200_000) -> StateGraph:
    """Build the encoded state graph of an STG.

    Raises :class:`ConsistencyError` if the labelling cannot be made
    consistent, and propagates 1-safety violations from the net.
    """
    stg.validate()
    net = stg.net
    signals = stg.signals

    # Phase 1: explore markings, recording the flip parity of every
    # signal relative to the initial marking.
    initial = net.initial_marking
    parity: Dict[Marking, FrozenVector] = {
        initial: FrozenVector({s: 0 for s in signals})}
    order: List[Marking] = [initial]
    arcs: List[Tuple[Marking, str, Marking]] = []
    index = 0
    while index < len(order):
        marking = order[index]
        index += 1
        for transition in net.enabled(marking):
            label = stg.label_of(transition)
            successor = net.fire(transition, marking)
            flipped = parity[marking].set(
                label.signal, 1 - parity[marking][label.signal])
            if successor in parity:
                if parity[successor] != flipped:
                    raise ConsistencyError(
                        f"signal flip parity of marking "
                        f"{sorted(successor)} is path-dependent "
                        f"(around signal {label.signal!r}); the STG is "
                        "not consistent")
            else:
                if len(parity) >= max_states:
                    raise ConsistencyError(
                        f"state graph exceeds {max_states} states")
                parity[successor] = flipped
                order.append(successor)
            arcs.append((marking, label.event, successor))

    # Phase 2: pin the absolute initial value of each signal from the
    # direction of its enabled transitions: if a+ can fire at a marking
    # whose parity for a is p, then initial[a] XOR p == 0.
    initial_value: Dict[str, int] = {}
    for marking, event, _ in arcs:
        signal, direction = event[:-1], event[-1]
        before = 0 if direction == "+" else 1
        deduced = before ^ parity[marking][signal]
        known = initial_value.get(signal)
        if known is None:
            initial_value[signal] = deduced
        elif known != deduced:
            raise ConsistencyError(
                f"initial value of signal {signal!r} is contradictory "
                "(rising and falling transitions disagree); the STG is "
                "not consistent")
    missing = set(signals) - set(initial_value)
    if missing:
        raise ConsistencyError(
            f"signals {sorted(missing)} never fire any reachable "
            "transition; their value is undefined")

    # Phase 3: materialize the state graph.
    sg = StateGraph(stg.name, stg.inputs, stg.outputs)
    for marking in order:
        code = FrozenVector({
            s: initial_value[s] ^ parity[marking][s] for s in signals})
        sg.add_state(marking, code)
    for source, event, target in arcs:
        sg.add_arc(source, event, target)
    sg.set_initial(initial)

    # Every arc must flip exactly its own signal, in its direction.
    # Checking builds the encoding, which also warms the graph's cache
    # for every later synthesis stage.
    problems = consistency_violations(sg)
    if problems:
        raise ConsistencyError(problems[0])
    return sg
