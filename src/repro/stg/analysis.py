"""Structural Petri-net / STG analysis.

Classical structure theory used to pre-qualify specifications before
the (exponential) state-space construction:

* net class predicates — marked graph, state machine, free choice;
* marked-graph liveness/safety: every directed cycle must carry
  exactly one token for a live and 1-safe MG behaviour of the kind the
  benchmark suite uses;
* auto-concurrency and self-trigger detection on the STG level (both
  break consistency before reachability even starts);
* a conservative syntactic concurrency relation for marked graphs.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.errors import StgError
from repro.stg.petri import PetriNet
from repro.stg.stg import Stg


def is_marked_graph(net: PetriNet) -> bool:
    """Every place has at most one producer and one consumer."""
    return all(len(net.place_preset(p)) <= 1
               and len(net.place_postset(p)) <= 1
               for p in net.places)


def is_state_machine(net: PetriNet) -> bool:
    """Every transition has exactly one input and one output place."""
    return all(len(net.preset(t)) == 1 and len(net.postset(t)) == 1
               for t in net.transitions)


def is_free_choice(net: PetriNet) -> bool:
    """Conflicts are free: if two transitions share an input place,
    they share all their input places."""
    for place in net.places:
        consumers = list(net.place_postset(place))
        if len(consumers) < 2:
            continue
        presets = [net.preset(t) for t in consumers]
        if any(preset != presets[0] for preset in presets[1:]):
            return False
    return True


def directed_cycles(net: PetriNet, limit: int = 100_000) -> List[List[str]]:
    """Simple directed cycles of a *marked graph*, as transition lists.

    Uses the place-per-arc structure of MGs: the cycle space is
    enumerated over transitions with a bounded DFS.  Raises on
    non-marked-graph inputs (the notion used here — one token per
    cycle — is only meaningful for MGs).
    """
    if not is_marked_graph(net):
        raise StgError("cycle analysis requires a marked graph")
    successors: Dict[str, List[Tuple[str, str]]] = {
        t: [] for t in net.transitions}
    for place in net.places:
        producers = net.place_preset(place)
        consumers = net.place_postset(place)
        if producers and consumers:
            (producer,) = producers
            (consumer,) = consumers
            successors[producer].append((place, consumer))

    cycles: List[List[str]] = []
    seen: Set[FrozenSet[str]] = set()
    counter = 0

    def dfs(origin: str, current: str, path: List[str],
            on_path: Set[str]) -> None:
        nonlocal counter
        counter += 1
        if counter > limit:
            raise StgError("cycle enumeration limit exceeded")
        for _, nxt in successors[current]:
            if nxt == origin:
                key = frozenset(path)
                if key not in seen:
                    seen.add(key)
                    cycles.append(list(path))
            elif nxt not in on_path and nxt > origin:
                path.append(nxt)
                on_path.add(nxt)
                dfs(origin, nxt, path, on_path)
                on_path.remove(nxt)
                path.pop()

    for origin in net.transitions:
        dfs(origin, origin, [origin], {origin})
    return cycles


def cycle_token_counts(net: PetriNet) -> List[Tuple[List[str], int]]:
    """(cycle, token count) pairs for a marked graph."""
    marking = net.initial_marking
    result = []
    for cycle in directed_cycles(net):
        tokens = 0
        extended = cycle + [cycle[0]]
        for left, right in zip(extended, extended[1:]):
            for place in net.postset(left):
                if right in net.place_postset(place):
                    if place in marking:
                        tokens += 1
                    break
        result.append((cycle, tokens))
    return result


def marked_graph_live_and_safe(net: PetriNet) -> List[str]:
    """MG liveness/safety diagnostics.

    A marked graph is live iff every directed cycle carries at least
    one token, and behaves 1-safe for STG purposes when no cycle
    carries more than one.  Returns human-readable problems (empty =
    good).
    """
    problems = []
    for cycle, tokens in cycle_token_counts(net):
        if tokens == 0:
            problems.append(
                f"cycle {' -> '.join(cycle)} carries no token "
                "(deadlock)")
        elif tokens > 1:
            problems.append(
                f"cycle {' -> '.join(cycle)} carries {tokens} tokens "
                "(unsafe interleaving)")
    return problems


def auto_concurrent_signals(stg: Stg) -> List[str]:
    """Signals with two transitions concurrently enabled somewhere.

    Detected syntactically for marked graphs: two transitions of the
    same signal that do not lie on a common directed cycle can fire
    concurrently, which breaks consistency.  Conservative (may return
    an empty list for nets where reachability would still find
    auto-concurrency; exact checking happens at SG construction).
    """
    net = stg.net
    if not is_marked_graph(net):
        return []
    cycles = directed_cycles(net)
    on_common_cycle: Set[Tuple[str, str]] = set()
    for cycle in cycles:
        for left in cycle:
            for right in cycle:
                on_common_cycle.add((left, right))
    bad: List[str] = []
    for signal in stg.signals:
        transitions = [str(t) for t in stg.transitions_of(signal)]
        for i, left in enumerate(transitions):
            for right in transitions[i + 1:]:
                if (left, right) not in on_common_cycle:
                    bad.append(signal)
                    break
            else:
                continue
            break
    return bad


def structural_report(stg: Stg) -> Dict[str, object]:
    """One-call structural summary used by the CLI."""
    net = stg.net
    report: Dict[str, object] = {
        "marked_graph": is_marked_graph(net),
        "state_machine": is_state_machine(net),
        "free_choice": is_free_choice(net),
        "places": len(net.places),
        "transitions": len(net.transitions),
    }
    if report["marked_graph"]:
        report["liveness_problems"] = marked_graph_live_and_safe(net)
        report["auto_concurrent_signals"] = auto_concurrent_signals(stg)
    return report
