"""Weak-bisimulation conformance between specification and mapped SG.

Signal insertions refine the state graph: new internal events
(``x0+``, ``x0-``, ...) appear and some output events are delayed behind
them.  The mapped behaviour must remain *observationally equivalent* to
the specification once the inserted signals are hidden — this module
checks weak bisimilarity between the two graphs with the inserted
events treated as silent (τ) moves.

The check is the standard greatest-fixpoint refinement on the product
space, specialized to the (finite, modest) graphs this library works
with.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.sg.graph import State, StateGraph, event_signal


def _tau_closure(sg: StateGraph, state: State,
                 hidden: Set[str]) -> Set[State]:
    """States reachable via hidden-signal events only (incl. itself)."""
    closure = {state}
    frontier = [state]
    while frontier:
        current = frontier.pop()
        for event, target in sg.successors(current):
            if event_signal(event) in hidden and target not in closure:
                closure.add(target)
                frontier.append(target)
    return closure


def _weak_moves(sg: StateGraph, state: State,
                hidden: Set[str]) -> Dict[str, Set[State]]:
    """Observable event → states reachable by ``τ* e τ*`` from state."""
    moves: Dict[str, Set[State]] = {}
    for pre in _tau_closure(sg, state, hidden):
        for event, target in sg.successors(pre):
            if event_signal(event) in hidden:
                continue
            moves.setdefault(event, set()).update(
                _tau_closure(sg, target, hidden))
    return moves


def weakly_bisimilar(spec: StateGraph, impl: StateGraph,
                     hidden_signals: Set[str]) -> bool:
    """Weak bisimilarity of two SGs with ``hidden_signals`` silent.

    ``hidden_signals`` are hidden on *both* sides (the specification
    normally contains none of them).  Observable alphabets must agree.
    """
    spec_obs = {s for s in spec.signals if s not in hidden_signals}
    impl_obs = {s for s in impl.signals if s not in hidden_signals}
    if spec_obs != impl_obs:
        return False

    # Iteratively refine a candidate relation starting from all pairs
    # reachable in the weak product.
    relation: Set[Tuple[State, State]] = set()
    frontier: List[Tuple[State, State]] = [(spec.initial, impl.initial)]
    relation.add((spec.initial, impl.initial))
    while frontier:
        spec_state, impl_state = frontier.pop()
        spec_moves = _weak_moves(spec, spec_state, hidden_signals)
        impl_moves = _weak_moves(impl, impl_state, hidden_signals)
        for event, targets in spec_moves.items():
            for impl_target in impl_moves.get(event, ()):
                for spec_target in targets:
                    pair = (spec_target, impl_target)
                    if pair not in relation:
                        relation.add(pair)
                        frontier.append(pair)

    # Greatest-fixpoint pruning: a pair survives iff every observable
    # move on either side can be matched by the other into a surviving
    # pair.
    changed = True
    while changed:
        changed = False
        for pair in sorted(relation, key=repr):
            spec_state, impl_state = pair
            spec_moves = _weak_moves(spec, spec_state, hidden_signals)
            impl_moves = _weak_moves(impl, impl_state, hidden_signals)
            if set(spec_moves) != set(impl_moves):
                relation.discard(pair)
                changed = True
                continue
            ok = True
            for event, spec_targets in spec_moves.items():
                impl_targets = impl_moves[event]
                for spec_target in spec_targets:
                    if not any((spec_target, t) in relation
                               for t in impl_targets):
                        ok = False
                        break
                if not ok:
                    break
                for impl_target in impl_targets:
                    if not any((s, impl_target) in relation
                               for s in spec_targets):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                relation.discard(pair)
                changed = True
    return (spec.initial, impl.initial) in relation
