"""Gate-level verification of a standard-C implementation.

The theory the paper builds on (Beerel/Meng ICCAD'92, Kondratyev et al.
DAC'94) reduces hazard-freedom of the standard-C architecture to local
conditions on the cover functions; this module re-checks those
conditions on the finished covers, walking every reachable state of the
(final, post-insertion) state graph and evaluating each cover on the
state's code.  It shares only the region queries of
:mod:`repro.sg.regions` (excitation and restricted quiescent regions)
with the synthesis code, not its cover construction or evaluation:

1. **functional correctness** — in every state the gate network drives
   each output signal toward its implied next value (combinational
   covers equal the next-state function; C elements receive set=1 ⇒
   rising, reset=1 ⇒ falling, neither ⇒ hold);
2. **no set/reset conflicts** — set and reset networks of a C element
   never both evaluate to 1;
3. **one-hot first level** — at most one excitation-region cover of a
   signal evaluates to 1 in any state (the property that makes
   second-level OR decomposition free, §2.2);
4. **Monotonous Cover conditions** — each region cover is 1 on its ER,
   0 outside ER ∪ QR, and changes at most once inside the QR.

Any violation raises :class:`VerificationError`.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import VerificationError
from repro.sg.encoding import next_value
from repro.sg.graph import StateGraph
from repro.sg.regions import excitation_regions, quiescent_region
from repro.synthesis.cover import SignalImplementation


def verify_implementation(sg: StateGraph,
                          implementations: Dict[str, SignalImplementation]) -> None:
    """Run all gate-level checks; raise on the first violation."""
    missing = set(sg.outputs) - set(implementations)
    if missing:
        raise VerificationError(
            f"output signals {sorted(missing)} have no implementation")
    for signal, impl in sorted(implementations.items()):
        if impl.is_combinational:
            _verify_combinational(sg, impl)
        else:
            _verify_standard_c(sg, impl)
        _verify_monotonous_covers(sg, impl)


def _verify_combinational(sg: StateGraph,
                          impl: SignalImplementation) -> None:
    cover = impl.complete
    for state in sg.states:
        implied = next_value(sg, state, impl.signal)
        driven = int(cover.evaluate(sg.code(state)))
        if driven != implied:
            raise VerificationError(
                f"complete cover of {impl.signal!r} drives {driven} but "
                f"the specification implies {implied} in state {state!r}")


def _verify_standard_c(sg: StateGraph,
                       impl: SignalImplementation) -> None:
    signal = impl.signal
    for state in sg.states:
        code = sg.code(state)
        set_value = int(any(rc.cover.evaluate(code)
                            for rc in impl.set_covers))
        reset_value = int(any(rc.cover.evaluate(code)
                              for rc in impl.reset_covers))
        if set_value and reset_value:
            raise VerificationError(
                f"set and reset networks of {signal!r} conflict in "
                f"state {state!r}")
        implied = next_value(sg, state, signal)
        current = code[signal]
        if set_value:
            driven = 1
        elif reset_value:
            driven = 0
        else:
            driven = current
        if driven != implied:
            raise VerificationError(
                f"C element of {signal!r} drives {driven} but the "
                f"specification implies {implied} in state {state!r}")
        for covers in (impl.set_covers, impl.reset_covers):
            hot = [rc for rc in covers if rc.cover.evaluate(code)]
            if len(hot) > 1:
                raise VerificationError(
                    f"first-level covers of {signal!r} are not one-hot "
                    f"in state {state!r}: "
                    f"{[rc.event for rc in hot]}")


def _verify_monotonous_covers(sg: StateGraph,
                              impl: SignalImplementation) -> None:
    states, arcs = sg.states, sg.encoding().arcs
    for direction, covers in (("+", impl.set_covers),
                              ("-", impl.reset_covers)):
        event = impl.signal + direction
        regions = excitation_regions(sg, event)
        by_index = {region.index: region for region in regions}
        claimed = [r.index for rc in covers for r in rc.regions]
        if sorted(claimed) != sorted(by_index):
            raise VerificationError(
                f"covers of {event} claim regions {sorted(claimed)} but "
                f"the SG has {sorted(by_index)}")
        for rc in covers:
            group = []
            for region in rc.regions:
                fresh = by_index.get(region.index)
                if fresh is None or fresh.states != region.states:
                    raise VerificationError(
                        f"cover of {event}/{region.index} refers to a "
                        "stale excitation region")
                group.append(fresh)
            quiescent = quiescent_region(sg, group, regions)
            er = 0
            for region in group:
                er |= region.bits
            inside = er | quiescent
            label = f"{event}/{group[0].index}"
            values = [rc.cover.evaluate(sg.code(state)) for state in states]
            for i, state in enumerate(states):
                if (er >> i) & 1 and not values[i]:
                    raise VerificationError(
                        f"cover of {label} misses an ER state {state!r}")
                if not (inside >> i) & 1 and values[i]:
                    raise VerificationError(
                        f"cover of {label} covers state {state!r} "
                        "outside ER ∪ QR")
            for i, state in enumerate(states):
                if not (quiescent >> i) & 1 or values[i]:
                    continue
                for _, j in arcs[i]:
                    if (quiescent >> j) & 1 and values[j]:
                        raise VerificationError(
                            f"cover of {label} is not monotonous inside "
                            f"its QR (rises at {states[j]!r})")
