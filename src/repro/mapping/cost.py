"""Cost model (§3.4, §4).

Gates are priced at :attr:`repro.synthesis.cover.RegionCover.complexity`:
literals of the minimized SOP or of its complement, whichever is fewer
(a 2-input XOR is a 4-literal gate).

* :func:`implementation_cost` — total literals + C elements of a
  standard-C implementation (the ``lit/C`` notation of Table 1's last
  columns);
* :func:`tree_decomposition_cost` — literal cost after naive AND/OR
  tree decomposition into k-literal gates, the stand-in for SIS
  ``tech_decomp -a 2`` (the "non-SI" column).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.boolean.minimize import cheaper_polarity
from repro.boolean.sop import SopCover
from repro.synthesis.cover import SignalImplementation


def signal_logic_cost(impl: SignalImplementation) -> int:
    """Literal cost of one signal's standard-C logic (its slice of
    :func:`implementation_cost`, without the C element).

    Counts the first-level cover gates (at their min-polarity
    complexity) and the OR joins of multi-region set/reset networks
    (one literal per joined cover).  The regions-based CSC solver ranks
    candidate insertion blocks by this measure — the estimated logic
    the new state signal would cost — so encoding and mapping price
    gates identically.
    """
    if impl.is_combinational:
        return impl.complete_complexity or 0
    literals = 0
    for covers in (impl.set_covers, impl.reset_covers):
        literals += sum(rc.complexity for rc in covers)
        if len(covers) > 1:
            literals += len(covers)  # the OR join network
    return literals


def implementation_cost(
        implementations: Dict[str, SignalImplementation]) -> Tuple[int, int]:
    """(literals, C elements) of a standard-C implementation.

    Sums :func:`signal_logic_cost` over every signal plus one C element
    per state-holding signal.
    """
    literals = 0
    c_elements = 0
    for impl in implementations.values():
        literals += signal_logic_cost(impl)
        if not impl.is_combinational:
            c_elements += 1
    return literals, c_elements


def tree_literal_cost(fanin: int, k: int) -> int:
    """Total literals of a k-ary AND/OR tree over ``fanin`` leaves.

    Greedy bottom-up grouping: each internal gate contributes its own
    fanin in literals.  A width-1 'tree' costs nothing (a wire).
    """
    if fanin <= 1:
        return 0
    total = 0
    width = fanin
    while width > k:
        groups, rest = divmod(width, k)
        total += groups * k
        width = groups + rest
    return total + width


def tree_decomposition_cost(cover: SopCover, complement: SopCover,
                            k: int) -> int:
    """Literal cost of the non-SI tree decomposition of a gate.

    The cheaper polarity is decomposed: each cube becomes an AND tree,
    the cube outputs are merged by an OR tree (single-cube covers skip
    the OR).  This is what SIS ``tech_decomp -a 2`` does, up to local
    polarity optimizations the paper's cost comparison does not rely on.
    """
    chosen = cheaper_polarity(cover, complement)
    if chosen.is_zero() or chosen.is_one():
        return 0
    total = 0
    for cube in chosen:
        total += tree_literal_cost(len(cube), k)
        if len(cube) == 1:
            total += 0  # a bare literal feeds the OR tree directly
    total += tree_literal_cost(chosen.num_cubes(), k)
    if chosen.num_cubes() == 1 and len(chosen.cubes[0]) == 1:
        total = 1  # degenerate single-literal gate: a buffer/inverter
    return total


def non_si_cost(implementations: Dict[str, SignalImplementation],
                k: int) -> Tuple[int, int]:
    """(literals, C elements) of the non-SI tree decomposition of a
    whole implementation — the Table-1 "non-SI" baseline."""
    literals = 0
    c_elements = 0
    for impl in implementations.values():
        if impl.is_combinational:
            literals += tree_decomposition_cost(
                impl.complete, impl.complete_complement, k)
            continue
        c_elements += 1
        for covers in (impl.set_covers, impl.reset_covers):
            for rc in covers:
                literals += tree_decomposition_cost(rc.cover,
                                                    rc.complement, k)
            if len(covers) > 1:
                literals += tree_literal_cost(len(covers), k)
    return literals, c_elements
