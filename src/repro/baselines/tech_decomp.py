"""Non-SI tree decomposition (the SIS ``tech_decomp -a 2`` stand-in).

Decomposes every cover gate of a standard-C implementation into AND/OR
trees of at most ``k`` literals per gate, *ignoring* speed-independence
(no acknowledgment signals are inserted; the result may be hazardous).
The paper uses this only as a cost yardstick — "the cost of decomposing
the original implementation of the circuit into 2-literal gates without
preserving speed-independence" (§4) — to measure the overhead its own
method pays for preserving SI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.boolean.cube import Cube
from repro.boolean.minimize import cheaper_polarity
from repro.boolean.sop import SopCover
from repro.mapping.cost import non_si_cost
from repro.synthesis.cover import SignalImplementation


@dataclass
class TreeGate:
    """One gate of the tree decomposition."""

    name: str
    kind: str              # "and" or "or"
    fanin: Tuple[str, ...]

    @property
    def literals(self) -> int:
        return len(self.fanin)


def _tree(kind: str, leaves: List[str], k: int, prefix: str,
          gates: List[TreeGate]) -> str:
    """Reduce ``leaves`` with a k-ary tree; return the root net name."""
    level = 0
    width = list(leaves)
    while len(width) > 1:
        grouped: List[str] = []
        index = 0
        while index < len(width):
            group = width[index:index + k]
            index += k
            if len(group) == 1:
                grouped.append(group[0])
                continue
            net = f"{prefix}_{kind}{level}_{len(gates)}"
            gates.append(TreeGate(net, kind, tuple(group)))
            grouped.append(net)
        width = grouped
        level += 1
    return width[0]


def decompose_cover(cover: SopCover, complement: SopCover, k: int,
                    prefix: str) -> Tuple[str, List[TreeGate], bool]:
    """Tree-decompose the cheaper polarity of a gate.

    Returns ``(root_net, gates, inverted)`` where ``inverted`` records
    that the complemented polarity was used (an inverter on the output
    is assumed free, as in the paper's literal-count model).
    """
    chosen = cheaper_polarity(cover, complement)
    inverted = chosen is not cover
    gates: List[TreeGate] = []
    if chosen.is_zero() or chosen.is_one():
        return ("const", gates, inverted)
    cube_nets: List[str] = []
    for i, cube in enumerate(chosen):
        leaves = [name if value else f"{name}'"
                  for name, value in cube]
        if len(leaves) == 1:
            cube_nets.append(leaves[0])
            continue
        cube_nets.append(_tree("and", leaves, k, f"{prefix}_c{i}", gates))
    root = (_tree("or", cube_nets, k, prefix, gates)
            if len(cube_nets) > 1 else cube_nets[0])
    return root, gates, inverted


def tech_decomp(implementations: Dict[str, SignalImplementation],
                k: int) -> List[TreeGate]:
    """Tree-decompose every cover gate of an implementation."""
    gates: List[TreeGate] = []
    for signal, impl in sorted(implementations.items()):
        if impl.is_combinational:
            _, new, _ = decompose_cover(impl.complete,
                                        impl.complete_complement, k,
                                        f"{signal}_cc")
            gates.extend(new)
            continue
        for phase, covers in (("s", impl.set_covers),
                              ("r", impl.reset_covers)):
            nets = []
            for rc in covers:
                root, new, _ = decompose_cover(
                    rc.cover, rc.complement, k,
                    f"{signal}_{phase}{rc.region.index}")
                gates.extend(new)
                nets.append(root)
            if len(nets) > 1:
                _tree("or", nets, k, f"{signal}_{phase}", gates)
    return gates


def tech_decomp_cost(implementations: Dict[str, SignalImplementation],
                     k: int) -> Tuple[int, int]:
    """(literals, C elements) — the Table-1 "non-SI" cost column."""
    return non_si_cost(implementations, k)
