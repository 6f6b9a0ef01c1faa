"""The standard-C architecture netlist (Figure 2 of the paper).

Each output signal is implemented as:

* first level — one complex AND-OR gate per excitation region (the
  monotonous covers);
* second level — OR networks joining the set covers and the reset
  covers (their outputs are one-hot, so the ORs can be split freely
  without breaking speed-independence);
* a 2-input Muller C element per state-holding signal; combinational
  signals (complete covers) collapse the C element to a wire.

The netlist records enough structure to produce the paper's statistics:
the gate-complexity histogram of Table 1's first column group, the
literal/C-element cost of its last column group, and per-gate library
fitting for the mapping loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.boolean.sop import SopCover
from repro.synthesis.cover import RegionCover, SignalImplementation
from repro.synthesis.library import GateLibrary


@dataclass
class NetlistGate:
    """One combinational gate of the netlist."""

    name: str
    output: str       # net name this gate drives
    cover: SopCover   # the positive cover f
    complexity: int   # min(lit(f), lit(f')) — the paper's measure
    role: str         # "cover", "or-join", "complete"

    @property
    def fanin(self) -> Tuple[str, ...]:
        return self.cover.support


@dataclass
class CElementInstance:
    """A 2-input Muller C element holding one output signal."""

    signal: str
    set_net: str
    reset_net: str


@dataclass
class NetlistStats:
    """The statistics the paper reports."""

    histogram: Dict[int, int]    # gate complexity -> count (cover gates)
    literals: int                # total literal cost incl. OR joins
    c_elements: int
    max_complexity: int

    def histogram_row(self, up_to: int = 7) -> List[int]:
        """Counts for n = 2..up_to, with the last bucket open-ended."""
        row = []
        for n in range(2, up_to):
            row.append(self.histogram.get(n, 0))
        row.append(sum(count for n, count in self.histogram.items()
                       if n >= up_to))
        return row

    def cost_string(self) -> str:
        """The paper's ``literals/C-elements`` cost notation."""
        return f"{self.literals}/{self.c_elements}"


class Netlist:
    """A standard-C netlist for a set of signal implementations."""

    def __init__(self, name: str,
                 implementations: Dict[str, SignalImplementation]):
        self.name = name
        self.implementations = dict(implementations)
        self.gates: List[NetlistGate] = []
        self.c_elements: List[CElementInstance] = []
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build(self) -> None:
        for signal in sorted(self.implementations):
            impl = self.implementations[signal]
            if impl.is_combinational:
                self._build_combinational(impl)
            else:
                self._build_standard_c(impl)

    def _build_combinational(self, impl: SignalImplementation) -> None:
        assert impl.complete is not None
        self.gates.append(NetlistGate(
            name=f"g_{impl.signal}",
            output=impl.signal,
            cover=impl.complete,
            complexity=impl.complete_complexity or 0,
            role="complete"))

    def _build_standard_c(self, impl: SignalImplementation) -> None:
        set_nets = self._build_cover_gates(impl.signal, impl.set_covers,
                                           "set")
        reset_nets = self._build_cover_gates(impl.signal,
                                             impl.reset_covers, "reset")
        set_net = self._join(impl.signal, set_nets, "set")
        reset_net = self._join(impl.signal, reset_nets, "reset")
        self.c_elements.append(CElementInstance(impl.signal, set_net,
                                                reset_net))

    def _build_cover_gates(self, signal: str,
                           covers: List[RegionCover],
                           phase: str) -> List[str]:
        nets = []
        for cover in covers:
            net = f"{phase}_{signal}_{cover.region.index}"
            self.gates.append(NetlistGate(
                name=f"g_{net}",
                output=net,
                cover=cover.cover,
                complexity=cover.complexity,
                role="cover"))
            nets.append(net)
        return nets

    def _join(self, signal: str, nets: List[str], phase: str) -> str:
        """OR several one-hot cover nets into one set/reset net.

        A single cover needs no OR gate — the net is used directly.
        """
        if len(nets) == 1:
            return nets[0]
        from repro.boolean.cube import Cube
        joined = f"{phase}_{signal}"
        cover = SopCover([Cube({net: 1}) for net in nets])
        self.gates.append(NetlistGate(
            name=f"g_{joined}",
            output=joined,
            cover=cover,
            complexity=len(nets),
            role="or-join"))
        return joined

    # ------------------------------------------------------------------
    # Statistics and queries
    # ------------------------------------------------------------------

    def cover_gates(self) -> List[NetlistGate]:
        """First-level cover gates + complete-cover gates (the gates the
        paper's Table-1 histogram counts)."""
        return [g for g in self.gates if g.role in ("cover", "complete")]

    def stats(self) -> NetlistStats:
        histogram: Dict[int, int] = {}
        for gate in self.cover_gates():
            histogram[gate.complexity] = histogram.get(gate.complexity,
                                                       0) + 1
        literals = sum(g.complexity for g in self.cover_gates())
        literals += sum(g.complexity for g in self.gates
                        if g.role == "or-join")
        max_complexity = max((g.complexity for g in self.cover_gates()),
                             default=0)
        return NetlistStats(histogram, literals, len(self.c_elements),
                            max_complexity)

    def oversized_gates(self, library: GateLibrary) -> List[NetlistGate]:
        """Cover gates that do not fit the library.

        OR-join gates are excluded: first-level covers are one-hot, so
        the second-level OR can always be split into 2-input ORs without
        breaking speed-independence (§2.2 of the paper).
        """
        return [g for g in self.cover_gates()
                if not library.fits_literals(g.complexity)]

    def fits(self, library: GateLibrary) -> bool:
        return not self.oversized_gates(library)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def pretty(self, library: Optional[GateLibrary] = None) -> str:
        """One line per gate and C element.  With a ``library``, the
        :meth:`oversized_gates` are tagged ``[OVERSIZE]``, other gates
        with their positive cover's cell, or as fitting only through
        their complement or as an OR tree."""
        lines = [f"# netlist {self.name}"]
        oversized = ({gate.output for gate in self.oversized_gates(library)}
                     if library is not None else set())
        for gate in self.gates:
            cell = ""
            if library is not None:
                matched = library.cell_for(gate.cover)
                if gate.output in oversized:
                    cell = "  [OVERSIZE]"
                elif matched is not None:
                    cell = f"  [{matched.name}]"
                elif gate.role == "or-join":
                    cell = "  [OR tree]"
                else:
                    cell = f"  [complement, {gate.complexity} literals]"
            lines.append(
                f"{gate.output:>12} = {gate.cover.to_string()}{cell}")
        for celem in self.c_elements:
            lines.append(
                f"{celem.signal:>12} = C({celem.set_net}, "
                f"{celem.reset_net})")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"Netlist({self.name!r}, gates={len(self.gates)}, "
                f"C={len(self.c_elements)})")
