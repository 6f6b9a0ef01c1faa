"""Gate libraries.

The paper's experiments use libraries characterized by a single
parameter: the maximum number of literals a gate may implement as a
(possibly complemented) sum-of-products — "gates with at most *i*
literals (i = 2, 3, 4)" — plus C elements for state-holding signals.
:class:`GateLibrary` models exactly that, and can also enumerate the
named cells such a bound induces (AND2, NOR2, AOI21, ...), which the
netlist printer uses for readable output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.boolean.sop import SopCover
from repro.errors import LibraryError


@dataclass(frozen=True)
class Gate:
    """A named library cell with a literal budget."""

    name: str
    max_literals: int
    description: str = ""


def _standard_cells(max_literals: int) -> List[Gate]:
    """Named cells available under a literal bound (informative only)."""
    cells = [
        Gate("INV", 1, "inverter"),
        Gate("BUF", 1, "buffer"),
    ]
    if max_literals >= 2:
        cells += [
            Gate("AND2", 2, "2-input AND"),
            Gate("OR2", 2, "2-input OR"),
            Gate("NAND2", 2, "2-input NAND"),
            Gate("NOR2", 2, "2-input NOR"),
        ]
    if max_literals >= 3:
        cells += [
            Gate("AND3", 3, "3-input AND"),
            Gate("OR3", 3, "3-input OR"),
            Gate("AO21", 3, "AND-OR: a b + c"),
            Gate("OA21", 3, "OR-AND: (a + b) c"),
        ]
    if max_literals >= 4:
        cells += [
            Gate("AND4", 4, "4-input AND"),
            Gate("OR4", 4, "4-input OR"),
            Gate("AO22", 4, "AND-OR: a b + c d"),
            Gate("OA22", 4, "OR-AND: (a + b)(c + d)"),
            Gate("XOR2", 4, "2-input XOR (4 literals as SOP)"),
        ]
    return cells


@dataclass
class GateLibrary:
    """A literal-bounded standard-cell library.

    Parameters
    ----------
    max_literals:
        Bound on ``min(lit(f), lit(f'))`` for implementable gates
        (the paper's complexity measure, §4).
    has_celement:
        Whether 2-input C elements are available (required by the
        standard-C architecture for state-holding signals; the paper
        assumes they are and prices one C element ≈ a 3-input AND).
    name:
        Display name.
    """

    max_literals: int
    has_celement: bool = True
    name: str = ""

    def __post_init__(self):
        if self.max_literals < 2:
            raise LibraryError("a library needs gates with at least two "
                               "literals")
        if not self.name:
            self.name = f"lib{self.max_literals}"

    @property
    def cells(self) -> List[Gate]:
        cells = _standard_cells(self.max_literals)
        if self.has_celement:
            cells.append(Gate("C2", 2, "2-input Muller C element"))
        return cells

    def fits_literals(self, complexity: int) -> bool:
        """Can a gate of this (min-polarity) literal complexity be
        implemented as one library cell?"""
        return complexity <= self.max_literals

    def cell_for(self, cover: SopCover) -> Optional[Gate]:
        """A readable cell name for a cover, if one obviously matches."""
        literals = cover.literal_count()
        cubes = cover.num_cubes()
        if literals > self.max_literals:
            return None
        by_name = {cell.name: cell for cell in self.cells}
        if cubes == 1:
            name = f"AND{literals}" if literals > 1 else "BUF"
            return by_name.get(name, Gate(f"AND{literals}", literals))
        if all(len(cube) == 1 for cube in cover):
            return by_name.get(f"OR{cubes}", Gate(f"OR{cubes}", cubes))
        if cubes == 2 and literals == 3:
            return by_name.get("AO21")
        if cubes == 2 and literals == 4:
            return by_name.get("AO22")
        return Gate(f"AOI_{cubes}x{literals}", literals, "complex AND-OR")

    def __str__(self) -> str:
        celement = "+C" if self.has_celement else ""
        return f"{self.name}({self.max_literals}-literal{celement})"


TWO_LITERAL = GateLibrary(2, name="two-literal")
THREE_LITERAL = GateLibrary(3, name="three-literal")
FOUR_LITERAL = GateLibrary(4, name="four-literal")
