"""Unit tests for the standard-C netlist and gate libraries."""

import pathlib
from dataclasses import replace

import pytest

from repro.boolean.sop import SopCover
from repro.errors import LibraryError
from repro.mapping.decompose import MapperConfig, map_circuit
from repro.sg.reachability import state_graph_of
from repro.stg.builders import marked_graph
from repro.stg.parser import load_g
from repro.synthesis.cover import synthesize_all, synthesize_signal
from repro.synthesis.library import (FOUR_LITERAL, THREE_LITERAL,
                                     TWO_LITERAL, Gate, GateLibrary)
from repro.synthesis.netlist import Netlist

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


class TestGateLibrary:
    def test_bounds(self):
        with pytest.raises(LibraryError):
            GateLibrary(1)

    def test_fits(self):
        lib = GateLibrary(3)
        assert lib.fits_literals(3)
        assert not lib.fits_literals(4)

    def test_cells_grow_with_bound(self):
        names2 = {cell.name for cell in TWO_LITERAL.cells}
        names4 = {cell.name for cell in FOUR_LITERAL.cells}
        assert names2 < names4
        assert "AND2" in names2 and "XOR2" in names4
        assert "C2" in names2  # C element present by default

    def test_no_celement_variant(self):
        lib = GateLibrary(2, has_celement=False)
        assert "C2" not in {cell.name for cell in lib.cells}

    def test_cell_for(self):
        lib = GateLibrary(4)
        assert lib.cell_for(SopCover.from_string("a b")).name == "AND2"
        assert lib.cell_for(SopCover.from_string("a + b")).name == "OR2"
        assert lib.cell_for(SopCover.from_string("a b + c")).name == "AO21"
        assert lib.cell_for(
            SopCover.from_string("a b c d e")) is None

    def test_str(self):
        assert "2-literal" in str(TWO_LITERAL)


class TestNetlist:
    def test_celement_netlist(self, celement_sg):
        implementations = synthesize_all(celement_sg)
        netlist = Netlist("celement", implementations)
        assert len(netlist.c_elements) == 1
        assert len(netlist.cover_gates()) == 2
        celem = netlist.c_elements[0]
        assert celem.signal == "c"
        assert celem.set_net == "set_c_1"
        assert celem.reset_net == "reset_c_1"

    def test_combinational_netlist(self, two_er_sg):
        implementations = synthesize_all(two_er_sg)
        netlist = Netlist("twoer", implementations)
        assert not netlist.c_elements  # x is combinational
        assert any(g.role == "complete" for g in netlist.gates)

    def test_stats(self, celement_sg):
        netlist = Netlist("celement", synthesize_all(celement_sg))
        stats = netlist.stats()
        assert stats.c_elements == 1
        assert stats.literals == 4
        assert stats.max_complexity == 2
        assert stats.histogram == {2: 2}
        assert stats.histogram_row(7) == [2, 0, 0, 0, 0, 0]
        assert stats.cost_string() == "4/1"

    def test_oversized_detection(self, celement_sg):
        netlist = Netlist("celement", synthesize_all(celement_sg))
        assert netlist.fits(TWO_LITERAL)
        assert not netlist.oversized_gates(THREE_LITERAL)

    def test_pretty_mentions_cells(self, celement_sg):
        netlist = Netlist("celement", synthesize_all(celement_sg))
        text = netlist.pretty(TWO_LITERAL)
        assert "[AND2]" in text
        assert "C(set_c_1, reset_c_1)" in text

    def test_oversize_tag_marks_exactly_the_oversized_gates(self):
        """alternator5, CSC-solved by blocks, maps at k=3.  The positive
        cover of its ``set_csc2_1`` gate has 5 literals, but the
        complement has 2, so the gate fits: the tag must follow the
        gate's complexity, as :meth:`Netlist.oversized_gates` does, not
        the positive cover's literal count."""
        result = map_circuit(load_g(str(EXAMPLES / "alternator5.g")),
                             THREE_LITERAL, MapperConfig(solve_csc=True))
        assert result.success
        lines = result.netlist.pretty(THREE_LITERAL).splitlines()[1:]
        tagged = {line.split(" = ")[0].strip() for line in lines
                  if "[OVERSIZE]" in line}
        oversized = {gate.output for gate
                     in result.netlist.oversized_gates(THREE_LITERAL)}
        assert tagged == oversized
        assert any(line.strip().startswith("set_csc2_1 = ")
                   and line.endswith("[complement, 2 literals]")
                   for line in lines)

    def test_wide_or_join_is_an_or_tree_not_oversized(self):
        """x rises after a+, b+ and c+ (three set regions, one OR join
        of three nets).  Built as standard-C, that join is wider than
        lib2's ORs but splits into 2-input ORs, so it is no OVERSIZE."""
        seq = ["a+", "x+", "a-", "x-", "b+", "x+/2", "b-", "x-/2",
               "c+", "x+/3", "c-", "x-/3"]
        stg = marked_graph("orjoin", ["a", "b", "c"], ["x"],
                           list(zip(seq, seq[1:])), [(seq[-1], seq[0])])
        impl = synthesize_signal(state_graph_of(stg), "x")
        netlist = Netlist("orjoin", {"x": replace(impl,
                                                  combinational=False)})
        lines = netlist.pretty(TWO_LITERAL).splitlines()
        assert "set_x = set_x_1 + set_x_2 + set_x_3  [OR tree]" in [
            line.strip() for line in lines]
        assert ([line.split(" = ")[0].strip() for line in lines
                 if "[OVERSIZE]" in line]
                == [gate.output for gate
                    in netlist.oversized_gates(TWO_LITERAL)])

    def test_or_join_for_multiple_regions(self):
        # A signal with two set regions gets an or-join gate.
        from repro.stg.parser import parse_g
        from repro.sg.reachability import state_graph_of
        text = """
.model twoset
.inputs a b
.outputs x y
.graph
a+ x+
x+ y+
y+ a-
a- x-
x- b+
b+ x+/2
x+/2 y-
y- b-
b- x-/2
x-/2 a+
.marking { <x-/2,a+> }
.end
"""
        sg = state_graph_of(parse_g(text))
        implementations = synthesize_all(sg)
        netlist = Netlist("twoset", implementations)
        roles = {g.role for g in netlist.gates}
        # whether merged or joined, the netlist must be constructible
        assert "cover" in roles or "complete" in roles
