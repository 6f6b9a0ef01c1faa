"""Netlist export: structural Verilog and SIS ``.eqn`` equations.

The standard-C netlist keeps OR joins as single wide gates (their
inputs are one-hot, §2.2, so any tree split preserves SI);
:func:`expand_or_joins` materializes those splits into 2-input ORs so
the exported netlist contains only library-width gates.  Verilog export
models the C elements behaviourally (set/reset latch), matching how
asynchronous back-ends consume such netlists.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.boolean.cube import Cube
from repro.boolean.sop import SopCover
from repro.synthesis.netlist import Netlist, NetlistGate


def expand_or_joins(netlist: Netlist, max_fanin: int = 2) -> List[NetlistGate]:
    """Return the gate list with wide OR joins split into trees.

    Cover gates are untouched (the mapper already guarantees they fit
    the library); only ``or-join`` gates wider than ``max_fanin`` are
    replaced.  Splitting is always SI-safe because first-level cover
    outputs are one-hot.
    """
    gates: List[NetlistGate] = []
    for gate in netlist.gates:
        if gate.role != "or-join" or len(gate.fanin) <= max_fanin:
            gates.append(gate)
            continue
        inputs = list(gate.fanin)
        level = 0
        while len(inputs) > max_fanin:
            grouped: List[str] = []
            for i in range(0, len(inputs), max_fanin):
                chunk = inputs[i:i + max_fanin]
                if len(chunk) == 1:
                    grouped.append(chunk[0])
                    continue
                net = f"{gate.output}_t{level}_{i // max_fanin}"
                cover = SopCover([Cube({name: 1}) for name in chunk])
                gates.append(NetlistGate(
                    name=f"g_{net}", output=net, cover=cover,
                    complexity=len(chunk), role="or-join"))
                grouped.append(net)
            inputs = grouped
            level += 1
        cover = SopCover([Cube({name: 1}) for name in inputs])
        gates.append(NetlistGate(
            name=gate.name, output=gate.output, cover=cover,
            complexity=len(inputs), role="or-join"))
    return gates


def _verilog_expr(cover: SopCover) -> str:
    if cover.is_zero():
        return "1'b0"
    if cover.is_one():
        return "1'b1"
    terms = []
    for cube in cover:
        literals = [name if value else f"~{name}"
                    for name, value in cube]
        terms.append(" & ".join(literals) if len(literals) > 1
                     else literals[0])
    if len(terms) == 1:
        return terms[0]
    return " | ".join(f"({t})" if " & " in t else t for t in terms)


def to_verilog(netlist: Netlist, inputs: Tuple[str, ...],
               outputs: Tuple[str, ...],
               module_name: Optional[str] = None,
               max_or_fanin: int = 2) -> str:
    """Structural Verilog with behavioural C elements."""
    gates = expand_or_joins(netlist, max_or_fanin)
    module = module_name or netlist.name.replace("-", "_")
    internal = ({g.output for g in gates}
                | {c.signal for c in netlist.c_elements}) - set(outputs)
    lines = [f"module {module} ("]
    ports = [f"    input  wire {name}," for name in inputs]
    ports += [f"    output wire {name}," for name in outputs]
    if ports:
        ports[-1] = ports[-1].rstrip(",")
    lines += ports
    lines.append(");")
    for net in sorted(internal):
        lines.append(f"  wire {net};")
    for celem in netlist.c_elements:
        lines.append(f"  reg {celem.signal}_state = 1'b0;")
    lines.append("")
    for gate in gates:
        lines.append(f"  assign {gate.output} = "
                     f"{_verilog_expr(gate.cover)};")
    for celem in netlist.c_elements:
        signal = celem.signal
        lines += [
            "",
            f"  // Muller C element for {signal}",
            f"  always @(*) begin",
            f"    if ({celem.set_net}) {signal}_state = 1'b1;",
            f"    else if ({celem.reset_net}) {signal}_state = 1'b0;",
            f"  end",
            f"  assign {signal} = {signal}_state;",
        ]
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def to_eqn(netlist: Netlist, max_or_fanin: int = 0) -> str:
    """SIS-style ``.eqn`` equations (C elements as ``C(set, reset)``).

    ``max_or_fanin = 0`` keeps OR joins as single equations.
    """
    gates = (expand_or_joins(netlist, max_or_fanin)
             if max_or_fanin else netlist.gates)
    lines = [f"# {netlist.name}"]
    for gate in gates:
        terms = []
        for cube in gate.cover:
            literals = [name if value else f"!{name}"
                        for name, value in cube]
            terms.append("*".join(literals) if literals else "1")
        expression = " + ".join(terms) if terms else "0"
        lines.append(f"{gate.output} = {expression};")
    for celem in netlist.c_elements:
        lines.append(f"{celem.signal} = C({celem.set_net}, "
                     f"{celem.reset_net});")
    return "\n".join(lines) + "\n"
