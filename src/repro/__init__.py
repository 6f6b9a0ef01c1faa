"""repro — technology mapping of speed-independent circuits.

A from-scratch Python reproduction of

    J. Cortadella, M. Kishinevsky, A. Kondratyev, L. Lavagno,
    A. Yakovlev: "Technology Mapping of Speed-Independent Circuits
    Based on Combinational Decomposition and Resynthesis",
    DATE 1997, pp. 98-105.

Quickstart::

    from repro import parse_g, state_graph_of, map_circuit, GateLibrary

    stg = parse_g(open("circuit.g").read())
    result = map_circuit(stg, GateLibrary(2))
    print(result.summary())
    print(result.netlist.pretty())

See README.md for the architecture overview; the docstrings of
:mod:`repro.synthesis` and :mod:`repro.mapping` map the paper's
sections to modules.
"""

from repro.boolean import Cube, SopCover, minimize
from repro.mapping import (MapperConfig, MappingResult, TechnologyMapper,
                           map_circuit)
from repro.sg import (StateGraph, check_speed_independence,
                      excitation_regions, state_graph_of)
from repro.stg import SignalTransition, Stg, load_g, parse_g, write_g
from repro.synthesis import (GateLibrary, Netlist, synthesize_all,
                             synthesize_signal)
from repro.verify import verify_implementation, weakly_bisimilar
from repro.pipeline import (ArtifactCache, BatchRunner, Pipeline,
                            PipelineConfig, RunRecord, SynthesisContext)

__version__ = "1.0.0"

__all__ = [
    "Cube",
    "SopCover",
    "minimize",
    "Stg",
    "SignalTransition",
    "parse_g",
    "load_g",
    "write_g",
    "StateGraph",
    "state_graph_of",
    "check_speed_independence",
    "excitation_regions",
    "GateLibrary",
    "Netlist",
    "synthesize_signal",
    "synthesize_all",
    "TechnologyMapper",
    "MapperConfig",
    "MappingResult",
    "map_circuit",
    "verify_implementation",
    "weakly_bisimilar",
    "ArtifactCache",
    "BatchRunner",
    "Pipeline",
    "PipelineConfig",
    "RunRecord",
    "SynthesisContext",
    "__version__",
]
