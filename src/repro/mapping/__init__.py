"""The paper's core contribution: SI-preserving logic decomposition.

* :mod:`~repro.mapping.partition` — I-partitions: growing insertion
  sets ``ER(x+)`` / ``ER(x-)`` for a candidate function ``f`` (§3.2);
* :mod:`~repro.mapping.insertion` — state-splitting event insertion
  (§2.3, Figure 3), planned on bitsets before it is built;
* :mod:`~repro.mapping.progress` — Property 3.1 (safe substitution in
  the target cover) and Property 3.2 (bounded impact on other covers);
* :mod:`~repro.mapping.cost` — literal and C-element costs of whole
  implementations, and the non-SI tree decomposition (§3.4, §4);
* :mod:`~repro.mapping.csc` — complete state coding by the same
  SIP-preserving insertion (the stage the paper takes from [6]);
* :mod:`~repro.mapping.decompose` — the technology-mapping loop (§3).
"""

from repro.mapping.csc import CscResult, csc_conflicts, solve_csc
from repro.mapping.partition import (IPartition, compute_insertion_sets,
                                     compute_insertion_sets_from_states)
from repro.mapping.insertion import (InsertionPlan, insert_signal,
                                     plan_insertion, verify_insertion)
from repro.mapping.progress import (check_property_31, check_property_32,
                                    estimate_global_impact)
from repro.mapping.cost import implementation_cost, tree_decomposition_cost
from repro.mapping.decompose import (DecompositionStep, MapperConfig,
                                     MappingResult, TechnologyMapper,
                                     map_circuit)

__all__ = [
    "IPartition",
    "compute_insertion_sets",
    "compute_insertion_sets_from_states",
    "solve_csc",
    "csc_conflicts",
    "CscResult",
    "insert_signal",
    "plan_insertion",
    "verify_insertion",
    "InsertionPlan",
    "check_property_31",
    "check_property_32",
    "estimate_global_impact",
    "implementation_cost",
    "tree_decomposition_cost",
    "TechnologyMapper",
    "MapperConfig",
    "MappingResult",
    "DecompositionStep",
    "map_circuit",
]
