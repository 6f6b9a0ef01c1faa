#!/usr/bin/env python3
"""The paper's running example (Figure 1, benchmark ``hazard``).

Reproduces the §3 walkthrough:

* the state graph with its excitation/switching/quiescent regions;
* the divisor candidates of the most complex cover (three 2-literal
  sub-functions of a 3-literal cube, §3.1);
* the I-partition legality analysis — one candidate function
  intersects the a-/d- concurrency diamond illegally and is rejected
  (§3.2), the others admit insertion sets;
* the final decomposition into 2-literal gates (Figure 5).
"""

from repro import GateLibrary, map_circuit, state_graph_of
from repro._util import popcount
from repro.bench_suite import benchmark
from repro.boolean.divisors import generate_divisors
from repro.errors import InsertionError
from repro.mapping.decompose import _units_of
from repro.mapping.partition import compute_insertion_sets
from repro.sg.regions import (excitation_regions, quiescent_region,
                              switching_region, trigger_events)
from repro.synthesis.cover import synthesize_all
from repro.verify import verify_implementation


def show_regions(sg) -> None:
    order = sorted(sg.signals)
    print(f"state graph: {len(sg)} states over signals {order}")
    for signal in sg.outputs:
        for direction in ("+", "-"):
            event = signal + direction
            regions = excitation_regions(sg, event)
            for region in regions:
                bits = sorted(sg.code(s).bits(order)
                              for s in region.states)
                quiescent = quiescent_region(sg, region, regions)
                switching = switching_region(sg, region)
                # SR and QR are bitsets over the state indices
                print(f"  ER({event})/{region.index} = {bits}  "
                      f"SR={popcount(switching)} states, "
                      f"QR={popcount(quiescent)} states, "
                      f"triggers={sorted(trigger_events(sg, region))}")


def show_divisors(sg) -> None:
    units = _units_of(synthesize_all(sg))
    target = max(units, key=lambda u: u.complexity)
    print(f"\nmost complex cover: {target.label} = "
          f"{target.chosen.to_string()} "
          f"({target.complexity} literals)")
    print("divisor candidates (§3.1) and their I-partitions (§3.2):")
    for function in generate_divisors(target.chosen):
        try:
            partition = compute_insertion_sets(sg, function)
            verdict = f"insertable ({partition.summary()})"
        except InsertionError as error:
            verdict = f"REJECTED — {error}"
        print(f"  f = {function.to_string():<12} {verdict}")


def show_illegal_diamond(sg) -> None:
    """§3.2's rejection case: a and d fall concurrently while x is
    high; a function true on exactly one interleaving (a fell, d did
    not) cannot be inserted — the two paths of the state diamond would
    disagree on whether the new signal pulsed, and repairing that would
    drag the insertion set into the f = 0 half-space."""
    from repro.boolean.sop import SopCover
    f = SopCover.from_string("a' d c'")
    try:
        compute_insertion_sets(sg, f)
        print(f"\nunexpected: {f.to_string()} was accepted")
    except InsertionError as error:
        print(f"\nillegal divisor demo (the paper's a'd case):")
        print(f"  f = {f.to_string()}: REJECTED — {error}")


def main() -> None:
    stg = benchmark("hazard")
    sg = state_graph_of(stg)
    show_regions(sg)
    show_divisors(sg)
    show_illegal_diamond(sg)

    library = GateLibrary(2)
    result = map_circuit(sg, library)
    print(f"\n{result.summary()}")
    print("\ncircuit after decomposition (Figure 5,b analogue):")
    print(result.netlist.pretty(library))
    verify_implementation(result.sg, result.implementations)
    print("\nspeed-independence verified")


if __name__ == "__main__":
    main()
