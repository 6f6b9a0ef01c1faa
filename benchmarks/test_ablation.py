"""Ablation benches for the mapper's three tunable knobs.

These are the only callers that vary them, which is why they stay
:class:`~repro.mapping.decompose.MapperConfig` fields:

* ``max_divisors`` — the divisor budget per oversized gate (§3.1),
  halved from 48 to 24;
* ``use_progress_filters`` — the Property-3.1/3.2 ranking filters
  (§3.3/3.4), on vs off;
* ``max_neutral_steps`` — the neutral-step budget (the Property-3.2
  "+1 literal" allowance), 8 vs 0.

Each ablation runs the mapper in the degraded configuration on circuits
where the full configuration is known to work and reports success and
inserted-signal counts.
"""

import pytest

from repro.mapping.decompose import MapperConfig, map_circuit
from repro.synthesis.library import GateLibrary

from conftest import circuit_sg

CIRCUITS = ["hazard", "trimos-send", "alloc-outbound", "seq_mix"]


def _run(name, config):
    return map_circuit(circuit_sg(name), GateLibrary(2), config)


@pytest.mark.parametrize("name", CIRCUITS)
def test_ablation_halved_divisor_budget(benchmark, name):
    result_full = _run(name, MapperConfig())
    result = benchmark.pedantic(
        _run, args=(name, MapperConfig(max_divisors=24)),
        rounds=1, iterations=1)
    print(f"\n{name}: full={result_full.inserted_signals if result_full.success else 'n.i.'} "
          f"pruned-divisors="
          f"{result.inserted_signals if result.success else 'n.i.'}")
    # A smaller divisor pool may cost extra signals but the paper's
    # small/medium circuits still map.
    assert result.success or not result_full.success


@pytest.mark.parametrize("name", CIRCUITS)
def test_ablation_no_progress_filters(benchmark, name):
    config = MapperConfig(use_progress_filters=False)
    result = benchmark.pedantic(_run, args=(name, config),
                                rounds=1, iterations=1)
    reference = _run(name, MapperConfig())
    print(f"\n{name}: filters-off "
          f"{result.inserted_signals if result.success else 'n.i.'} "
          f"vs filters-on "
          f"{reference.inserted_signals if reference.success else 'n.i.'}")
    # Filters are a search heuristic, not a soundness device: with them
    # off the mapper may take different (possibly more) insertions but
    # must not produce anything invalid.
    if result.success:
        assert result.netlist.stats().max_complexity <= 2


def test_ablation_neutral_budget(benchmark):
    """Without the neutral-step allowance, wide joins cannot take the
    first (potential-neutral) insertion and fail — the quantitative
    form of the Property-3.2 discussion."""

    def run():
        strict = MapperConfig(max_neutral_steps=0)
        return _run("trimos-send", strict)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    reference = _run("trimos-send", MapperConfig())
    print(f"\ntrimos-send: neutral-steps-off "
          f"{'mapped' if result.success else 'n.i.'}, "
          f"default {'mapped' if reference.success else 'n.i.'}")
    assert reference.success
    assert not result.success
