"""The bound-first trial evaluation is sound on real trial graphs.

Before any output of a trial graph is synthesized, the mapper bounds
each output's oversize mass from below with the essential-variable
lemma (``TechnologyMapper._mass_bound``) and, in local-acknowledgment
mode, refuses a trial whose inserted signal is essential in a
region-cover problem of another non-target output
(``TechnologyMapper._acknowledgment_refused``).  Over every trial
graph the mapper evaluates on four small suite circuits, at k = 2, 3,
4, in both acknowledgment modes, this checks both against what
:func:`resynthesize_signal` really gives each output:

* the bound never exceeds the oversize mass;
* the refusal fires only where a synthesized region cover of that very
  problem mentions the inserted signal.
"""

from typing import List, Tuple

import pytest

from repro.bench_suite import benchmark
from repro.errors import CoverError, CscViolation
from repro.mapping.decompose import MapperConfig, TechnologyMapper
from repro.synthesis.cover import SignalProblems, resynthesize_signal
from repro.synthesis.library import GateLibrary

#: small circuits whose k = 2 mappings try insertions (none of them
#: needs one at k = 3 or 4); sbuf-ram-write adds the most trials
CIRCUITS = ["hazard", "seq_mix", "trimos-send", "sbuf-ram-write"]


class RecordingMapper(TechnologyMapper):
    """A mapper that keeps every trial graph it evaluates."""

    def __init__(self, library, config):
        super().__init__(library, config)
        self.trials: List[Tuple] = []

    def _evaluate_candidate(self, new_sg, unit, new_signal, potential,
                            bn_potential):
        self.trials.append((new_sg, unit, new_signal))
        return super()._evaluate_candidate(
            new_sg, unit, new_signal, potential, bn_potential)


def trials_of(name: str, k: int, local: bool) -> RecordingMapper:
    config = MapperConfig()
    mapper = RecordingMapper(GateLibrary(k),
                             config.local_ack() if local else config)
    mapper.map(benchmark(name))
    return mapper


def outputs_of(mapper: RecordingMapper):
    """Per evaluated trial and output: the posed problems, and the
    implementation resynthesis gives it (None when it raises)."""
    for new_sg, unit, new_signal in mapper.trials:
        for signal in new_sg.outputs:
            problems = SignalProblems(new_sg, signal)
            try:
                impl = resynthesize_signal(problems)
            except (CoverError, CscViolation):
                impl = None
            yield new_sg, new_signal, unit, problems, impl


def mappers(local: bool):
    for name in CIRCUITS:
        for k in (2, 3, 4):
            yield name, k, trials_of(name, k, local)


@pytest.mark.parametrize("local", [False, True],
                         ids=["global", "local"])
def test_bound_never_exceeds_the_mass(local):
    checked = positive = 0
    for name, k, mapper in mappers(local):
        for _, _, _, problems, impl in outputs_of(mapper):
            if impl is None:
                continue    # the trial is rejected whatever the bound
            bound = mapper._mass_bound(problems, k)
            mass = mapper._oversize_mass(impl, k)
            assert bound <= mass, (name, k, problems.signal, bound, mass)
            checked += 1
            positive += bound > 0
    assert checked > 100 and positive > 20


def test_local_refusal_only_where_a_cover_mentions_the_signal():
    refused = 0
    for _, _, mapper in mappers(local=True):
        for new_sg, new_signal, unit, problems, impl in outputs_of(mapper):
            if not mapper._acknowledgment_refused(problems, unit,
                                                  new_signal):
                continue
            refused += 1
            if impl is None:
                continue    # the trial is rejected whatever the check
            bit = 1 << new_sg.encoding().bit[new_signal]
            covers = {(rc.event, tuple(r.index for r in rc.regions)): rc
                      for rc in impl.region_covers}
            essential = [
                covers[(problem.regions[0].event,
                        tuple(r.index for r in problem.regions))]
                for problem in problems.all_groups()
                if any(code ^ bit in problem.off for code in problem.on)]
            assert essential
            for rc in essential:
                assert new_signal in rc.cover.support
                assert new_signal in rc.complement.support
    assert refused > 10
