"""The paper's full pass, as the reference the mapper is checked against.

The mapping loop of §3 inserts the best divisor and then "resynthesizes
everything from scratch".  :class:`FullPassMapper` evaluates every
trial that way: the quick reject on the target signal, then
:func:`synthesize_all` over the whole trial graph.  The mapper's
bound-first evaluation (``TechnologyMapper._evaluate_candidate``) must
reach the same decisions: the same steps, netlists, success and
message.
"""

from repro.mapping.decompose import TechnologyMapper
from repro.synthesis.cover import (ResynthesisStats, synthesize_all,
                                   synthesize_signal)


class FullPassMapper(TechnologyMapper):
    """The mapping loop with every trial synthesized in full."""

    def _evaluate_candidate(self, new_sg, unit, new_signal, potential,
                            bn_potential):
        if not self._target_improved(
                unit, synthesize_signal(new_sg, unit.signal)):
            return None
        implementations = synthesize_all(new_sg)
        self._trial_stats.add(
            ResynthesisStats(resynthesized=len(implementations)))
        return implementations


def full_pass_map(circuit, library, config=None, implementations=None):
    """:func:`~repro.mapping.decompose.map_circuit` through the full
    pass."""
    return FullPassMapper(library, config).map(circuit, implementations)
