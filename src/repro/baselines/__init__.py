"""Baselines the paper compares against.

* :mod:`~repro.baselines.local_ack` — the Siegel & De Micheli style
  mapper: gate splitting with local acknowledgment only (the "[12]"
  column of Table 1).

The other baseline, the "non-SI" cost column (SIS ``tech_decomp -a 2``),
is priced by :func:`repro.mapping.cost.non_si_cost`.
"""

from repro.baselines.local_ack import map_local_ack

__all__ = ["map_local_ack"]
