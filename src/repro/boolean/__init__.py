"""Boolean-function substrate.

Everything the mapper needs from classical two-level / multi-level logic
synthesis, implemented from scratch:

* :class:`~repro.boolean.cube.Cube` — a product term over named signals;
* :class:`~repro.boolean.sop.SopCover` — sum-of-products covers with
  evaluation, containment, tautology, equivalence and complement
  checks, algebraic structure and literal counting;
* :mod:`~repro.boolean.minimize` — espresso-style two-level minimization
  with don't-cares (EXPAND / IRREDUNDANT / REDUCE);
* :mod:`~repro.boolean.divisors` — kernels, co-kernels, algebraic
  division and the divisor enumeration of §3.1 of the paper.
"""

from repro.boolean.cube import Cube
from repro.boolean.sop import SopCover
from repro.boolean.minimize import minimize
from repro.boolean.divisors import (
    algebraic_division,
    co_kernels,
    generate_divisors,
    kernels,
)

__all__ = [
    "Cube",
    "SopCover",
    "minimize",
    "kernels",
    "co_kernels",
    "algebraic_division",
    "generate_divisors",
]
