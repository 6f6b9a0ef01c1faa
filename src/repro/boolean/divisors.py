"""Algebraic division, kernels and the paper's divisor generation.

§3.1 of the paper chooses candidate decomposition functions ``f`` for a
cover ``c(a*)`` from:

* kernels and co-kernels of ``c(a*)``;
* any subset of product terms (OR-decomposition) when the cover has
  several cubes;
* any subset of literals of a cube (AND-decomposition) when the cover is
  a single cube;
* recursive decompositions of the above (sub-kernels, AND/OR
  decompositions of kernels);

with heuristic pruning "to avoid an explosion of candidates".  This
module implements all four families plus classical algebraic division
(``c = f·g + r``).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from repro._util import proper_subsets, unique
from repro.boolean.cube import Cube
from repro.boolean.sop import SopCover


def algebraic_division(cover: SopCover,
                       divisor: SopCover) -> Tuple[SopCover, SopCover]:
    """Weak (algebraic) division: ``cover = divisor * quotient + rest``.

    Standard algorithm: for each divisor cube ``d`` collect the quotients
    of the cover cubes it divides, then intersect those per-cube quotient
    sets.  The returned quotient is the largest cover ``q`` with
    ``divisor·q`` algebraically contained in ``cover``.
    """
    if divisor.is_zero():
        raise ZeroDivisionError("algebraic division by the empty cover")
    per_cube_quotients: List[Set[Cube]] = []
    for d_cube in divisor:
        quotients: Set[Cube] = set()
        for c_cube in cover:
            if d_cube.contains(c_cube):
                remainder_literals = {
                    name: value for name, value in c_cube
                    if d_cube.polarity(name) is None}
                quotients.add(Cube(remainder_literals))
        if not quotients:
            return SopCover.zero(), cover
        per_cube_quotients.append(quotients)
    common = set.intersection(*per_cube_quotients)
    if not common:
        return SopCover.zero(), cover
    quotient = SopCover(common)
    product = quotient.times(divisor)
    rest = SopCover(c for c in cover if not any(
        p.contains(c) and c.contains(p) for p in product))
    return quotient, rest


def co_kernels(cover: SopCover) -> List[Tuple[Cube, SopCover]]:
    """All (co-kernel cube, kernel) pairs of the cover.

    A kernel is a cube-free quotient of the cover by a cube (the
    co-kernel).  Computed by the classical recursive algorithm over the
    literals of the cover.
    """
    results: Dict[SopCover, Cube] = {}

    def visit(current: SopCover, path: Cube, start_literals: List[Tuple[str, int]]):
        literals = _literal_frequency(current)
        for index, (name, value) in enumerate(start_literals):
            if literals.get((name, value), 0) < 2:
                continue
            selector = Cube({name: value})
            matching = [c for c in current if c.polarity(name) == value]
            quotient_cubes = [c.cube_cofactor(selector) for c in matching]
            quotient = SopCover(c for c in quotient_cubes if c is not None)
            common = quotient.common_cube()
            kernel = quotient.make_cube_free()
            full_co_kernel = path.intersect(selector)
            if full_co_kernel is None:
                continue
            widened = full_co_kernel.intersect(common)
            if widened is None:
                continue
            if kernel.num_cubes() >= 2 and kernel not in results:
                results[kernel] = widened
            visit(kernel, widened, start_literals[index + 1:])

    all_literals = sorted(_literal_frequency(cover))
    visit(cover, Cube.one(), all_literals)
    if cover.is_cube_free() and cover.num_cubes() >= 2:
        results.setdefault(cover, Cube.one())
    return sorted(((ck, k) for k, ck in results.items()),
                  key=lambda pair: (pair[0].to_string(),
                                    pair[1].to_string()))


def kernels(cover: SopCover) -> List[SopCover]:
    """The kernel set (cube-free primary divisors) of the cover."""
    return unique(kernel for _, kernel in co_kernels(cover))


def _literal_frequency(cover: SopCover) -> Dict[Tuple[str, int], int]:
    counts: Dict[Tuple[str, int], int] = {}
    for cube in cover:
        for name, value in cube:
            counts[(name, value)] = counts.get((name, value), 0) + 1
    return counts


def _or_subsets(cover: SopCover, max_count: int) -> Iterator[SopCover]:
    """OR-decomposition candidates: proper subsets of the cube set."""
    for subset in proper_subsets(cover.cubes, min_size=1,
                                 max_count=max_count):
        yield SopCover(subset)


def _and_subsets(cube: Cube, max_count: int) -> Iterator[SopCover]:
    """AND-decomposition candidates: sub-cubes of a product term."""
    items = tuple(cube.literals.items())
    for subset in proper_subsets(items, min_size=2, max_count=max_count):
        yield SopCover([Cube(dict(subset))])
    # Single-literal subsets make trivial divisors and are skipped, as
    # in the paper ("trivial 1-literal divisors are not considered").


def generate_divisors(cover: SopCover, max_candidates: int = 64,
                      recurse: bool = True) -> List[SopCover]:
    """Enumerate candidate divisors for a cover, following §3.1.

    Candidates with fewer than two literals, and candidates identical to
    the cover itself, are excluded.  The enumeration is pruned to at
    most ``max_candidates`` results, favouring kernels (which achieve
    boolean simplification most often) and small divisors.
    """
    seen: Set[SopCover] = set()
    ordered: List[SopCover] = []

    def push(candidate: SopCover) -> None:
        if candidate.is_zero() or candidate.is_one():
            return
        if candidate.literal_count() < 2:
            return
        if candidate == cover:
            return
        if candidate in seen:
            return
        seen.add(candidate)
        ordered.append(candidate)

    kernel_pairs = co_kernels(cover)
    for co_kernel, kernel in kernel_pairs:
        push(kernel)
        if len(co_kernel) >= 2:
            push(SopCover([co_kernel]))

    if cover.num_cubes() >= 2:
        for candidate in _or_subsets(cover, max_candidates):
            push(candidate)
    for cube in cover:
        if len(cube) >= 3:
            for candidate in _and_subsets(cube, max_candidates):
                push(candidate)
        elif len(cube) == 2 and cover.num_cubes() >= 2:
            push(SopCover([cube]))

    if recurse:
        # Recursive decomposition of first-level candidates: sub-kernels
        # and AND/OR decompositions of kernels (one level is enough in
        # practice; deeper recursion is re-triggered on later mapper
        # iterations anyway, since covers shrink monotonically).
        for candidate in list(ordered):
            if len(ordered) >= max_candidates:
                break
            for _, sub_kernel in co_kernels(candidate):
                push(sub_kernel)
            if candidate.num_cubes() >= 2:
                for sub in _or_subsets(candidate, 8):
                    push(sub)
            for cube in candidate:
                if len(cube) >= 3:
                    for sub in _and_subsets(cube, 8):
                        push(sub)

    ordered.sort(key=lambda c: (c.literal_count(), c.num_cubes(),
                                c.to_string()))
    return ordered[:max_candidates]
