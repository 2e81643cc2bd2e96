"""Minkowski algebra on finite integer point sets.

Dilation by a structuring element is a union-preserving map on point
sets; erosion is its adjoint.  The pooled perception of two structuring
elements is the dilation by their intersection, which is verified both
as a subset-enumeration identity and, on a small finite module, against
the abstract function-meet oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, index, or_
from typing import Iterable

from .errors import DimMismatch, EmptyStructuringElement, InvalidElement, TooLarge
from .lattice import powerset_lattice
from .spaces import SpaceFunction, function_meet_oracle

Vector = tuple[int, ...]

# oplus_law_rhs visits the 2^k subsets of a k-point set, holding tables of
# 2^ceil(k/2) translate masks (see README for the measured cost).
MAX_OPLUS_POINTS = 20


@dataclass(frozen=True)
class PointSet:
    """A finite set of integer vectors of a fixed dimension."""

    dim: int
    points: frozenset[Vector]

    def __post_init__(self):
        if self.dim < 1:
            raise DimMismatch("dimension must be positive")
        try:  # integers only: a float, string or None is refused, not truncated
            pts = frozenset(tuple(map(index, p)) for p in self.points)
        except TypeError:
            raise InvalidElement("points must be tuples of integers") from None
        for p in pts:
            if len(p) != self.dim:
                raise DimMismatch(f"point {p} does not have dimension {self.dim}")
        object.__setattr__(self, "points", pts)

    @classmethod
    def of(cls, dim: int, points: Iterable) -> "PointSet":
        return cls(dim, frozenset(tuple(p) if isinstance(p, (tuple, list)) else (p,) for p in points))

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, p) -> bool:
        return tuple(p) in self.points

    def sorted_points(self) -> list[Vector]:
        return sorted(self.points)

    def __repr__(self) -> str:
        return f"PointSet(dim={self.dim}, {{{', '.join(map(str, self.sorted_points()))}}})"


def _same_dim(*sets: PointSet) -> int:
    dims = {s.dim for s in sets}
    if len(dims) != 1:
        raise DimMismatch(f"mixed dimensions {sorted(dims)}")
    return dims.pop()


def _add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def _neg(u: Vector) -> Vector:
    return tuple(-a for a in u)


def minkowski_sum(a: PointSet, b: PointSet) -> PointSet:
    """Element-wise vector sums of the two sets."""
    dim = _same_dim(a, b)
    return PointSet(dim, frozenset(_add(u, v) for u in a.points for v in b.points))


def intersection(a: PointSet, b: PointSet) -> PointSet:
    dim = _same_dim(a, b)
    return PointSet(dim, a.points & b.points)


def union(a: PointSet, b: PointSet) -> PointSet:
    dim = _same_dim(a, b)
    return PointSet(dim, a.points | b.points)


def dilate(se: PointSet, x: PointSet) -> PointSet:
    """Dilation of x by the structuring element: their Minkowski sum."""
    return minkowski_sum(x, se)


def erode(se: PointSet, x: PointSet) -> PointSet:
    """Erosion of x by the structuring element: the vectors u whose
    translate se + u lies inside x.

    Every such u is p - v for some p in x and any fixed v in se, so those
    differences are the candidates.  The empty structuring element is
    rejected: its erosion would be the whole (infinite) carrier.
    """
    dim = _same_dim(se, x)
    if not se.points:
        raise EmptyStructuringElement("erosion by the empty set is the whole carrier")
    some = next(iter(se.points))
    candidates = frozenset(_add(p, _neg(some)) for p in x.points)
    return PointSet(
        dim,
        frozenset(u for u in candidates if all(_add(v, u) in x.points for v in se.points)),
    )


def distributed_dilation(a: PointSet, b: PointSet, x: PointSet) -> PointSet:
    """Pooled dilation of two structuring elements: dilation by their
    intersection."""
    _same_dim(a, b, x)
    return dilate(intersection(a, b), x)


def oplus_law_rhs(x: PointSet, a: PointSet, b: PointSet) -> PointSet:
    """Literal subset-enumeration side of the intersection law:
    intersect, over every subset y of x, (y + a) union ((x minus y) + b).

    Every point p of x gets its translates p + a and p + b once, each as
    an int bitmask over the sorted union of all the translates.  The
    sorted points split into a low and a high half, and a subset s of x
    into its parts t and u in the two halves, so its term is the OR of
    one table entry per half.  Over the subsets t of a half, the tables
    ya[t] and yb[t], the unions of the a- and b-translates of the points
    in t, double once per point: ya + [m | mask_p for m in ya].  The
    complement of t in the half is full ^ t, which is yb read backwards,
    so the half's table holds ya[t] | yb[full ^ t].  The right-hand side
    is the AND over all 2^k pairs (t, u) of high[t] | low[u], decoded
    back to points; the tables hold 2^ceil(k/2) masks, not 2^k.

    The AND stays a loop over subsets on purpose: factored per point it
    becomes the union of p + (a intersect b), which is what
    `distributed_dilation` computes, and the law would compare that
    function with itself.
    """
    dim = _same_dim(x, a, b)
    if len(x) > MAX_OPLUS_POINTS:
        raise TooLarge(f"2^{len(x)} subsets exceeds the cap of 2^{MAX_OPLUS_POINTS}")
    pts = x.sorted_points()
    plus_a = [[_add(p, v) for v in a.points] for p in pts]
    plus_b = [[_add(p, v) for v in b.points] for p in pts]
    universe = sorted(set().union(*plus_a, *plus_b))
    bit = {u: 1 << i for i, u in enumerate(universe)}
    masks = [(sum(bit[u] for u in ta), sum(bit[u] for u in tb)) for ta, tb in zip(plus_a, plus_b)]
    half = len(masks) // 2
    low, high = _subset_terms(masks[:half]), _subset_terms(masks[half:])
    rhs = reduce(and_, (h | lo for h in high for lo in low))
    return PointSet(dim, frozenset(u for i, u in enumerate(universe) if rhs >> i & 1))


def _subset_terms(masks: list[tuple[int, int]]) -> list[int]:
    """ya[t] | yb[full ^ t] for every subset t (a bitmask) of the points
    whose (a, b) translate masks are given."""
    ya, yb = [0], [0]
    for mask_a, mask_b in masks:
        ya += [m | mask_a for m in ya]
        yb += [m | mask_b for m in yb]
    return list(map(or_, ya, reversed(yb)))


def scale(r: int, x: PointSet) -> PointSet:
    """Scalar multiple of every vector in the set."""
    return PointSet(x.dim, frozenset(tuple(r * c for c in p) for p in x.points))


def origin(dim: int) -> PointSet:
    return PointSet(dim, frozenset({(0,) * dim}))


# -- finite-module bridge to the abstract theory ------------------------------------

TORUS_2X2: list[Vector] = [(0, 0), (0, 1), (1, 0), (1, 1)]


def theorem_check_small_module() -> list[tuple[int, int]]:
    """Cross-module consistency check on the 2x2 torus grid.

    The carrier is the four-point module with per-coordinate addition mod
    2, so the powerset lattice (ordered by inclusion: join is union and
    the empty set is the bottom) is finite and the enumeration oracle
    applies.  Its join-irreducibles are the singletons, in module order,
    so each brush's dilation is the extension of `dilate` on them, read
    modulo 2.  Returns the brush-mask pairs (a, b) whose oracle meet of
    dilations differs from the dilation by a & b; the list is empty when
    the theorem holds.
    """
    module = TORUS_2X2
    lattice = powerset_lattice([f"({r},{c})" for r, c in module])

    def dilation(mask: int) -> SpaceFunction:
        se = PointSet.of(2, [p for i, p in enumerate(module) if mask >> i & 1])
        values = [
            sum({1 << module.index((r % 2, c % 2)) for r, c in dilate(se, PointSet.of(2, [p])).points})
            for p in module
        ]
        return SpaceFunction(lattice, lattice.extend(values))

    dilations = [dilation(mask) for mask in range(1 << len(module))]
    return [
        (a, b)
        for a, f in enumerate(dilations)
        for b, g in enumerate(dilations)
        if function_meet_oracle(lattice, [f, g]).images != dilations[a & b].images
    ]
