"""Boolean weights: subsets of N^m that are finite or cofinite.

A weight stands for the power series whose coefficient at t^I is 1 when I is
in the set and 0 otherwise.  Shifting by a multi-index J models applying the
derivative d^J at the level of supports: the shifted set keeps those I with
I + J in the original set.  Cofinite weights stay cofinite (possibly becoming
all of N^m); finite weights stay finite (possibly empty).

vertices() returns the tropical value of the series: the vertex set of the
support.  For a cofinite set N^m minus E the support is infinite, but each
of its minimal points is 0 or q + e_k for some q in E: a minimal p != 0 has
some p_k > 0, and p - e_k must then lie in E.  Those candidates, minus E, lie
in the set and reach every minimal point, so they span the same polyhedron.
The full set N^m is the cofinite set with nothing excluded.

substitution_poly is the polynomial that the translation machinery plugs in
for a single derivative x_{i,J}.  The indicator kernel puts coefficient 1 on
each vertex; the factorial kernel weights a vertex I by prod_k (I_k+J_k)!/I_k!
as differentiation of the honest series would.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable, Sequence

from .errors import TropdiffError, exponent, width
from .series import QPoly
from .vertexpoly import VertexPoly, _validated_points

Point = tuple[int, ...]


class BooleanWeight:
    """Finite or cofinite subset of N^m."""

    __slots__ = ("m", "kind", "data")

    def __init__(self, m: int, kind: str, data: frozenset[Point]):
        if kind == "cofinite" and not data:
            kind = "full"
        if kind == "full":
            data = frozenset()
        elif kind not in ("finite", "cofinite"):
            raise ValueError(f"unknown weight kind {kind!r}")
        self.m = width(m)
        self.kind = kind
        self.data = data

    @classmethod
    def full(cls, m: int) -> "BooleanWeight":
        return cls(m, "full", frozenset())

    @classmethod
    def finite(cls, m: int, points: Iterable[Sequence[int]]) -> "BooleanWeight":
        return cls(m, "finite", frozenset(_validated_points(m, points)))

    @classmethod
    def cofinite(cls, m: int, excluded: Iterable[Sequence[int]]) -> "BooleanWeight":
        return cls(m, "cofinite", frozenset(_validated_points(m, excluded)))

    def __contains__(self, point: Sequence[int]) -> bool:
        p = exponent(point, self.m)
        if self.kind == "finite":
            return p in self.data
        return p not in self.data

    @property
    def is_empty(self) -> bool:
        return self.kind == "finite" and not self.data

    def shift(self, J: Sequence[int]) -> "BooleanWeight":
        """The set {I >= 0 : I + J in self}."""
        J = exponent(J, self.m, "multi-index")
        moved = frozenset(
            tuple(i - j for i, j in zip(p, J))
            for p in self.data
            if all(i >= j for i, j in zip(p, J))
        )
        return BooleanWeight(self.m, self.kind, moved)

    def vertices(self) -> VertexPoly:
        """Tropical value of the series with this support."""
        if self.kind == "finite":
            return VertexPoly(self.m, self.data)
        candidates = {(0,) * self.m}
        for q in self.data:
            for k in range(self.m):
                candidates.add(q[:k] + (q[k] + 1,) + q[k + 1 :])
        return VertexPoly(self.m, candidates - self.data)

    def series(self) -> QPoly:
        """The honest polynomial, available for finite supports only."""
        if self.kind != "finite":
            raise TropdiffError("only a finite weight is a polynomial")
        return QPoly(self.m, dict.fromkeys(self.data, 1))

    def __eq__(self, other):
        if not isinstance(other, BooleanWeight):
            return NotImplemented
        return (self.m, self.kind, self.data) == (other.m, other.kind, other.data)

    def __hash__(self):
        return hash((self.m, self.kind, self.data))

    def __str__(self):
        if self.kind == "full":
            return "N^%d" % self.m
        pts = ", ".join("(" + ",".join(map(str, p)) + ")" for p in sorted(self.data))
        if self.kind == "finite":
            return "{%s}" % pts
        return "N^%d minus {%s}" % (self.m, pts)

    __repr__ = __str__


class SubstitutionKernel(enum.Enum):
    INDICATOR = "indicator"
    FACTORIAL = "factorial"


def substitution_poly(
    weight: BooleanWeight, J: Sequence[int], kernel: SubstitutionKernel = SubstitutionKernel.INDICATOR
) -> QPoly:
    """Polynomial substituted for one derivative of a weight.

    Supported on the vertices of the shifted weight; zero when the shift
    empties the support.
    """
    J = tuple(J)  # read twice: by shift, which checks it, and by the factorial kernel
    vertices = weight.shift(J).vertices()
    terms: dict[Point, int] = {}
    for p in vertices:
        c = 1
        if kernel is not SubstitutionKernel.INDICATOR:
            c = math.prod(math.perm(i + j, j) for i, j in zip(p, J))
        terms[p] = c
    return QPoly._trusted(weight.m, terms)
