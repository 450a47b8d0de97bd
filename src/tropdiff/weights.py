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
A set that holds the origin needs no extraction: its series has constant
term 1, so it is a unit, and its value is the semiring's 1, the vertex set
{0}, since every point of N^m lies above the origin (Aroca, Garay and
Toghani, Pacific J. Math. 283, 2016).  A finite set holds the origin when 0
is in data, a cofinite one (full included) when 0 is not.  Any other set
extracts its candidates once with vertexpoly._vertices: they are built from
the weight's own checked points, so nothing is checked a second time.

A weight is its set: finite, or cofinite with data the points it leaves out,
and N^m is the cofinite weight that leaves out nothing.  full, finite and
cofinite are the only constructors and check each point once; shift builds
from checked points.  kind is read from the set.

A weight is read-only (m, is_cofinite and data cannot be rebound), so what
it has made stays true and is kept: shift(J) builds the shifted weight once
per multi-index J (checked on every call, before the lookup), vertices()
makes the vertex set once, and substitution_poly builds its polynomial once
per J and kernel (both checked first; check_kernel, which translate asks too).
The memo lives as long as the weight (the CLI decodes its weights once per
call, so there for one command) and holds one entry per distinct J (and
kernel) asked of that weight.  == and hash read only the set.

substitution_poly is the polynomial that the translation machinery plugs in
for a single derivative x_{i,J}.  The indicator kernel puts coefficient 1 on
each vertex; the factorial kernel weights a vertex I by prod_k (I_k+J_k)!/I_k!
as differentiation of the honest series would.
"""

from __future__ import annotations

import enum
import math
import operator
from collections.abc import Iterable, Sequence

from .errors import TropdiffError, exponent, shown, width
from .series import QPoly
from .vertexpoly import VertexPoly, _vertices

Point = tuple[int, ...]


class BooleanWeight:
    """Finite or cofinite subset of N^m, read-only: data holds its points, or the points it leaves out."""

    __slots__ = ("_m", "_is_cofinite", "_data", "_shifts", "_vertex_set", "_substitutions")

    def __init__(self, *args):
        raise TypeError("a BooleanWeight is built by full, finite or cofinite")

    @classmethod
    def _made(cls, m: int, is_cofinite: bool, data: frozenset[Point]) -> "BooleanWeight":
        out = object.__new__(cls)
        out._m, out._is_cofinite, out._data = m, is_cofinite, data
        out._shifts, out._vertex_set, out._substitutions = {}, None, {}
        return out

    @classmethod
    def full(cls, m: int) -> "BooleanWeight":
        return cls.cofinite(m, ())

    @classmethod
    def finite(cls, m: int, points: Iterable[Sequence[int]]) -> "BooleanWeight":
        return cls._made(width(m), False, frozenset(exponent(p, m) for p in points))

    @classmethod
    def cofinite(cls, m: int, excluded: Iterable[Sequence[int]]) -> "BooleanWeight":
        return cls._made(width(m), True, frozenset(exponent(p, m) for p in excluded))

    m = property(operator.attrgetter("_m"))
    is_cofinite = property(operator.attrgetter("_is_cofinite"))
    data = property(operator.attrgetter("_data"))

    @property
    def kind(self) -> str:
        """Read from the set: "finite", "cofinite", or "full" when nothing is left out."""
        return ("cofinite" if self._data else "full") if self._is_cofinite else "finite"

    def __contains__(self, point: Sequence[int]) -> bool:
        return (exponent(point, self._m) in self._data) != self._is_cofinite

    def shift(self, J: Sequence[int]) -> "BooleanWeight":
        """The set {I >= 0 : I + J in self}, built once per J from checked points."""
        J = exponent(J, self._m, "multi-index")
        if J not in self._shifts:
            moved = frozenset(
                tuple(i - j for i, j in zip(p, J))
                for p in self._data
                if all(i >= j for i, j in zip(p, J))
            )
            self._shifts[J] = BooleanWeight._made(self._m, self._is_cofinite, moved)
        return self._shifts[J]

    def vertices(self) -> VertexPoly:
        """Tropical value of the series with this support, made once.

        A set that holds the origin is valued {0}, the semiring's 1: its
        series is a unit.  Any other set extracts the candidates it builds
        from its own checked points, with no second check.
        """
        if self._vertex_set is None:
            m, data = self._m, self._data
            if ((0,) * m in data) != self._is_cofinite:
                self._vertex_set = VertexPoly.one(m)
            else:
                points = data
                if self._is_cofinite:  # the origin is left out, so it is no candidate
                    steps = {q[:k] + (q[k] + 1,) + q[k + 1 :] for q in data for k in range(m)}
                    points = steps - data
                self._vertex_set = VertexPoly._trusted(m, _vertices(points))
        return self._vertex_set

    def series(self) -> QPoly:
        """The honest polynomial, available for finite supports only."""
        if self._is_cofinite:
            raise TropdiffError("only a finite weight is a polynomial")
        return QPoly(self._m, dict.fromkeys(self._data, 1))

    def __eq__(self, other):
        if not isinstance(other, BooleanWeight):
            return NotImplemented
        return (self._m, self._is_cofinite, self._data) == (other._m, other._is_cofinite, other._data)

    def __hash__(self):
        return hash((self._m, self._is_cofinite, self._data))

    def __str__(self):
        if self.kind == "full":
            return "N^%d" % self._m
        pts = ", ".join("(" + ",".join(map(str, p)) + ")" for p in sorted(self._data))
        if self.kind == "finite":
            return "{%s}" % pts
        return "N^%d minus {%s}" % (self._m, pts)

    __repr__ = __str__


class SubstitutionKernel(enum.Enum):
    INDICATOR = "indicator"
    FACTORIAL = "factorial"


def check_kernel(kernel) -> None:
    """Refuse a kernel that is not a SubstitutionKernel, such as its text value."""
    if type(kernel) is not SubstitutionKernel:
        raise ValueError(f"kernel must be a SubstitutionKernel, got {shown(kernel)}")


def substitution_poly(
    weight: BooleanWeight, J: Sequence[int], kernel: SubstitutionKernel = SubstitutionKernel.INDICATOR
) -> QPoly:
    """Polynomial substituted for one derivative of a weight.

    Supported on the vertices of the shifted weight; zero when the shift
    empties the support.
    """
    check_kernel(kernel)
    J = exponent(J, weight._m, "multi-index")  # a tuple: the factorial kernel reads it again
    key = (J, kernel)
    if key not in weight._substitutions:
        terms: dict[Point, int] = {}
        for p in weight.shift(J).vertices():
            c = 1
            if kernel is not SubstitutionKernel.INDICATOR:
                c = math.prod(math.perm(i + j, j) for i, j in zip(p, J))
            terms[p] = c
        weight._substitutions[key] = QPoly._trusted(weight._m, terms)
    return weight._substitutions[key]
