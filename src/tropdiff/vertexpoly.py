"""Vertex sets of Newton polyhedra as an idempotent semiring.

A finite S in N^m determines the polyhedron conv(S + R^m_{>=0}); the class
below stores only the vertex set of that polyhedron.  Union followed by
re-extraction is the semiring addition (idempotent: a + a = a), Minkowski sum
followed by re-extraction is the multiplication.  Zero is the empty set, one
is {0}.  The natural order is a <= b iff a + b == b, i.e. the polyhedron of b
contains that of a.

Vertex extraction is the exact test from feasibility.covered: a candidate p
is a vertex iff no convex combination of the other points sits componentwise
below p.  A point dominated coordinatewise can never be a vertex, so a cheap
Pareto filter runs first and the simplex only sees the antichain that
survives.

staircase_vertices_2d answers the same question for m = 2 by a completely
different route (staircase walk plus convex chain); the test suite holds the
two routes against each other.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import DimensionMismatch, ZeroDenominator
from .feasibility import covered

Point = tuple[int, ...]


def _validated_points(m: int, points: Iterable[Sequence[int]]) -> set[Point]:
    cleaned = set()
    for p in points:
        q = tuple(int(v) for v in p)
        if len(q) != m:
            raise DimensionMismatch(f"point {q} does not have {m} coordinates")
        if any(v < 0 for v in q):
            raise ValueError(f"exponents must be nonnegative, got {q}")
        cleaned.add(q)
    return cleaned


def _pareto_minimal(points: set[Point]) -> list[Point]:
    mins: list[Point] = []
    # Coordinatewise domination implies lexicographic order, so after sorting
    # only earlier survivors can dominate the current point.
    for p in sorted(points):
        if not any(all(qk <= pk for qk, pk in zip(q, p)) for q in mins):
            mins.append(p)
    return mins


def _extract(m: int, points: Iterable[Sequence[int]]) -> tuple[Point, ...]:
    mins = _pareto_minimal(_validated_points(m, points))
    if len(mins) <= 2:
        return tuple(sorted(mins))
    kept = [p for p in mins if not covered([q for q in mins if q != p], p)]
    return tuple(sorted(kept))


class VertexPoly:
    """Vertex set of the Newton polyhedron spanned by the given points."""

    __slots__ = ("m", "points")

    def __init__(self, m: int, points: Iterable[Sequence[int]] = ()):
        if m < 1:
            raise ValueError("need at least one coordinate")
        self.m = m
        self.points = _extract(m, points)

    @classmethod
    def _trusted(cls, m: int, points: tuple[Point, ...]) -> "VertexPoly":
        out = object.__new__(cls)
        out.m = m
        out.points = points
        return out

    @classmethod
    def zero(cls, m: int) -> "VertexPoly":
        return cls._trusted(m, ())

    @classmethod
    def one(cls, m: int) -> "VertexPoly":
        return cls._trusted(m, ((0,) * m,))

    @classmethod
    def point(cls, exponent: Sequence[int]) -> "VertexPoly":
        p = tuple(int(v) for v in exponent)
        if any(v < 0 for v in p):
            raise ValueError(f"exponents must be nonnegative, got {p}")
        return cls._trusted(len(p), (p,))

    @property
    def is_zero(self) -> bool:
        return not self.points

    @property
    def is_one(self) -> bool:
        return self.points == ((0,) * self.m,)

    def _check(self, other: "VertexPoly"):
        if self.m != other.m:
            raise DimensionMismatch(f"mixing m={self.m} with m={other.m}")

    def __add__(self, other: "VertexPoly") -> "VertexPoly":
        if not isinstance(other, VertexPoly):
            return NotImplemented
        self._check(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        return VertexPoly(self.m, self.points + other.points)

    def __mul__(self, other: "VertexPoly") -> "VertexPoly":
        if not isinstance(other, VertexPoly):
            return NotImplemented
        self._check(other)
        pairs = [tuple(a + b for a, b in zip(p, q)) for p in self.points for q in other.points]
        return VertexPoly(self.m, pairs)

    def __pow__(self, k: int) -> "VertexPoly":
        if k < 0:
            raise ValueError("negative power of a vertex set")
        out = VertexPoly.one(self.m)
        for _ in range(k):
            out = out * self
        return out

    def __le__(self, other: "VertexPoly") -> bool:
        if not isinstance(other, VertexPoly):
            return NotImplemented
        return (self + other) == other

    def absorbed_by(self, other: "VertexPoly") -> bool:
        """Strict domination: self <= other with no shared vertex."""
        return self <= other and not set(self.points) & set(other.points)

    def __eq__(self, other):
        if not isinstance(other, VertexPoly):
            return NotImplemented
        return self.m == other.m and self.points == other.points

    def __hash__(self):
        return hash((self.m, self.points))

    def __bool__(self):
        return not self.is_zero

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def __str__(self):
        # printed largest-first, the usual way these sets are written down
        if self.is_zero:
            return "0"
        inner = ", ".join(
            "(" + ",".join(map(str, p)) + ")" for p in reversed(self.points)
        )
        return "{" + inner + "}"

    __repr__ = __str__


class VertexFraction:
    """Formal quotient of vertex sets, compared by cross-multiplication.

    Fractions are kept unreduced; equality a/b == c/d means ad == cb, and the
    order a/b <= c/d means ad <= cb.  Denominators are never zero.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: VertexPoly, den: VertexPoly | None = None):
        if den is None:
            den = VertexPoly.one(num.m)
        if num.m != den.m:
            raise DimensionMismatch(f"mixing m={num.m} with m={den.m}")
        if den.is_zero:
            raise ZeroDenominator("vertex fraction with zero denominator")
        self.num = num
        self.den = den

    @classmethod
    def zero(cls, m: int) -> "VertexFraction":
        return cls(VertexPoly.zero(m))

    @classmethod
    def one(cls, m: int) -> "VertexFraction":
        return cls(VertexPoly.one(m))

    @property
    def m(self) -> int:
        return self.num.m

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other: "VertexFraction") -> "VertexFraction":
        if not isinstance(other, VertexFraction):
            return NotImplemented
        return VertexFraction(self.num * other.den + other.num * self.den, self.den * other.den)

    def __mul__(self, other: "VertexFraction") -> "VertexFraction":
        if not isinstance(other, VertexFraction):
            return NotImplemented
        return VertexFraction(self.num * other.num, self.den * other.den)

    def __pow__(self, k: int) -> "VertexFraction":
        return VertexFraction(self.num**k, self.den**k)

    def __eq__(self, other):
        if not isinstance(other, VertexFraction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None  # equality is up to cross-multiplication

    def __le__(self, other: "VertexFraction") -> bool:
        if not isinstance(other, VertexFraction):
            return NotImplemented
        return self.num * other.den <= other.num * self.den

    def in_unit_ball(self) -> bool:
        return self.num <= self.den

    def absorbed_by(self, other: "VertexFraction") -> bool:
        """Strict domination after clearing denominators."""
        return (self.num * other.den).absorbed_by(other.num * self.den)

    def __str__(self):
        if self.den.is_one:
            return str(self.num)
        return f"{self.num} / {self.den}"

    __repr__ = __str__


def staircase_vertices_2d(points: Iterable[Sequence[int]]) -> tuple[Point, ...]:
    """Vertices of conv(points + R^2_{>=0}) by staircase walk and convex chain.

    Independent of the simplex route on purpose; only valid for m = 2.
    """
    points = [tuple(p) for p in points]
    if any(len(p) != 2 for p in points):
        raise DimensionMismatch("staircase construction needs m = 2")
    pts = sorted({(int(x), int(y)) for x, y in points})
    stair: list[Point] = []
    best_y: int | None = None
    for x, y in pts:
        if best_y is None or y < best_y:
            stair.append((x, y))
            best_y = y
    hull: list[Point] = []
    for p in stair:
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            turn = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
            if turn <= 0:  # b on or above the chord from a to p: not a vertex
                hull.pop()
            else:
                break
        hull.append(p)
    return tuple(sorted(hull))


def omega_witness(n: int) -> VertexFraction:
    """n-th element of a strictly increasing chain inside the unit ball.

    Numerator vertices {(2n+1,0),(0,2n+1)}, denominator adds the middle point
    (n,n); the quotient grows strictly with n, so the ball has no maximal
    condition on chains.
    """
    if n < 1:
        raise ValueError("chain starts at n = 1")
    top = VertexPoly(2, [(2 * n + 1, 0), (0, 2 * n + 1)])
    bottom = VertexPoly(2, [(2 * n + 1, 0), (n, n), (0, 2 * n + 1)])
    return VertexFraction(top, bottom)


def omega_chain(count: int) -> list[VertexFraction]:
    return [omega_witness(n) for n in range(1, count + 1)]
