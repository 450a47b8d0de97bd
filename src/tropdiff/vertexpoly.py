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
survives.  The rest is Clarkson's output-sensitive scheme (K. L. Clarkson,
FOCS 1994; for extreme points, Dula and Helgason, EJOR 92, 1996), in two
steps.  Both rest on one lemma: for any y >= 0, y != 0, the points of the
polyhedron on which y is least form a face, and the lex-least point of that
face under any order of the coordinates is one of its vertices, hence a
vertex of the polyhedron, and it lies in the antichain.  It is the lex-least
minimiser of (y.q, q) over the antichain, with q read in that order.

First, some points of the antichain are vertices by the lemma and skip the
simplex (_quick_accepts): for each coordinate k, with y = e_k, the lex-least
point under "k first, then the others ascending" and under "k first, then
the others descending" (all six orders at m = 3); and, with y = (1, ..., 1),
the lex-least point of least total degree, ties included.  They seed the
certified set E.

Second, the Farkas step: each other point p of the antichain is tested
against E alone, which is sound because E is a set of vertices other than
p.  If E covers p, p is not a vertex.  If not, covered hands back y >= 0
with y.p < y.q for every q in E (read off the final tableau; see
feasibility).  By the lemma the lex-least minimiser of (y.q, q) over the
antichain is a vertex.  Its value is at most y.p, below every value on E,
so it is a new vertex; it joins E and p is tested again,
until E covers p or p itself is the minimiser.  So every LP runs over
certified vertices only, and each LP either settles p or adds a vertex:
at most one LP per antichain point and one per vertex that the first step
left out.  A minimiser already in E would mean a wrong certificate, and it
raises InternalInconsistency.  feasibility.covered has no other caller in
the package, and inside this module only _vertices runs it and the filter.

Two cases need neither the filter nor the LP.  A set of at most one point is
its own vertex set.  A product with a one-point factor {p} is the other
factor translated by p: the Minkowski sum with a single point maps the
vertices of conv(S) + R^m_{>=0} one to one onto those of conv(S + p) +
R^m_{>=0} and keeps their lex order, so __mul__ shifts the vertices it holds.
With p = 0 that is the other factor itself, and a ** 1 is a.

A sum of products needs one extraction, not one per product and per sum:
the polyhedron of a * b is the Minkowski sum of those of a and b, whose
vertices are among the sums p + q of their vertices, and the Minkowski sum
distributes over the convex hull of a union (B. Sturmfels, Groebner Bases
and Convex Polytopes, 1996, ch. 2).  So sum_of_products extracts the union
of the raw sums p + q over all the pairs once.  Its input has at most
|a| * |b| points per pair, so it stays bounded when each factor of a pair is
itself a vertex set, as the callers keep it.

_adder(m) is the one exponent sum of the package: every product here and in
series adds two points with it.  It is the function lambda a, b: (a[0] +
b[0], ..., a[m-1] + b[m-1],), made by eval of that template over
range(width(m)) alone, so only ints that width checked enter the text.  Its
one tuple display of m sums runs no iterator per sum, and took a third to
a half of the time of the tuple of a map of operator's add over a and b, the
spelling it replaced, at m = 1 to 9 under CPython 3.11; the inner step of a
sparse product is this sum.
Each width's adder is built once, on first use, and kept for the process by
functools.cache, as cli keeps its parsers: at most MAX_WIDTH of them, each a
function of its width alone.

The public constructor checks every point it is given with errors.exponent.
The semiring operations build their results from vertex sets that were
checked when they were made, so they extract with _vertices and check
nothing again; so does BooleanWeight.vertices, from a weight's own points.

staircase_vertices_2d answers the same question for m = 2 by a completely
different route (staircase walk plus convex chain); the test suite holds the
two routes against each other.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Callable, Iterable, Sequence

from .errors import InternalInconsistency, ZeroDenominator, exponent, power, same_width, shown, width
from .feasibility import covered

Point = tuple[int, ...]


@functools.cache
def _adder(m: int) -> Callable[[Point, Point], Point]:
    """The exponent sum at width m, built once per width (see the module docstring)."""
    return eval("lambda a, b: (" + "".join(f"a[{k}] + b[{k}], " for k in range(width(m))) + ")")


def _pareto_minimal(points: set[Point]) -> list[Point]:
    mins: list[Point] = []
    # Coordinatewise domination implies lexicographic order, so after sorting
    # only earlier survivors can dominate the current point.
    for p in sorted(points):
        if not any(all(map(operator.le, q, p)) for q in mins):
            mins.append(p)
    return mins


def _quick_accepts(mins: list[Point]) -> set[Point]:
    """Points of the antichain mins that are vertices with no LP; mins must be
    sorted lexicographically, as _pareto_minimal returns it.

    Each accept is a vertex by the module's lemma: the lex-least minimiser of
    (y.q, q) over mins, under some order of the coordinates, for some y >= 0,
    y != 0.  With y = e_k it is the lex-least point under "k first, then the
    others ascending" and under "k first, then the others descending", for
    each k: 2 orders at m = 2, all 6 at m = 3, 2m beyond.  With y = (1, ..., 1)
    it is the lex-least point of least total degree, ties included.

    min keeps the first of the points its key ties, so over the sorted mins
    it breaks a tie on coordinate k, or on the total degree, by the ascending
    order of the rest; over mins sorted by the reversed point it breaks a tie
    on k by the descending order of the others.
    """
    backwards = sorted(mins, key=lambda p: p[::-1])
    sure = {min(mins, key=sum)}
    for k in range(len(mins[0])):
        at_k = operator.itemgetter(k)
        sure.add(min(mins, key=at_k))
        sure.add(min(backwards, key=at_k))
    return sure


def _vertices(points: set[Point]) -> tuple[Point, ...]:
    """Sorted vertex set of conv(points + R^m_{>=0}); the points are not checked."""
    if len(points) <= 1:
        return tuple(points)
    mins = _pareto_minimal(points)
    if len(mins) <= 2:
        return tuple(sorted(mins))
    kept = _quick_accepts(mins)
    y: list[int] = []
    for p in mins:
        while p not in kept and not covered(list(kept), p, y):
            # y separates p strictly from kept, so the lex-least minimiser of
            # y over mins is a vertex outside kept; p is kept once it is p
            q = min(mins, key=lambda q: (sum(map(operator.mul, y, q)), q))
            if q in kept:
                raise InternalInconsistency(f"separator {shown(y)} of {shown(p)} is least on the vertex {shown(q)}")
            kept.add(q)
    return tuple(sorted(kept))


class VertexPoly:
    """Vertex set of the Newton polyhedron spanned by the given points."""

    __slots__ = ("m", "points")

    def __init__(self, m: int, points: Iterable[Sequence[int]] = ()):
        self.m = width(m)
        self.points = _vertices({exponent(p, m) for p in points})

    @classmethod
    def _trusted(cls, m: int, points: tuple[Point, ...]) -> "VertexPoly":
        out = object.__new__(cls)
        out.m = m
        out.points = points
        return out

    @classmethod
    def zero(cls, m: int) -> "VertexPoly":
        return cls._trusted(width(m), ())

    @classmethod
    def one(cls, m: int) -> "VertexPoly":
        return cls._trusted(width(m), ((0,) * m,))

    @classmethod
    def point(cls, e: Sequence[int]) -> "VertexPoly":
        p = exponent(e)
        return cls._trusted(width(len(p)), (p,))

    @property
    def is_zero(self) -> bool:
        return not self.points

    @property
    def is_one(self) -> bool:
        return self.points == ((0,) * self.m,)

    def __add__(self, other: "VertexPoly") -> "VertexPoly":
        if not isinstance(other, VertexPoly):
            return NotImplemented
        same_width(self.m, other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        return VertexPoly._trusted(self.m, _vertices({*self.points, *other.points}))

    def __mul__(self, other: "VertexPoly") -> "VertexPoly":
        if not isinstance(other, VertexPoly):
            return NotImplemented
        same_width(self.m, other)
        a, b = self, other
        if len(a.points) == 1 and (len(b.points) != 1 or not any(a.points[0])):
            a, b = b, a
        add = _adder(self.m)
        # b is a one-point factor if either is, and {0} if either is
        if len(b.points) == 1:
            (p,) = b.points
            if not any(p):  # {0} is the unit
                return a
            # a translation maps vertices onto vertices and keeps lex order
            return VertexPoly._trusted(self.m, tuple(add(p, q) for q in a.points))
        sums = {add(p, q) for p in a.points for q in b.points}
        return VertexPoly._trusted(self.m, _vertices(sums))

    @classmethod
    def sum_of_products(cls, m: int, pairs: Iterable[tuple["VertexPoly", "VertexPoly"]]) -> "VertexPoly":
        """The sum of a * b over the pairs, extracted once from the union of the raw sums p + q."""
        sums: set[Point] = set()
        add = _adder(m)
        for a, b in pairs:
            same_width(m, a)
            same_width(m, b)
            sums.update(add(p, q) for p in a.points for q in b.points)
        return cls._trusted(m, _vertices(sums))

    def __pow__(self, k: int) -> "VertexPoly":
        """k-fold product: the vertices of conv(S) + ... + conv(S) = k conv(S) are k S."""
        power(k)
        if k < 0:
            raise ValueError("negative power of a vertex set")
        if k == 0:
            return VertexPoly.one(self.m)
        if k == 1:
            return self
        return VertexPoly._trusted(self.m, tuple(tuple(k * v for v in p) for p in self.points))

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
        same_width(num.m, den)
        if den.is_zero:
            raise ZeroDenominator("vertex fraction with zero denominator")
        self.num = num
        self.den = den

    @classmethod
    def _trusted(cls, num: VertexPoly, den: VertexPoly) -> "VertexFraction":
        """Results of +, * and **: VertexPoly's own products check m, and
        products and powers of nonzero denominators are nonzero."""
        out = object.__new__(cls)
        out.num = num
        out.den = den
        return out

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
        return VertexFraction._trusted(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __mul__(self, other: "VertexFraction") -> "VertexFraction":
        if not isinstance(other, VertexFraction):
            return NotImplemented
        return VertexFraction._trusted(self.num * other.num, self.den * other.den)

    def __pow__(self, k: int) -> "VertexFraction":
        power(k)
        return VertexFraction._trusted(self.num**k, self.den**k)

    def __eq__(self, other):
        if not isinstance(other, VertexFraction):
            return NotImplemented
        return self.m == other.m and self.num * other.den == other.num * self.den

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
    pts = sorted({exponent(p, 2) for p in points})
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
    width(n, "n")
    top = VertexPoly(2, [(2 * n + 1, 0), (0, 2 * n + 1)])
    bottom = VertexPoly(2, [(2 * n + 1, 0), (n, n), (0, 2 * n + 1)])
    return VertexFraction(top, bottom)


def omega_chain(count: int) -> list[VertexFraction]:
    return [omega_witness(n) for n in range(1, count + 1)]
