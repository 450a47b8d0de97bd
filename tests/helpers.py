"""Shared random generators and brute-force oracles for the test suite.

Everything takes an explicit random.Random so failures reproduce; the
acceptance suite fixes its own seeds.
"""

import itertools
import math
import operator
from fractions import Fraction

from tropdiff import (
    BooleanWeight,
    DiffMonomial,
    DiffPoly,
    MonomialOrder,
    NotAMonomialOrder,
    QPoly,
    RationalFunction,
    normalizer,
    substitution_poly,
    trop_poly,
    tropw,
)
from tropdiff.errors import exponent as checked_exponent
from tropdiff.series import _summed

NONZERO = (-3, -2, -1, 1, 2, 3)


def exponent(rng, m, hi=6):
    return tuple(rng.randrange(hi + 1) for _ in range(m))


def qpoly(rng, m, max_terms=4, hi=6):
    """Random nonzero polynomial with small integer coefficients."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            e = exponent(rng, m, hi)
            terms[e] = terms.get(e, Fraction(0)) + rng.choice(NONZERO)
        f = QPoly(m, terms)
        if not f.is_zero:
            return f


def rational(rng, m, max_terms=3, hi=4):
    return RationalFunction(qpoly(rng, m, max_terms, hi), qpoly(rng, m, max_terms, hi))


def unit_ball_fraction(rng, m, max_terms=4, hi=4, nonzero=False):
    """Random f/g with trop(f) <= trop(g).

    Every numerator exponent sits above some denominator vertex, which pins
    the numerator's polyhedron inside the denominator's.
    """
    g = qpoly(rng, m, max_terms, hi)
    vertices = trop_poly(g).points
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            base = rng.choice(vertices)
            e = tuple(b + rng.randrange(3) for b in base)
            terms[e] = terms.get(e, Fraction(0)) + rng.choice(NONZERO)
        f = QPoly(m, terms)
        if not (nonzero and f.is_zero):
            return RationalFunction(f, g)


def same_as_public(x) -> bool:
    """Does x hold what the public constructors build from its own data?

    Library results skip those constructors' checks, so they must already be
    canonical: polynomials in lowest terms, nonzero denominators.
    """
    if isinstance(x, DiffPoly):
        public = DiffPoly(x.m, x.n, x.terms)
        return public.terms.keys() == x.terms.keys() and all(
            isinstance(c, RationalFunction) and same_as_public(c) for c in x.terms.values()
        )
    if isinstance(x, RationalFunction):
        return (
            x.num.m == x.den.m
            and not x.den.is_zero
            and same_as_public(x.num)
            and same_as_public(x.den)
        )
    return canonical(x) and x.terms == QPoly(x.m, x.terms).terms


def canonical(q: QPoly) -> bool:
    """Is q in lowest terms?  Nonzero int coefficients over a positive int
    denominator that shares no factor with all of them; 1 for the zero
    polynomial, where the gcd is the denominator itself."""
    ints, den = q._ints, q._den
    return (
        type(den) is int
        and den > 0
        and all(type(c) is int and c != 0 for c in ints.values())
        and math.gcd(den, *ints.values()) == 1
    )


class FractionQPoly:
    """QPoly as it was with Fraction coefficients: exponent -> Fraction in terms.

    The oracle for QPoly's int arithmetic: the same operation on the same
    values must give the same terms.  RationalFunction._trusted accepts two of
    these, so RationalFunction arithmetic runs on them unchanged.
    """

    __slots__ = ("m", "terms")

    def __init__(self, m, terms):
        self.m = m
        self.terms = _summed((checked_exponent(e, m), Fraction(c)) for e, c in terms.items())

    @classmethod
    def of(cls, q: QPoly) -> "FractionQPoly":
        return cls(q.m, q.terms)

    @property
    def is_zero(self):
        return not self.terms

    def _coerce(self, other):
        if isinstance(other, FractionQPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return FractionQPoly(self.m, {(0,) * self.m: other})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        pairs = itertools.chain(self.terms.items(), other.terms.items())
        return FractionQPoly(self.m, _summed(pairs))

    __radd__ = __add__

    def __neg__(self):
        return FractionQPoly(self.m, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            scaled = {e: c * other for e, c in self.terms.items()} if other else {}
            return FractionQPoly(self.m, scaled)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        products = (
            (tuple(map(operator.add, e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items()
        )
        return FractionQPoly(self.m, _summed(products))

    __rmul__ = __mul__

    def __pow__(self, k):
        out = FractionQPoly(self.m, {(0,) * self.m: 1})
        for _ in range(k):
            out = out * self
        return out

    def __truediv__(self, other):
        return FractionQPoly(self.m, {e: c / other for e, c in self.terms.items()})

    def partial(self, k):
        return self.deriv(tuple(1 if j == k else 0 for j in range(self.m)))

    def deriv(self, J):
        """d^J in closed form, falling factorials; QPoly.deriv iterates partial instead."""
        return FractionQPoly(
            self.m,
            {
                tuple(map(operator.sub, e, J)): c * math.prod(map(math.perm, e, J))
                for e, c in self.terms.items()
                if all(map(operator.ge, e, J))
            },
        )


def covered_by_bases(points, target) -> bool:
    """Is target in conv(points) + R^m_{>=0}?  By brute force over bases.

    The system [Q I; 1 0] x = [target; 1], x >= 0 (the columns of Q are the
    points, I carries the slacks) has full row rank once there is a point, so
    it is feasible iff some basic solution is nonnegative.  A basis takes the
    point columns J and the slack columns of the rows outside some R, with
    |R| = |J| - 1.  Those slacks only absorb their own rows, so the basis is
    the |J| x |J| system of rows R and the convexity row, solved by Fraction
    elimination; the slacks are then target - sum lambda_j q_j off R.  No
    simplex is involved.
    """
    m = len(target)
    for size in range(1, m + 2):
        for J in itertools.combinations(points, size):
            for R in itertools.combinations(range(m), size - 1):
                lam = _solve(
                    [[q[k] for q in J] for k in R] + [[1] * size],
                    [target[k] for k in R] + [1],
                )
                if lam is not None and all(v >= 0 for v in lam) and all(
                    sum(x * q[k] for x, q in zip(lam, J)) <= target[k] for k in range(m)
                ):
                    return True
    return False


def _solve(matrix, rhs):
    """The unique solution of a square system, or None when it is singular."""
    size = len(rhs)
    aug = [[Fraction(v) for v in row] + [Fraction(r)] for row, r in zip(matrix, rhs)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(col + 1, size):
            if aug[r][col] != 0:
                f = aug[r][col] / aug[col][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    x = [Fraction(0)] * size
    for r in reversed(range(size)):
        x[r] = (aug[r][size] - sum(aug[r][c] * x[c] for c in range(r + 1, size))) / aug[r][r]
    return x


def translate_by_plug(P, weights, kernel):
    """Coefficients of translate(P, weights, kernel), by the first route taken.

    Each monomial's substitution polynomials are multiplied into one plug,
    starting from the constant 1 and one factor at a time, and the
    coefficient is pref * c * plug with the plug as a rational function over 1.
    Returns {monomial: coefficient}, without the monomials whose plug is zero.
    """
    value = tropw(P, weights)
    if value.is_zero:
        return {}
    pref = normalizer(value)
    out = {}
    for mono, c in P.terms.items():
        plug = QPoly.one(P.m)
        for (i, J), p in mono.factors:
            piece = substitution_poly(weights[i - 1], J, kernel)
            for _ in range(p):
                plug = plug * piece
        if not plug.is_zero:
            out[mono] = pref * c * RationalFunction(plug)
    return out


# -- the trees jsonio.dumps writes library values as --------------------------


def qpoly_json(f):
    return {"terms": [{"exp": list(e), "coeff": text} for e, text in f.text_terms()]}


def rational_json(q):
    return {"num": qpoly_json(q.num), "den": qpoly_json(q.den)}


def diffmonomial_json(mono):
    return [{"var": [i, list(J)], "pow": p} for (i, J), p in mono.factors]


def json_tree(value):
    """value with every QPoly, RationalFunction and DiffMonomial in it as plain dicts and lists.

    json.dumps(json_tree(v), sort_keys=True, indent=2) is what jsonio.dumps(v)
    must write, and json_tree(v) is what json.loads(jsonio.dumps(v)) must read.
    """
    if isinstance(value, QPoly):
        return qpoly_json(value)
    if isinstance(value, RationalFunction):
        return rational_json(value)
    if isinstance(value, DiffMonomial):
        return diffmonomial_json(value)
    if isinstance(value, list):
        return [json_tree(item) for item in value]
    if isinstance(value, dict):
        return {key: json_tree(item) for key, item in value.items()}
    return value


def matrix_order(rng, m):
    """Random validated full-rank matrix order (first row positive)."""
    while True:
        rows = [[rng.randint(1, 3) for _ in range(m)]]
        for _ in range(m - 1):
            rows.append([rng.randint(-3, 3) for _ in range(m)])
        try:
            order = MonomialOrder(rows)
        except NotAMonomialOrder:
            continue
        if _solve(rows, [0] * m) is not None:  # nonsingular, so of full rank
            return order


def weight(rng, m, hi=3):
    kind = rng.randrange(3)
    if kind == 0:
        return BooleanWeight.full(m)
    points = [exponent(rng, m, hi) for _ in range(rng.randint(1, 4))]
    if kind == 1:
        return BooleanWeight.finite(m, points)
    return BooleanWeight.cofinite(m, points)


def finite_weight(rng, m, hi=3):
    points = [exponent(rng, m, hi) for _ in range(rng.randint(1, 4))]
    return BooleanWeight.finite(m, points)


def diff_monomial(rng, m, n, hi=2):
    mono = DiffMonomial.var(rng.randint(1, n), exponent(rng, m, hi), rng.randint(1, 2))
    if rng.random() < 0.5:
        mono = mono * DiffMonomial.var(rng.randint(1, n), exponent(rng, m, hi))
    return mono


def diffpoly(rng, m, n, max_terms=2, coeff_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        coeff = RationalFunction(
            qpoly(rng, m, coeff_terms, 3), qpoly(rng, m, coeff_terms, 3)
        )
        terms[diff_monomial(rng, m, n)] = coeff
    return DiffPoly(m, n, terms)


# -- brute-force order comparators, written straight from the definitions ----


def lex_expected(a, b):
    """t1 smallest: the highest-numbered variable decides first."""
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return -1 if x < y else 1
    return 0


def grlex_expected(a, b):
    if sum(a) != sum(b):
        return -1 if sum(a) < sum(b) else 1
    return lex_expected(a, b)


def grevlex_expected(a, b):
    if sum(a) != sum(b):
        return -1 if sum(a) < sum(b) else 1
    for x, y in zip(a, b):
        if x != y:
            return -1 if x > y else 1
    return 0
