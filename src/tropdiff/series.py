"""Rational functions over Q in t1..tm and their tropical values.

QPoly is a sparse exponent-to-int map over one positive int denominator, in
lowest terms, so its arithmetic runs on ints; a Fraction is made only where a
coefficient leaves the class.  RationalFunction is a formal quotient of two
QPoly, never reduced, with equality decided by cross-multiplication.  The
tropical value of a polynomial is the vertex set of its support, and the value
of a quotient is the corresponding vertex fraction.  Elements of tropical
value <= 1 form the unit ball; the residue map, divisibility test, lifting
witness and separating constants below all live there.
Public constructors validate; _trusted only wraps results built from validated values.
deriv(J) is d^J in QPoly, RationalFunction and DiffPoly alike: _iterated checks
J once, then applies the one-direction derivative J_k times in each direction k.

Every sparse sum, here and in DiffPoly, goes through _summed: values at equal
keys are added in order, and a key is dropped as soon as its running sum is
zero.  Dropping at once matters because a RationalFunction is never reduced:
a later term c/e added onto a kept 0/d would come out as (d*c)/(d*e), not c/e.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    DimensionMismatch,
    InconsistentOracle,
    InternalInconsistency,
    NotInUnitBall,
    ZeroDenominator,
    ZeroTropicalValue,
    exponent,
    power,
    width,
)
from .orders import EQ, GT, LT, MonomialOrder
from .vertexpoly import VertexFraction, VertexPoly

Exponent = tuple[int, ...]


def _summed(pairs: Iterable[tuple]) -> dict:
    """Sum the values per key in order, dropping a key once its sum is zero."""
    out: dict = {}
    for key, value in pairs:
        if key in out:
            value = out[key] + value
        if value:
            out[key] = value
        else:
            out.pop(key, None)
    return out


def _iterated(value, J: Sequence[int], partial: Callable):
    """d^J value: partial(value, k) taken J_k times for each k, after one check of J."""
    for k, j in enumerate(exponent(J, value.m, "multi-index")):
        for _ in range(j):
            value = partial(value, k)
    return value


def _coefficient(c) -> Fraction:
    """c as an exact Fraction; a float is refused rather than read as its binary value."""
    if isinstance(c, float):
        raise ValueError(f"coefficients must be exact, got the float {c!r}")
    return Fraction(c)


def fraction_text(c: int, d: int) -> str:
    """str(Fraction(c, d)) for d > 0, written without building the Fraction."""
    g = math.gcd(c, d)
    return str(c // g) if g == d else f"{c // g}/{d // g}"


def _var_names(m: int) -> tuple[str, ...]:
    if m == 1:
        return ("t",)
    if m == 2:
        return ("t", "u")
    return tuple(f"t{i}" for i in range(1, m + 1))


class QPoly:
    """Polynomial in m variables with rational coefficients, stored sparsely.

    The coefficients are ints over one positive int denominator, in lowest
    terms: no int is zero, the denominator shares no factor with all of them
    at once, and the zero polynomial has denominator 1.  So each polynomial has
    one representation, and arithmetic runs on ints with one gcd per result.
    Fractions are made only where a value leaves the polynomial: coeff,
    constant_value, terms, and the text of str and text_terms.
    """

    __slots__ = ("m", "_ints", "_den")

    def __init__(self, m: int, terms: Mapping[Sequence[int], Fraction | int] | None = None):
        self.m = width(m)
        fractions = _summed(
            (exponent(e, m), _coefficient(c)) for e, c in (terms or {}).items()
        )
        # over the lcm of the reduced denominators the numerators share no factor with it
        den = math.lcm(*(c.denominator for c in fractions.values()))
        self._ints = {e: c.numerator * (den // c.denominator) for e, c in fractions.items()}
        self._den = den

    @classmethod
    def _trusted(cls, m: int, ints: dict[Exponent, int], den: int = 1) -> "QPoly":
        """Wrap ints over den that are already in lowest terms."""
        out = object.__new__(cls)
        out.m = m
        out._ints = ints
        out._den = den
        return out

    @classmethod
    def _lowest(cls, m: int, ints: dict[Exponent, int], den: int) -> "QPoly":
        """ints over den > 0, no int zero, divided by their common factor."""
        if den != 1:
            g = math.gcd(den, *ints.values())
            if g != 1:
                ints = {e: c // g for e, c in ints.items()}
                den //= g
        return cls._trusted(m, ints, den)

    @classmethod
    def zero(cls, m: int) -> "QPoly":
        return cls(m)

    @classmethod
    def one(cls, m: int) -> "QPoly":
        return cls._trusted(width(m), {(0,) * m: 1})

    @classmethod
    def constant(cls, m: int, c) -> "QPoly":
        c = _coefficient(c)
        return cls._trusted(width(m), {(0,) * m: c.numerator} if c else {}, c.denominator)

    @classmethod
    def monomial(cls, e: Sequence[int], coeff=1) -> "QPoly":
        e = exponent(e)
        return cls(len(e), {e: coeff})

    @classmethod
    def variable(cls, m: int, i: int) -> "QPoly":
        """The variable t_i, indexed from 1."""
        if type(i) is not int:
            raise ValueError(f"variable index must be an int, got {i!r}")
        if not 1 <= i <= width(m):
            raise DimensionMismatch(f"variable index {i} out of range for m={m}")
        return cls.monomial(tuple(1 if k == i - 1 else 0 for k in range(m)))

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        """Exponent -> Fraction coefficient, built anew on each read."""
        den = self._den
        return {e: Fraction(c, den) for e, c in self._ints.items()}

    def text_terms(self) -> list[tuple[Exponent, str]]:
        """(exponent, coefficient as str(Fraction) writes it), by increasing exponent."""
        den = self._den
        return [(e, fraction_text(self._ints[e], den)) for e in sorted(self._ints)]

    @property
    def is_zero(self) -> bool:
        return not self._ints

    @property
    def is_constant(self) -> bool:
        return all(all(v == 0 for v in e) for e in self._ints)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("not a constant polynomial")
        return Fraction(self._ints.get((0,) * self.m, 0), self._den)

    def coeff(self, exponent: Sequence[int]) -> Fraction:
        return Fraction(self._ints.get(tuple(exponent), 0), self._den)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QPoly):
            if other.m != self.m:
                raise DimensionMismatch(f"mixing m={self.m} with m={other.m}")
            return other
        if isinstance(other, (int, Fraction)):
            return QPoly.constant(self.m, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        da, db = self._den, other._den
        if da == db:
            pairs = itertools.chain(self._ints.items(), other._ints.items())
            return QPoly._lowest(self.m, _summed(pairs), da)
        # over the common denominator da * sa == db * sb
        g = math.gcd(da, db)
        sa, sb = db // g, da // g
        pairs = itertools.chain(
            ((e, c * sa) for e, c in self._ints.items()),
            ((e, c * sb) for e, c in other._ints.items()),
        )
        return QPoly._lowest(self.m, _summed(pairs), da * sa)

    __radd__ = __add__

    def __neg__(self):
        return QPoly._trusted(self.m, {e: -c for e, c in self._ints.items()}, self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scaled(self, p: int, q: int) -> "QPoly":
        """self * p/q, for q > 0."""
        if not p:
            return QPoly._trusted(self.m, {})
        return QPoly._lowest(self.m, {e: c * p for e, c in self._ints.items()}, self._den * q)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not (self._ints and other._ints):
            return QPoly._trusted(self.m, {})
        products = (
            (tuple(map(operator.add, e1, e2)), c1 * c2)
            for e1, c1 in self._ints.items()
            for e2, c2 in other._ints.items()
        )
        return QPoly._lowest(self.m, _summed(products), self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        power(k)
        if k < 0:
            raise ValueError("negative power of a polynomial")
        if k == 0:
            return QPoly.one(self.m)
        if len(self._ints) == 1:  # (c/d t^e)^k = c^k/d^k t^(k e), already in lowest terms
            [(e, c)] = self._ints.items()
            return QPoly._trusted(self.m, {tuple(k * v for v in e): c**k}, self._den**k)
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDenominator("division by zero")
            p, q = other.numerator, other.denominator
            return self._scaled(q, p) if p > 0 else self._scaled(-q, -p)
        return NotImplemented

    # -- calculus ----------------------------------------------------------

    def partial(self, k: int) -> "QPoly":
        """Derivative with respect to the k-th variable, 0-indexed."""
        if type(k) is not int or not 0 <= k < self.m:
            raise ValueError(f"direction must be an int in 0..{self.m - 1}, got {k!r}")
        # e -> e - e_k is injective, so no two terms meet
        ints = {e[:k] + (e[k] - 1,) + e[k + 1 :]: c * e[k] for e, c in self._ints.items() if e[k]}
        return QPoly._lowest(self.m, ints, self._den)

    def deriv(self, J: Sequence[int]) -> "QPoly":
        """Iterated derivative d^J."""
        return _iterated(self, J, QPoly.partial)

    # -- misc ---------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly.constant(self.m, other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.m == other.m and self._den == other._den and self._ints == other._ints

    __hash__ = None  # sparse dict payload; use support/coeff instead

    def __str__(self):
        if not self._ints:
            return "0"
        names = _var_names(self.m)
        den = self._den
        bits: list[str] = []
        for exp in sorted(self._ints, reverse=True):
            c = self._ints[exp]
            mono = "*".join(
                name if e == 1 else f"{name}^{e}" for name, e in zip(names, exp) if e
            )
            if not mono:
                body = fraction_text(abs(c), den)
            elif abs(c) == den:
                body = mono
            else:
                body = f"{fraction_text(abs(c), den)}*{mono}"
            if not bits:
                bits.append(body if c > 0 else f"-{body}")
            else:
                bits.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(bits)

    __repr__ = __str__


class RationalFunction:
    """Quotient of two QPoly with nonzero denominator, never reduced."""

    __slots__ = ("num", "den")

    def __init__(self, num: QPoly, den: QPoly | None = None):
        if den is None:
            den = QPoly.one(num.m)
        if num.m != den.m:
            raise DimensionMismatch(f"mixing m={num.m} with m={den.m}")
        if den.is_zero:
            raise ZeroDenominator("rational function with zero denominator")
        self.num = num
        self.den = den

    @classmethod
    def _trusted(cls, num: QPoly, den: QPoly) -> "RationalFunction":
        out = object.__new__(cls)
        out.num = num
        out.den = den
        return out

    @classmethod
    def constant(cls, m: int, c) -> "RationalFunction":
        return cls(QPoly.constant(m, c))

    @property
    def m(self) -> int:
        return self.num.m

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self):
        return not self.num.is_zero

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            if other.m != self.m:
                raise DimensionMismatch(f"mixing m={self.m} with m={other.m}")
            return other
        if isinstance(other, QPoly):
            return RationalFunction(other)
        if isinstance(other, (int, Fraction)):
            return RationalFunction.constant(self.m, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        num = self.num * other.den + other.num * self.den
        return RationalFunction._trusted(num, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._trusted(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        # QPoly.__mul__ checks a polynomial's m; neither factor changes the denominator
        if isinstance(other, (int, Fraction, QPoly)):
            return RationalFunction._trusted(self.num * other, self.den)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction._trusted(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.num.is_zero:
            raise ZeroDenominator("division by zero")
        return RationalFunction._trusted(self.num * other.den, self.den * other.num)

    def __pow__(self, k: int):
        power(k)
        if k < 0:
            return RationalFunction(self.den, self.num) ** (-k)
        return RationalFunction._trusted(self.num**k, self.den**k)

    def partial(self, k: int) -> "RationalFunction":
        num = self.num.partial(k) * self.den - self.num * self.den.partial(k)
        return RationalFunction._trusted(num, self.den * self.den)

    def deriv(self, J: Sequence[int]) -> "RationalFunction":
        return _iterated(self, J, RationalFunction.partial)

    def as_qpoly(self) -> QPoly:
        """Convert when the denominator is a nonzero constant."""
        if not self.den.is_constant:
            raise ValueError("denominator is not constant")
        return self.num / self.den.constant_value()

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None  # equality is up to cross-multiplication

    def __str__(self):
        num = str(self.num)
        if self.den == QPoly.one(self.m):
            return num
        if len(self.num._ints) > 1:
            num = f"({num})"
        den = str(self.den)
        # parens unless the denominator is a single bare factor, otherwise the
        # left-associative grammar would regroup q/3*u as (q/3)*u
        if any(ch in den for ch in "+-*/"):
            den = f"({den})"
        return f"{num}/{den}"

    __repr__ = __str__


def _as_rf(q) -> RationalFunction:
    if isinstance(q, RationalFunction):
        return q
    if isinstance(q, QPoly):
        return RationalFunction(q)
    raise TypeError(f"expected QPoly or RationalFunction, got {type(q).__name__}")


# -- tropicalization --------------------------------------------------------


def _quotient_at(q: RationalFunction, e: Exponent) -> Fraction:
    """q.num's coefficient at e over q.den's, for e in the support of q.den."""
    num, den = q.num, q.den
    return Fraction(num._ints.get(e, 0) * den._den, num._den * den._ints[e])


def trop_poly(f: QPoly) -> VertexPoly:
    """Vertex set of the support; trop of the zero polynomial is 0."""
    return VertexPoly(f.m, f._ints.keys())


def trop_frac(q) -> VertexFraction:
    q = _as_rf(q)
    return VertexFraction(trop_poly(q.num), trop_poly(q.den))


def in_unit_ball(q) -> bool:
    """Is trop(num) <= trop(den)?  That is, do the numerator's exponents add no vertex?

    trop(num) <= trop(den) means trop(num) + trop(den) == trop(den), and the
    vertex set of a union does not change when a part is replaced by its own
    vertex set.  So the numerator's support joins the denominator's vertices
    directly: two extractions instead of the three that trop_frac and the
    semiring sum take.
    """
    q = _as_rf(q)
    den = trop_poly(q.den)
    return VertexPoly(q.m, den.points + tuple(q.num._ints)) == den


def is_unit(q) -> bool:
    return trop_frac(q) == VertexFraction.one(_as_rf(q).m)


def divides_in_unit_ball(a, b) -> bool:
    """Does b lie in the ideal generated by a inside the unit ball?"""
    a, b = _as_rf(a), _as_rf(b)
    for q in (a, b):
        if not in_unit_ball(q):
            raise NotInUnitBall(f"{q} lies outside the unit ball")
    if b.is_zero:
        return True
    if a.is_zero:
        return False
    return trop_frac(b) <= trop_frac(a)


def bezout_witness(phi, psi) -> int:
    """Smallest M >= 1 with trop(phi + M psi) = trop(phi) + trop(psi).

    Each vertex of the joint value rules out at most one integer M, so some
    M within (number of vertices + 1) always works.
    """
    phi, psi = _as_rf(phi), _as_rf(psi)
    if phi.is_zero or psi.is_zero:
        raise ZeroTropicalValue("witness needs two nonzero inputs")
    left = trop_poly(phi.num * psi.den)
    right = trop_poly(psi.num * phi.den)
    target = left + right
    for mult in range(1, len(target.points) + 2):
        if trop_poly(phi.num * psi.den + psi.num * phi.den * mult) == target:
            return mult
    raise InternalInconsistency("no witness within the pigeonhole bound")


def residue(q, order: MonomialOrder) -> Fraction:
    """Value of q at the smallest denominator exponent under the order.

    Only defined on the unit ball, where it does not depend on the chosen
    representative and is a ring homomorphism onto Q.
    """
    q = _as_rf(q)
    if order.m != q.m:
        raise DimensionMismatch(f"order on m={order.m}, element has m={q.m}")
    if not in_unit_ball(q):
        raise NotInUnitBall(f"residue of {q} is undefined: tropical value exceeds 1")
    return _quotient_at(q, order.min(q.den._ints.keys()))


def max_ideal_member(q, order: MonomialOrder) -> bool:
    """Membership in the maximal ideal attached to the order."""
    return residue(q, order) == 0


def order_from_membership(
    oracle: Callable[[RationalFunction], bool],
    I: Sequence[int],
    J: Sequence[int],
) -> int:
    """Recover the comparison of I and J from a maximal-ideal membership oracle.

    I < J exactly when t^J/(t^I + t^J) lies in the ideal.  An oracle that
    answers the same on both quotients does not describe a total order.
    """
    I = exponent(I)
    J = exponent(J, len(I))
    if I == J:
        return EQ
    tI, tJ = QPoly.monomial(I), QPoly.monomial(J)
    s = tI + tJ
    j_in = bool(oracle(RationalFunction(tJ, s)))
    i_in = bool(oracle(RationalFunction(tI, s)))
    if j_in and not i_in:
        return LT
    if i_in and not j_in:
        return GT
    raise InconsistentOracle(
        f"oracle puts {'both' if i_in else 'neither'} of t^{I}, t^{J} in the ideal"
    )


def separating_constants(q) -> tuple[Fraction, ...]:
    """Constants alpha with trop(prod_k (q - alpha_k)) strictly below 1.

    One alpha per denominator vertex, read off as the quotient of the
    numerator and denominator coefficients there; if q is already strictly
    below 1 a single zero suffices.  Vertices are enumerated in descending
    lexicographic order.
    """
    q = _as_rf(q)
    value = trop_frac(q)
    if not value.in_unit_ball():
        raise NotInUnitBall(f"separating constants of {q} need tropical value <= 1")
    if value.absorbed_by(VertexFraction.one(q.m)):
        return (Fraction(0),)
    vertices = sorted(trop_poly(q.den).points, reverse=True)
    return tuple(_quotient_at(q, v) for v in vertices)
