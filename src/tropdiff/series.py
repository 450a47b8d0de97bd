"""Rational functions over Q in t1..tm and their tropical values.

QPoly is a sparse exponent-to-coefficient map with exact Fraction
coefficients; RationalFunction is a formal quotient of two QPoly, never
reduced, with equality decided by cross-multiplication.  The tropical value
of a polynomial is the vertex set of its support, and the value of a quotient
is the corresponding vertex fraction.  Elements of tropical value <= 1 form
the unit ball; the residue map, divisibility test, lifting witness and
separating constants below all live there.
Public constructors validate; _trusted only wraps results built from validated values.

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
    width,
)
from .orders import EQ, GT, LT, MonomialOrder
from .vertexpoly import VertexFraction, VertexPoly

Exponent = tuple[int, ...]

_ZERO = Fraction(0)


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


def _coefficient(c) -> Fraction:
    """c as an exact Fraction; a float is refused rather than read as its binary value."""
    if isinstance(c, float):
        raise ValueError(f"coefficients must be exact, got the float {c!r}")
    return Fraction(c)


def _var_names(m: int) -> tuple[str, ...]:
    if m == 1:
        return ("t",)
    if m == 2:
        return ("t", "u")
    return tuple(f"t{i}" for i in range(1, m + 1))


class QPoly:
    """Polynomial in m variables with rational coefficients, stored sparsely."""

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms: Mapping[Sequence[int], Fraction | int] | None = None):
        self.m = width(m)
        self.terms = _summed(
            (exponent(e, m), _coefficient(c)) for e, c in (terms or {}).items()
        )

    @classmethod
    def _trusted(cls, m: int, terms: dict[Exponent, Fraction]) -> "QPoly":
        out = object.__new__(cls)
        out.m = m
        out.terms = terms
        return out

    @classmethod
    def zero(cls, m: int) -> "QPoly":
        return cls(m)

    @classmethod
    def one(cls, m: int) -> "QPoly":
        return cls.constant(m, 1)

    @classmethod
    def constant(cls, m: int, c) -> "QPoly":
        c = _coefficient(c)
        return cls._trusted(width(m), {(0,) * m: c} if c else {})

    @classmethod
    def monomial(cls, exponent: Sequence[int], coeff=1) -> "QPoly":
        exponent = tuple(exponent)
        return cls(len(exponent), {exponent: coeff})

    @classmethod
    def variable(cls, m: int, i: int) -> "QPoly":
        """The variable t_i, indexed from 1."""
        if not 1 <= i <= m:
            raise DimensionMismatch(f"variable index {i} out of range for m={m}")
        return cls.monomial(tuple(1 if k == i - 1 else 0 for k in range(m)))

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(all(v == 0 for v in e) for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("not a constant polynomial")
        return self.terms.get((0,) * self.m, _ZERO)

    def coeff(self, exponent: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exponent), _ZERO)

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
        pairs = itertools.chain(self.terms.items(), other.terms.items())
        return QPoly._trusted(self.m, _summed(pairs))

    __radd__ = __add__

    def __neg__(self):
        return QPoly._trusted(self.m, {e: -c for e, c in self.terms.items()})

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
            return QPoly._trusted(self.m, scaled)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        products = (
            (tuple(map(operator.add, e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items()
        )
        return QPoly._trusted(self.m, _summed(products))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        if k == 0:
            return QPoly.one(self.m)
        if len(self.terms) == 1:  # (c t^e)^k = c^k t^(k e), with no products
            [(e, c)] = self.terms.items()
            return QPoly._trusted(self.m, {tuple(k * v for v in e): c**k})
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDenominator("division by zero")
            return QPoly._trusted(self.m, {e: c / other for e, c in self.terms.items()})
        return NotImplemented

    # -- calculus ----------------------------------------------------------

    def partial(self, k: int) -> "QPoly":
        """Derivative with respect to the k-th variable, 0-indexed."""
        return self.deriv(tuple(1 if j == k else 0 for j in range(self.m)))

    def deriv(self, J: Sequence[int]) -> "QPoly":
        """Iterated derivative d^J, exact falling-factorial coefficients."""
        J = exponent(J, self.m, "multi-index")
        # e -> e - J is injective, so no two terms meet
        return QPoly._trusted(
            self.m,
            {
                tuple(map(operator.sub, e, J)): c * math.prod(map(math.perm, e, J))
                for e, c in self.terms.items()
                if all(map(operator.ge, e, J))
            },
        )

    # -- misc ---------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly.constant(self.m, other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.m == other.m and self.terms == other.terms

    __hash__ = None  # sparse dict payload; use support/coeff instead

    def __str__(self):
        if not self.terms:
            return "0"
        names = _var_names(self.m)
        bits: list[str] = []
        for exp in sorted(self.terms, reverse=True):
            c = self.terms[exp]
            mono = "*".join(
                name if e == 1 else f"{name}^{e}" for name, e in zip(names, exp) if e
            )
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
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
        if k < 0:
            return RationalFunction(self.den, self.num) ** (-k)
        return RationalFunction._trusted(self.num**k, self.den**k)

    def partial(self, k: int) -> "RationalFunction":
        num = self.num.partial(k) * self.den - self.num * self.den.partial(k)
        return RationalFunction._trusted(num, self.den * self.den)

    def deriv(self, J: Sequence[int]) -> "RationalFunction":
        out = self
        for k, j in enumerate(J):
            for _ in range(j):
                out = out.partial(k)
        return out

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
        if len(self.num.terms) > 1:
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


def trop_poly(f: QPoly) -> VertexPoly:
    """Vertex set of the support; trop of the zero polynomial is 0."""
    return VertexPoly(f.m, f.terms.keys())


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
    return VertexPoly(q.m, den.points + tuple(q.num.terms)) == den


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
    base = order.min(q.den.terms.keys())
    return q.num.coeff(base) / q.den.coeff(base)


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
        return (_ZERO,)
    vertices = sorted(trop_poly(q.den).points, reverse=True)
    return tuple(q.num.coeff(v) / q.den.coeff(v) for v in vertices)
