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
A coefficient enters as an int or a Fraction, checked by _coefficient alone
(QPoly(m, terms), QPoly.constant, RationalFunction.constant and DiffPoly's
values); any other value, a float or text among them, is a ValueError, so
text becomes a number only through parsing.  fraction_text is where a
coefficient becomes text, for JSON and for str alike; it only formats, and an
int too long to write is refused where the CLI prints (cli._emit).
_signed_sum writes the text "a - b + c" of str, for QPoly and DiffPoly alike,
from each term's sign, coefficient text and monomial text.
deriv(J) is d^J in QPoly, RationalFunction and DiffPoly alike: _iterated checks
J once, then applies the one-direction derivative J_k times in each direction k.

What is kept on a value: no module but this one names a QPoly's ints or
denominator, and nothing rebinds them, so what is derived from them stays
true.  A QPoly keeps two such values in private slots: its hash, and its
square (f * f, which returns the kept object).  It hashes as it compares, so
equal polynomials can share one entry in a dict, such as jsonio.dumps's table
of written text, and each object works its hash out once.  A
RationalFunction's num and den are read-only, and it keeps two values in
private slots: the unit-ball verdict (in_unit_ball) and the partial
derivatives asked for so far (partial), which divide by den * den.  So a
coefficient that DiffPoly.derive carries unchanged is differentiated once per
direction, however many derivatives hold it, and a den that many
coefficients share is squared once.  Nothing is kept across values or calls.

Every sparse sum goes through _summed: QPoly's and DiffPoly's terms,
DiffMonomial's merge of repeated variables (diffpoly._merged, which sorts
the sum) and the terms decoder, jsonio.qpoly_from.  Values at equal keys are
added in order, and a key is dropped as soon as its running sum is zero.
Dropping at once matters because a RationalFunction is never reduced: a
later term c/e added onto a kept 0/d would come out as (d*c)/(d*e), not c/e.
Only DiffMonomial.bump, the memoized hot path of DiffPoly.derive, edits a
copy of its factors in place.
Likewise there is one product and one power of int polynomials, _product and
_power, used by QPoly's *, ** and product and by the parser.  _product does
only the term products a result needs: a one-term factor translates the
other, with no sum, and f * f on one dict takes each cross term once, doubled.
Every exponent sum of a product, in _product and QPoly.sum_of_products here
and in VertexPoly's products, is the one adder vertexpoly._adder(m), built
once per width and kept for the process; _product reads m from a key of its
operands.  A sparse product is bound by this monomial step, not by the
coefficient arithmetic (Monagan and Pearce, CASC 2007), and the adder's one
tuple display of m sums runs no iterator per sum.
A QPoly power takes no gcd: by Gauss's lemma the content of num^k is
content(num)^k, which shares no factor with den^k, so num^k over den^k is
already in lowest terms.  QPoly.product of several factors and
QPoly.sum_of_products of several pairs each take one gcd, not one per step:
product folds _product over the ints and multiplies the denominators;
sum_of_products sums every term pair of every pair in one _summed pass over
the lcm of the pairs' denominators.  A value has one lowest-terms form, so
each result is the one a chain of * and + gives.  RationalFunction's sum and
derivative are sums of products: a + b over distinct denominators is one
sum_of_products over den_a * den_b; over one denominator d it is
(num_a + num_b) * d over d * d, one product; and partial is the
sum_of_products num' * den - num * den' over den * den, the square kept on den.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction

from .errors import (
    DimensionMismatch,
    InconsistentOracle,
    InternalInconsistency,
    NotInUnitBall,
    ZeroDenominator,
    ZeroTropicalValue,
    direction,
    exponent,
    power,
    shown,
    width,
)
from .orders import EQ, GT, LT, MonomialOrder
from .vertexpoly import VertexFraction, VertexPoly, _adder

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


def _product(f: dict, g: dict) -> dict:
    """f * g for int polynomials (exponent -> nonzero int).

    A one-term factor translates the other: its exponents stay distinct and
    no int product is zero, so nothing is summed.  f * f on one dict takes
    each cross term once, doubled.  The width of the adder is read from a
    key, so an empty factor gives {} first.
    """
    if not f or not g:
        return {}
    add = _adder(len(next(iter(f))))
    if len(g) == 1:
        f, g = g, f
    if len(f) == 1:
        [(e1, c1)] = f.items()
        return {add(e1, e2): c1 * c2 for e2, c2 in g.items()}
    if f is g:
        items = list(f.items())
        doubled = [(e, 2 * c) for e, c in items]
        return _summed(
            (add(e1, e2), c1 * c2)
            for i, (e1, c1) in enumerate(items)
            for e2, c2 in ((e1, c1), *doubled[i + 1 :])
        )
    return _summed((add(e1, e2), c1 * c2) for e1, c1 in f.items() for e2, c2 in g.items())


# the most bits that c ** k may have, by the bound k * c.bit_length(), for |c| >= 2
MAX_POWER_BITS = 2**22


def _raised(c: int, k: int) -> int:
    """c ** k for k >= 0, refused with an OverflowError before it is built when
    |c| >= 2 and k * c.bit_length() is above MAX_POWER_BITS; 0, 1 and -1 take
    any power."""
    bits = c.bit_length()
    if bits > 1 and k * bits > MAX_POWER_BITS:
        raise OverflowError(
            f"cannot raise {shown(c)} to the power {shown(k)}: over {MAX_POWER_BITS} bits"
        )
    return c**k


def _power(f: dict, k: int, one: Exponent) -> dict:
    """f ** k, with 0 ** 0 = {one: 1}; f ** 1 is f itself, and a zero or one-term
    f is powered at once, so t^1000000 costs no loop; its coefficient goes
    through _raised, which refuses one too large to build.  Any other f is multiplied
    in k times, so a k above the largest index (sys.maxsize) is an OverflowError
    at once, not a loop that would never end."""
    if len(f) <= 1 < k:
        return {tuple(k * v for v in e): _raised(c, k) for e, c in f.items()}
    try:
        factors = itertools.repeat(f, k)
    except OverflowError:
        raise OverflowError(
            f"cannot expand a polynomial of {len(f)} terms to the power {shown(k)}"
        ) from None
    out = next(factors, {one: 1})
    for g in factors:
        out = _product(out, g)
    return out


def _iterated(value, J: Sequence[int], partial: Callable):
    """d^J value: partial(value, k) taken J_k times for each k, after one check of J."""
    for k, j in enumerate(exponent(J, value.m, "multi-index")):
        for _ in range(j):
            value = partial(value, k)
    return value


def _coefficient(c) -> Fraction:
    """c, an int (a bool among them) or a Fraction, as a Fraction.

    Any other value is a ValueError: a float would be read as its binary value,
    and text by Fraction's own grammar, which is no input format."""
    if not isinstance(c, (int, Fraction)):
        raise ValueError(f"coefficients must be exact, got the {type(c).__name__} {shown(c)}")
    return Fraction(c)


def fraction_text(c: int, d: int) -> str:
    """str(Fraction(c, d)) for d > 0, written without building the Fraction."""
    g = math.gcd(c, d)
    return str(c // g) if g == d else f"{c // g}/{d // g}"


def _signed_sum(terms: Iterable[tuple[bool, str, str]]) -> str:
    """The text "a - b + c" of a sum, from (negative, coefficient text, monomial text) triples.

    The coefficient "1" is left out before a monomial, an empty monomial text
    leaves the coefficient alone, and the empty sum is "0".
    """
    bits: list[str] = []
    for negative, coeff, mono in terms:
        body = coeff if not mono else mono if coeff == "1" else f"{coeff}*{mono}"
        if bits:
            bits.append(f"- {body}" if negative else f"+ {body}")
        else:
            bits.append(f"-{body}" if negative else body)
    return " ".join(bits) or "0"


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

    __slots__ = ("m", "_ints", "_den", "_hashed", "_squared")

    def __init__(self, m: int, terms: Mapping[Sequence[int], Fraction | int] | None = None):
        self.m = width(m)
        terms = terms or {}
        if all(type(c) is int for c in terms.values()):  # over 1, with no Fraction made
            self._ints = _summed((exponent(e, m), c) for e, c in terms.items())
            self._den = 1
            return
        fractions = _summed(
            (exponent(e, m), _coefficient(c)) for e, c in terms.items()
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
        ints, den = self._ints, self._den
        return [(e, fraction_text(ints[e], den)) for e in sorted(ints)]

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

    def coeff(self, e: Sequence[int]) -> Fraction:
        return Fraction(self._ints.get(exponent(e, self.m), 0), self._den)

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
        if other is self:
            square = getattr(self, "_squared", None)
            if square is None:
                # no gcd: content(num^2) = content(num)^2 (Gauss's lemma) shares no factor with den^2
                ints = _product(self._ints, self._ints)
                square = self._squared = QPoly._trusted(self.m, ints, self._den * self._den)
            return square
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QPoly._lowest(self.m, _product(self._ints, other._ints), self._den * other._den)

    __rmul__ = __mul__

    @classmethod
    def product(cls, m: int, factors: Iterable["QPoly"]) -> "QPoly":
        """The product of the factors (1 for none), with one gcd at the end.

        The int polynomials are folded by _product and the denominators
        multiplied; lowest terms are unique, so this is the chained product.
        """
        ints, den = None, 1
        for f in factors:
            if f.m != m:
                raise DimensionMismatch(f"mixing m={m} with m={f.m}")
            ints = f._ints if ints is None else _product(ints, f._ints)
            den *= f._den
        if ints is None:
            return cls.one(m)
        return cls._lowest(m, ints, den)

    @classmethod
    def sum_of_products(cls, m: int, pairs: Iterable[tuple["QPoly", "QPoly"]]) -> "QPoly":
        """The sum of a * b over the pairs (0 for none), with one gcd at the end.

        Every term pair of every pair goes through one _summed pass over the
        lcm of the pairs' denominators; lowest terms are unique, so this is
        the chained sum of products.
        """
        pairs = list(pairs)
        for a, b in pairs:
            if a.m != m or b.m != m:
                raise DimensionMismatch(f"mixing m={m} with m={a.m} and m={b.m}")
        den = math.lcm(*(a._den * b._den for a, b in pairs))
        scaled = []
        for a, b in pairs:
            s = den // (a._den * b._den)
            scaled.append((a._ints if s == 1 else {e: c * s for e, c in a._ints.items()}, b._ints))
        add = _adder(m)
        ints = _summed(
            (add(e1, e2), c1 * c2)
            for f, g in scaled
            for e1, c1 in f.items()
            for e2, c2 in g.items()
        )
        return cls._lowest(m, ints, den)

    def __pow__(self, k: int):
        power(k)
        if k < 0:
            raise ValueError("negative power of a polynomial")
        den = _raised(self._den, k)
        # no gcd: content(num^k) = content(num)^k (Gauss's lemma) shares no factor with den^k
        return QPoly._trusted(self.m, _power(self._ints, k, (0,) * self.m), den)

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
        direction(k, self.m)
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

    def __hash__(self):
        """Agrees with ==: one hash per value, worked out once per object."""
        hashed = getattr(self, "_hashed", None)
        if hashed is None:
            hashed = self._hashed = self._value_hash()
        return hashed

    def _value_hash(self) -> int:
        """One hash per value, whatever order the terms were built in.

        A constant equals its Fraction (and 0 the zero polynomial), so it hashes
        like one; any other value by its terms as a set, over its denominator.
        """
        ints = self._ints
        if not ints:
            return 0
        if len(ints) == 1:
            [(e, c)] = ints.items()
            if not any(e):
                return hash(Fraction(c, self._den))
        return hash((self._den, frozenset(ints.items())))

    def __str__(self):
        names, den = _var_names(self.m), self._den
        return _signed_sum(
            (
                c < 0,
                fraction_text(abs(c), den),
                "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(names, exp) if e),
            )
            for exp, c in sorted(self._ints.items(), reverse=True)
        )

    __repr__ = __str__


class RationalFunction:
    """Quotient of two QPoly with nonzero denominator, never reduced.

    num and den are read-only, so a value derived from them stays true for
    the object's life.  Two such values are kept on it, each in a private
    slot that is unset until first asked for:

        _ball      the verdict of in_unit_ball
        _partials  {k: partial(k)}, the derivatives asked for so far

    den * den, the den of each partial and of each sum over den (a + b with
    a.den == b.den), is kept on den itself, so every RationalFunction over
    one den object shares one square.
    """

    __slots__ = ("_num", "_den", "_ball", "_partials")

    def __init__(self, num: QPoly, den: QPoly | None = None):
        if den is None:
            den = QPoly.one(num.m)
        if num.m != den.m:
            raise DimensionMismatch(f"mixing m={num.m} with m={den.m}")
        if den.is_zero:
            raise ZeroDenominator("rational function with zero denominator")
        self._num = num
        self._den = den

    @classmethod
    def _trusted(cls, num: QPoly, den: QPoly) -> "RationalFunction":
        out = object.__new__(cls)
        out._num = num
        out._den = den
        return out

    @classmethod
    def constant(cls, m: int, c) -> "RationalFunction":
        return cls(QPoly.constant(m, c))

    num = property(operator.attrgetter("_num"))
    den = property(operator.attrgetter("_den"))

    @property
    def m(self) -> int:
        return self._num.m

    @property
    def is_zero(self) -> bool:
        return self._num.is_zero

    def __bool__(self):
        return not self._num.is_zero

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            if other._num.m != self._num.m:
                raise DimensionMismatch(f"mixing m={self._num.m} with m={other._num.m}")
            return other
        if isinstance(other, QPoly):
            return RationalFunction(other)
        if isinstance(other, (int, Fraction)):
            return RationalFunction.constant(self._num.m, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._den, other._den
        if a == b:  # one product, over the square kept on other's den
            return RationalFunction._trusted((self._num + other._num) * a, b * b)
        # by den's own class, as * and + dispatch on it
        num = type(a).sum_of_products(self._num.m, ((self._num, b), (other._num, a)))
        return RationalFunction._trusted(num, a * b)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._trusted(-self._num, self._den)

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
            return RationalFunction._trusted(self._num * other, self._den)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction._trusted(self._num * other._num, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other._num.is_zero:
            raise ZeroDenominator("division by zero")
        return RationalFunction._trusted(self._num * other._den, self._den * other._num)

    def __pow__(self, k: int):
        power(k)
        if k < 0:
            return RationalFunction(self._den, self._num) ** (-k)
        return RationalFunction._trusted(self._num**k, self._den**k)

    def partial(self, k: int) -> "RationalFunction":
        """(num' den - num den') / den^2 in direction k, worked out once per object.

        Every direction's result shares the den^2 kept on den.
        """
        num, den = self._num, self._den
        direction(k, num.m)  # before the memo, where True would find the entry of 1
        derived = getattr(self, "_partials", None)
        if derived is None:
            derived = self._partials = {}
        out = derived.get(k)
        if out is None:
            num = type(den).sum_of_products(num.m, ((num.partial(k), den), (num, -den.partial(k))))
            out = derived[k] = RationalFunction._trusted(num, den * den)
        return out

    def deriv(self, J: Sequence[int]) -> "RationalFunction":
        return _iterated(self, J, RationalFunction.partial)

    def as_qpoly(self) -> QPoly:
        """Convert when the denominator is a nonzero constant."""
        if not self._den.is_constant:
            raise ValueError("denominator is not constant")
        return self._num / self._den.constant_value()

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._num * other._den == other._num * self._den

    __hash__ = None  # equality is up to cross-multiplication

    def __str__(self):
        num = str(self._num)
        if self._den == QPoly.one(self._num.m):
            return num
        if len(self._num._ints) > 1:
            num = f"({num})"
        den = str(self._den)
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
    num, den = q._num, q._den
    return Fraction(num._ints.get(e, 0) * den._den, num._den * den._ints[e])


def trop_poly(f: QPoly) -> VertexPoly:
    """Vertex set of the support; trop of the zero polynomial is 0."""
    return VertexPoly(f.m, f._ints.keys())


def trop_frac(q) -> VertexFraction:
    q = _as_rf(q)
    return VertexFraction(trop_poly(q._num), trop_poly(q._den))


def in_unit_ball(q) -> bool:
    """Is trop(num) <= trop(den)?  That is, do the numerator's exponents add no vertex?

    trop(num) <= trop(den) means trop(num) + trop(den) == trop(den), and the
    vertex set of a union does not change when a part is replaced by its own
    vertex set.  So the numerator's support joins the denominator's vertices
    directly: two extractions instead of the three that trop_frac and the
    semiring sum take.  The verdict is kept on q, so residue after translate's
    check of the same coefficient extracts nothing.
    """
    q = _as_rf(q)
    verdict = getattr(q, "_ball", None)
    if verdict is None:
        num, den = q._num, trop_poly(q._den)
        verdict = q._ball = VertexPoly(num.m, den.points + tuple(num._ints)) == den
    return verdict


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
    left, right = phi._num * psi._den, psi._num * phi._den
    target = trop_poly(left) + trop_poly(right)
    for mult in range(1, len(target.points) + 2):
        if trop_poly(left + right * mult) == target:
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
    return _quotient_at(q, order.min(q._den._ints.keys()))


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
    return tuple(_quotient_at(q, v) for v in reversed(value.den.points))
