"""Differential polynomials in unknown series y_1..y_n over Q(t1..tm).

A formal variable x_{i,J} stands for the derivative d^J y_i.  DiffMonomial is
a commutative word in these variables, DiffPoly a finite sum of monomials
with RationalFunction coefficients.  derive() is the total derivative: it
differentiates coefficients and bumps each x_{i,J} to x_{i,J+e_k} by the
Leibniz rule, so prolong() generates all d^J P up to a degree bound.  Where
the Leibniz rule multiplies a coefficient by a factor's power 1, derive()
carries the coefficient object itself, so the derivatives of a prolongation
share coefficients, and each shared coefficient keeps its own partial
derivatives (RationalFunction.partial) for the next derive().

A DiffMonomial hashes its factors once, when it is made, and keeps the hash:
derive() sums its pieces in a dict, so a monomial is hashed many times.  It
also keeps each bump(position, k) it has answered, in a dict made on first
use, so a repeat returns the same object.  Within a prolongation many
derivatives hold the same monomials, and each derivative bumps them again.
The factors are an immutable tuple in a private slot, shown by the read-only
property factors, so nothing rebinds them after construction and neither
kept value goes stale.

checked_variable is the one check of a variable x_{i,J}: i an int from 1, at
most n when n is given, and J a point of N^m.  DiffMonomial(factors) checks
each factor's power and variable once, at any n and m, then merges repeated
variables and sorts; check_monomial, which DiffPoly's constructor and coeff
make, checks a monomial's variables against a DiffPoly's n and m; and
jsonio.diffpoly_from checks each factor it reads against the problem's n and
m, then has DiffMonomial._checked merge and sort the factors, with no second
check.  The merge is _merged, series._summed plus a sort, for the
constructor, _checked and a product of monomials alike; only bump, derive's
memoized hot path, edits a copy of the factors in place.  str of a DiffPoly
is series._signed_sum of its terms, the signed-sum text of QPoly too.

evaluate() substitutes polynomials of width m for the unknowns, turning x_{i,J}
into the J-th derivative of the i-th argument.  It is the semantic anchor
for everything the translation layer does combinatorially.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

from .errors import DimensionMismatch, direction, exponent, integers, same_width, shown, width
from .series import QPoly, RationalFunction, _iterated, _signed_sum, _summed, fraction_text

Var = tuple[int, tuple[int, ...]]  # (unknown index from 1, derivative multi-index)
Factor = tuple[Var, int]


class DiffMonomial:
    """Sorted product of powers of the derivative variables x_{i,J}."""

    # the factors, their kept hash, and the bumps answered so far by (position, k)
    __slots__ = ("_factors", "_hash", "_bumps")

    def __init__(self, factors: Iterable[Factor] = ()):
        checked = []
        for (i, J), p in factors:
            (p,) = exponent((p,), what="powers")
            checked.append((checked_variable(i, J), p))
        self._factors = factors = _merged(checked)
        self._hash = hash(factors)
        self._bumps = None

    @classmethod
    def _trusted(cls, factors: tuple[Factor, ...]) -> "DiffMonomial":
        """Wrap sorted, merged factors built from a checked monomial's own."""
        out = object.__new__(cls)
        out._factors = factors
        out._hash = hash(factors)
        out._bumps = None
        return out

    @classmethod
    def _checked(cls, factors: Iterable[Factor]) -> "DiffMonomial":
        """The monomial of factors whose variables checked_variable gave, each
        power a nonnegative int."""
        return cls._trusted(_merged(factors))

    @classmethod
    def one(cls) -> "DiffMonomial":
        return cls()

    @classmethod
    def var(cls, i: int, J: Sequence[int], power: int = 1) -> "DiffMonomial":
        return cls((((i, J), power),))

    @property
    def factors(self) -> tuple[Factor, ...]:
        """The (variable, power) pairs, sorted by variable, each power positive."""
        return self._factors

    @property
    def is_one(self) -> bool:
        return not self._factors

    @property
    def total_degree(self) -> int:
        return sum(p for _, p in self._factors)

    def __mul__(self, other: "DiffMonomial") -> "DiffMonomial":
        return DiffMonomial._checked(self._factors + other._factors)

    def bump(self, position: int, k: int) -> "DiffMonomial":
        """Replace one copy of the factor at `position` by its k-th derivative.

        The answer is kept on the monomial, so a repeat returns the same object.
        """
        bumps = self._bumps
        if bumps is None:
            bumps = self._bumps = {}
        out = bumps.get((position, k))
        if out is None:
            var, p = self._factors[position]
            i, J = var
            lifted = (i, tuple(v + 1 if j == k else v for j, v in enumerate(J)))
            merged = dict(self._factors)
            if p == 1:
                del merged[var]
            else:
                merged[var] = p - 1
            merged[lifted] = merged.get(lifted, 0) + 1
            out = bumps[position, k] = DiffMonomial._trusted(tuple(sorted(merged.items())))
        return out

    def __eq__(self, other):
        return isinstance(other, DiffMonomial) and self._factors == other._factors

    def __hash__(self):
        return self._hash

    def render(self, indexed: bool) -> str:
        """Text form; indexed picks x1, x2, ... over the bare name x."""
        if not self._factors:
            return "1"
        bits = []
        for (i, J), p in self._factors:
            name = f"x{i}" if indexed else "x"
            body = f"{name}_(" + ",".join(map(str, J)) + ")"
            bits.append(body if p == 1 else f"{body}^{p}")
        return "*".join(bits)

    def __str__(self):
        return self.render(indexed=any(i != 1 for (i, _), _ in self._factors))

    __repr__ = __str__


def _merged(factors: Iterable[Factor]) -> tuple[Factor, ...]:
    """Checked factors sorted by variable, a repeated variable's powers added and a
    zero power dropped."""
    return tuple(sorted(_summed(factors).items()))


def checked_variable(i, J, m: int | None = None, n: int | None = None) -> Var:
    """The variable x_{i,J}: i an int from 1, at most n when n is given, then J a
    point of N^m (of any width when m is None)."""
    if type(i) is not int:
        (i,) = integers((i,), "variable indices")
    if i < 1:
        raise ValueError(f"variable indices start at 1, got {shown(i)}")
    if n is not None and i > n:
        raise DimensionMismatch(f"unknown index {shown(i)} out of range for n={n}")
    return i, exponent(J, m, "multi-index")


def check_monomial(mono, m: int, n: int) -> None:
    """Refuse anything but a DiffMonomial in x_{1..n, J} with J of width m."""
    if not isinstance(mono, DiffMonomial):
        raise TypeError(f"expected a DiffMonomial, got {shown(mono)}")
    for (i, J), _ in mono._factors:
        checked_variable(i, J, m, n)


def _rf_constant(c: RationalFunction) -> Fraction | None:
    if c.num.is_constant and c.den.is_constant:
        return c.num.constant_value() / c.den.constant_value()
    return None


class DiffPoly:
    """Finite sum of differential monomials with coefficients in Q(t1..tm)."""

    __slots__ = ("m", "n", "terms")

    def __init__(
        self,
        m: int,
        n: int,
        terms: Mapping[DiffMonomial, RationalFunction | QPoly | Fraction | int] | None = None,
    ):
        self.m = width(m)
        self.n = width(n, "n")
        terms = terms or {}
        for mono in terms:
            check_monomial(mono, self.m, self.n)
        self.terms = _summed((mono, self._coerce_coeff(c)) for mono, c in terms.items())

    @classmethod
    def _trusted(cls, m: int, n: int, terms: dict[DiffMonomial, RationalFunction]) -> "DiffPoly":
        out = object.__new__(cls)
        out.m = m
        out.n = n
        out.terms = terms
        return out

    def _coerce_coeff(self, c) -> RationalFunction:
        if isinstance(c, QPoly):
            c = RationalFunction(c)
        if isinstance(c, RationalFunction):
            return same_width(self.m, c)
        return RationalFunction.constant(self.m, c)

    @classmethod
    def zero(cls, m: int, n: int) -> "DiffPoly":
        return cls(m, n)

    @classmethod
    def variable(cls, m: int, n: int, i: int, J: Sequence[int]) -> "DiffPoly":
        return cls(m, n, {DiffMonomial.var(i, J): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, mono: DiffMonomial) -> RationalFunction:
        check_monomial(mono, self.m, self.n)
        return self.terms.get(mono, RationalFunction(QPoly.zero(self.m)))

    def monomials(self) -> set[DiffMonomial]:
        return set(self.terms)

    def _lifted(self, other) -> "DiffPoly | None":
        """other as a DiffPoly of this m and n, a coefficient as a constant term; else None."""
        if isinstance(other, DiffPoly):
            same_width(self.m, other)
            if other.n != self.n:
                raise DimensionMismatch(f"mixing n={self.n} with n={other.n}")
            return other
        if isinstance(other, (RationalFunction, QPoly, Fraction, int)):
            return DiffPoly(self.m, self.n, {DiffMonomial.one(): other})
        return None

    def __add__(self, other):
        other = self._lifted(other)
        if other is None:
            return NotImplemented
        pairs = itertools.chain(self.terms.items(), other.terms.items())
        return DiffPoly._trusted(self.m, self.n, _summed(pairs))

    __radd__ = __add__

    def __neg__(self):
        return DiffPoly._trusted(self.m, self.n, {mono: -c for mono, c in self.terms.items()})

    def __sub__(self, other):
        other = self._lifted(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._lifted(other)
        if other is None:
            return NotImplemented
        products = (
            (m1 * m2, c1 * c2) for m1, c1 in self.terms.items() for m2, c2 in other.terms.items()
        )
        return DiffPoly._trusted(self.m, self.n, _summed(products))

    __rmul__ = __mul__

    def derive(self, k: int) -> "DiffPoly":
        """Total derivative in the k-th direction, 0-indexed."""
        direction(k, self.m)
        pieces: list[tuple[DiffMonomial, RationalFunction]] = []
        for mono, c in self.terms.items():
            dc = c.partial(k)
            if dc:  # a zero 0/d added onto a kept term would widen its denominator
                pieces.append((mono, dc))
            # c * 1 is c itself, so its derivatives, kept on c, are worked out once
            pieces.extend(
                (mono.bump(pos, k), c if p == 1 else c * p)
                for pos, (_, p) in enumerate(mono._factors)
            )
        return DiffPoly._trusted(self.m, self.n, _summed(pieces))

    def deriv(self, J: Sequence[int]) -> "DiffPoly":
        return _iterated(self, J, DiffPoly.derive)

    def evaluate(self, args: Sequence[QPoly]) -> RationalFunction:
        """Substitute polynomials for the unknowns: x_{i,J} becomes d^J args[i-1]."""
        if len(args) != self.n:
            raise DimensionMismatch(f"expected {self.n} arguments, got {len(args)}")
        for arg in args:
            same_width(self.m, arg)
        total = RationalFunction(QPoly.zero(self.m))
        for mono, c in self.terms.items():
            val = QPoly.one(self.m)
            for (i, J), p in mono._factors:
                val = val * (args[i - 1].deriv(J) ** p)
            total = total + c * val
        return total

    def __eq__(self, other):
        if not isinstance(other, DiffPoly):
            return NotImplemented
        if (self.m, self.n) != (other.m, other.n):
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(c == other.terms[mono] for mono, c in self.terms.items())

    __hash__ = None  # coefficients compare by cross-multiplication

    def display_order(self) -> list[DiffMonomial]:
        """The monomials as str and JSON list them: by total degree, then factors, largest first."""
        return sorted(self.terms, key=lambda E: (E.total_degree, E._factors), reverse=True)

    def __str__(self):
        triples = []
        for mono in self.display_order():
            c = self.terms[mono]
            ms = "" if mono.is_one else mono.render(indexed=self.n > 1)
            const = _rf_constant(c)
            if const is None:
                triples.append((False, f"({c})", ms))
            else:
                mag = abs(const)
                triples.append((const < 0, fraction_text(mag.numerator, mag.denominator), ms))
        return _signed_sum(triples)

    __repr__ = __str__


def multi_indices(m: int, bound: int) -> list[tuple[int, ...]]:
    """All J with |J| <= bound, graded, larger leading entries first.

    A J of degree d is the multiset of its d directions; the sorted multisets
    come in lex order, which is the decreasing lex order of the J, so each
    level is built in order, in time linear in its size.
    """
    width(m)
    if type(bound) is not int or bound < 0:
        raise ValueError(f"bound must be a nonnegative int, got {shown(bound)}")
    out: list[tuple[int, ...]] = []
    for d in range(bound + 1):
        for directions in itertools.combinations_with_replacement(range(m), d):
            J = [0] * m
            for k in directions:
                J[k] += 1
            out.append(tuple(J))
    return out


def prolong(P: DiffPoly, bound: int) -> list[DiffPoly]:
    """All derivatives d^J P with |J| <= bound, in multi_indices order."""
    memo: dict[tuple[int, ...], DiffPoly] = {(0,) * P.m: P}
    out: list[DiffPoly] = []
    for J in multi_indices(P.m, bound):
        if J not in memo:
            k = next(i for i, v in enumerate(J) if v > 0)
            prev = tuple(v - (1 if i == k else 0) for i, v in enumerate(J))
            memo[J] = memo[prev].derive(k)
        out.append(memo[J])
    return out
