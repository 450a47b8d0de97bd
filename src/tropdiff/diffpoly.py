"""Differential polynomials in unknown series y_1..y_n over Q(t1..tm).

A formal variable x_{i,J} stands for the derivative d^J y_i.  DiffMonomial is
a commutative word in these variables, DiffPoly a finite sum of monomials
with RationalFunction coefficients.  derive() is the total derivative: it
differentiates coefficients and bumps each x_{i,J} to x_{i,J+e_k} by the
Leibniz rule, so prolong() generates all d^J P up to a degree bound.

evaluate() substitutes honest polynomials for the unknowns, turning x_{i,J}
into the J-th derivative of the i-th argument.  It is the semantic anchor
for everything the translation layer does combinatorially.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatch, exponent, integers, width
from .series import QPoly, RationalFunction, _iterated, _summed

# what a DiffPoly adds and subtracts as a constant term
_SCALARS = (RationalFunction, QPoly, Fraction, int)

Var = tuple[int, tuple[int, ...]]  # (unknown index from 1, derivative multi-index)
Factor = tuple[Var, int]


class DiffMonomial:
    """Sorted product of powers of the derivative variables x_{i,J}."""

    __slots__ = ("factors",)

    def __init__(self, factors: Iterable[Factor] = ()):
        merged: dict[Var, int] = {}
        for (i, J), p in factors:
            (p,) = exponent((p,), what="powers")
            if p == 0:
                continue
            (i,) = integers((i,), "variable indices")
            if i < 1:
                raise ValueError(f"variable indices start at 1, got {i}")
            var = (i, exponent(J, what="multi-index"))
            merged[var] = merged.get(var, 0) + p
        self.factors = tuple(sorted(merged.items()))

    @classmethod
    def _trusted(cls, factors: tuple[Factor, ...]) -> "DiffMonomial":
        """Wrap sorted, merged factors built from a checked monomial's own."""
        out = object.__new__(cls)
        out.factors = factors
        return out

    @classmethod
    def one(cls) -> "DiffMonomial":
        return cls()

    @classmethod
    def var(cls, i: int, J: Sequence[int], power: int = 1) -> "DiffMonomial":
        return cls((((i, J), power),))

    @property
    def is_one(self) -> bool:
        return not self.factors

    @property
    def total_degree(self) -> int:
        return sum(p for _, p in self.factors)

    def __mul__(self, other: "DiffMonomial") -> "DiffMonomial":
        merged = dict(self.factors)
        for var, p in other.factors:
            merged[var] = merged.get(var, 0) + p
        return DiffMonomial._trusted(tuple(sorted(merged.items())))

    def bump(self, position: int, k: int) -> "DiffMonomial":
        """Replace one copy of the factor at `position` by its k-th derivative."""
        var, p = self.factors[position]
        i, J = var
        lifted = (i, tuple(v + 1 if j == k else v for j, v in enumerate(J)))
        merged = dict(self.factors)
        if p == 1:
            del merged[var]
        else:
            merged[var] = p - 1
        merged[lifted] = merged.get(lifted, 0) + 1
        return DiffMonomial._trusted(tuple(sorted(merged.items())))

    def __eq__(self, other):
        return isinstance(other, DiffMonomial) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def render(self, indexed: bool) -> str:
        """Text form; indexed picks x1, x2, ... over the bare name x."""
        if not self.factors:
            return "1"
        bits = []
        for (i, J), p in self.factors:
            name = f"x{i}" if indexed else "x"
            body = f"{name}_(" + ",".join(map(str, J)) + ")"
            bits.append(body if p == 1 else f"{body}^{p}")
        return "*".join(bits)

    def __str__(self):
        return self.render(indexed=any(i != 1 for (i, _), _ in self.factors))

    __repr__ = __str__


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
            for (i, J), _ in mono.factors:
                if not 1 <= i <= n:
                    raise DimensionMismatch(f"unknown index {i} out of range for n={n}")
                exponent(J, m, "multi-index")
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
            if c.m != self.m:
                raise DimensionMismatch(f"coefficient has m={c.m}, expected {self.m}")
            return c
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
        return self.terms.get(mono, RationalFunction(QPoly.zero(self.m)))

    def monomials(self) -> set[DiffMonomial]:
        return set(self.terms)

    def _check(self, other: "DiffPoly"):
        if (self.m, self.n) != (other.m, other.n):
            raise DimensionMismatch(
                f"mixing (m,n)=({self.m},{self.n}) with ({other.m},{other.n})"
            )

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = DiffPoly(self.m, self.n, {DiffMonomial.one(): other})
        if not isinstance(other, DiffPoly):
            return NotImplemented
        self._check(other)
        pairs = itertools.chain(self.terms.items(), other.terms.items())
        return DiffPoly._trusted(self.m, self.n, _summed(pairs))

    __radd__ = __add__

    def __neg__(self):
        return DiffPoly._trusted(self.m, self.n, {mono: -c for mono, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (DiffPoly, *_SCALARS)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (RationalFunction, QPoly)):
            other = self._coerce_coeff(other)
        if isinstance(other, (RationalFunction, Fraction, int)):
            scaled = ((mono, v * other) for mono, v in self.terms.items())
            return DiffPoly._trusted(self.m, self.n, _summed(scaled))
        if not isinstance(other, DiffPoly):
            return NotImplemented
        self._check(other)
        products = (
            (m1 * m2, c1 * c2) for m1, c1 in self.terms.items() for m2, c2 in other.terms.items()
        )
        return DiffPoly._trusted(self.m, self.n, _summed(products))

    __rmul__ = __mul__

    def derive(self, k: int) -> "DiffPoly":
        """Total derivative in the k-th direction, 0-indexed."""
        if type(k) is not int:
            raise ValueError(f"direction must be an int, got {k!r}")
        if not 0 <= k < self.m:
            raise DimensionMismatch(f"direction {k} out of range for m={self.m}")
        pieces: list[tuple[DiffMonomial, RationalFunction]] = []
        for mono, c in self.terms.items():
            dc = c.partial(k)
            if dc:  # a zero 0/d added onto a kept term would widen its denominator
                pieces.append((mono, dc))
            pieces.extend((mono.bump(pos, k), c * p) for pos, (_, p) in enumerate(mono.factors))
        return DiffPoly._trusted(self.m, self.n, _summed(pieces))

    def deriv(self, J: Sequence[int]) -> "DiffPoly":
        return _iterated(self, J, DiffPoly.derive)

    def evaluate(self, args: Sequence[QPoly]) -> RationalFunction:
        """Substitute polynomials for the unknowns: x_{i,J} becomes d^J args[i-1]."""
        if len(args) != self.n:
            raise DimensionMismatch(f"expected {self.n} arguments, got {len(args)}")
        total = RationalFunction(QPoly.zero(self.m))
        for mono, c in self.terms.items():
            val = QPoly.one(self.m)
            for (i, J), p in mono.factors:
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

    def __str__(self):
        if not self.terms:
            return "0"
        ordered = sorted(self.terms, key=lambda E: (E.total_degree, E.factors), reverse=True)
        bits: list[str] = []
        for mono in ordered:
            c = self.terms[mono]
            const = _rf_constant(c)
            ms = mono.render(indexed=self.n > 1)
            if const is not None:
                mag = abs(const)
                if mono.is_one:
                    body = str(mag)
                elif mag == 1:
                    body = ms
                else:
                    body = f"{mag}*{ms}"
                negative = const < 0
            else:
                body = f"({c})" if mono.is_one else f"({c})*{ms}"
                negative = False
            if not bits:
                bits.append(f"-{body}" if negative else body)
            else:
                bits.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(bits)

    __repr__ = __str__


def multi_indices(m: int, bound: int) -> list[tuple[int, ...]]:
    """All J with |J| <= bound, graded, larger leading entries first."""
    width(m)
    if type(bound) is not int or bound < 0:
        raise ValueError(f"bound must be a nonnegative int, got {bound!r}")
    out: list[tuple[int, ...]] = []
    for d in range(bound + 1):
        level = [J for J in itertools.product(range(d + 1), repeat=m) if sum(J) == d]
        out.extend(sorted(level, reverse=True))
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
