"""Monomial orders on N^m presented by integer weight matrices.

A matrix M with rows w_1..w_r orders exponents by comparing the weight
vectors (w_1 . a, ..., w_r . a) lexicographically; any remaining tie falls
back to plain tuple comparison of the exponents themselves, so the order is
total even when the matrix is rank deficient.  An order is admissible when
0 < a for every nonzero a in N^m, which for this row-by-row reading is
exactly: in every column that is not identically zero, the first nonzero
entry is positive.

An order is its matrix and nothing else: MonomialOrder(rows) is the one
constructor, and an order's name (kind) is read from its rows.  It is the
standard name whose matrix equals rows, otherwise "matrix".

Naming fixes a convention once and for all: the standard orders put
t1 < t2 < ... < tm, so under "lex" every pure power of t1 sorts below
anything involving t2.  At m = 1 the three standard orders are the same
matrix ((1,),), whose name reads "lex".  The mirrored orders (t1 largest)
are MonomialOrder with the mirrored matrix.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import NotAMonomialOrder, exponent, integers, width

Exponent = tuple[int, ...]

LT, EQ, GT = -1, 0, 1


def _standard_rows(kind: str, m: int) -> tuple[Exponent, ...]:
    """The weight matrix of the named order with t1 < t2 < ... < tm."""
    unit = lambda k: tuple(1 if j == k else 0 for j in range(m))
    if kind == "lex":
        return tuple(unit(k) for k in reversed(range(m)))
    if kind == "grlex":
        return ((1,) * m,) + tuple(unit(k) for k in reversed(range(1, m)))
    if kind == "grevlex":
        return ((1,) * m,) + tuple(tuple(-v for v in unit(k)) for k in range(m - 1))
    raise NotAMonomialOrder(f"unknown order kind {kind!r}")


class MonomialOrder:
    """Total order on exponent vectors, smaller weight first."""

    __slots__ = ("m", "rows")

    def __init__(self, rows: Sequence[Sequence[int]]):
        rows = tuple(integers(row, "weight matrix entries") for row in rows)
        if not rows or not rows[0] or any(len(row) != len(rows[0]) for row in rows):
            raise NotAMonomialOrder("weight matrix must be rectangular and nonempty")
        m = len(rows[0])
        for k in range(m):
            column = [row[k] for row in rows]
            first = next((v for v in column if v != 0), None)
            if first is not None and first < 0:
                raise NotAMonomialOrder(
                    f"column {k + 1}: first nonzero weight is negative, "
                    f"so the basis exponent would sort below zero"
                )
        self.m = m
        self.rows = rows

    @property
    def kind(self) -> str:
        """The standard name ("lex", "grlex", "grevlex") whose matrix is rows, else "matrix"."""
        names = ("lex", "grlex", "grevlex")
        return next((k for k in names if _standard_rows(k, self.m) == self.rows), "matrix")

    def key(self, a: Exponent):
        """Sort key consistent with compare(); usable with min/sorted."""
        a = exponent(a, self.m)
        weights = tuple(sum(w * x for w, x in zip(row, a)) for row in self.rows)
        return weights + a

    def compare(self, a: Exponent, b: Exponent) -> int:
        ka, kb = self.key(a), self.key(b)
        if ka < kb:
            return LT
        if ka > kb:
            return GT
        return EQ

    def min(self, exponents: Iterable[Exponent]) -> Exponent:
        exponents = list(exponents)
        if not exponents:
            raise ValueError("minimum of an empty exponent set")
        return min(exponents, key=self.key)

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        kind = self.kind
        if kind != "matrix":
            return f"MonomialOrder({kind}, m={self.m})"
        return f"MonomialOrder({list(map(list, self.rows))})"


def order_standard(kind: str, m: int) -> MonomialOrder:
    """Named order with t1 < t2 < ... < tm.

    lex      pure powers of earlier variables sort first
    grlex    total degree, ties by lex
    grevlex  total degree, ties by larger earlier exponent first
    """
    try:
        width(m)
    except ValueError as exc:
        raise NotAMonomialOrder(str(exc)) from exc
    return MonomialOrder(_standard_rows(kind, m))
