"""Monomial orders on N^m presented by integer weight matrices.

A matrix M with rows w_1..w_r orders exponents by comparing the weight
vectors (w_1 . a, ..., w_r . a) lexicographically; any remaining tie falls
back to plain tuple comparison of the exponents themselves, so the order is
total even when the matrix is rank deficient.  An order is admissible when
0 < a for every nonzero a in N^m, which for this row-by-row reading is
exactly: in every column that is not identically zero, the first nonzero
entry is positive.

Naming fixes a convention once and for all: the standard orders put
t1 < t2 < ... < tm, so under "lex" every pure power of t1 sorts below
anything involving t2.  The mirrored orders (t1 largest) are still available
through order_validate with the mirrored matrix.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import NotAMonomialOrder, exponent, integers, width

Exponent = tuple[int, ...]

LT, EQ, GT = -1, 0, 1

_STANDARD_KINDS = ("lex", "grlex", "grevlex")


def _rational_rank(rows: Sequence[Sequence[int]]) -> int:
    mat = [[Fraction(v) for v in row] for row in rows]
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [v - f * w for v, w in zip(mat[i], mat[rank])]
        rank += 1
    return rank


class MonomialOrder:
    """Total order on exponent vectors, smaller weight first.

    rank_deficient is informational: the order is still total (ties resolve
    by tuple comparison) but the matrix alone does not separate all points.
    """

    __slots__ = ("m", "rows", "kind", "rank_deficient")

    def __init__(self, rows: Sequence[Sequence[int]], kind: str = "matrix"):
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
        self.kind = kind
        self.rank_deficient = _rational_rank(rows) < m

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
        if self.kind in _STANDARD_KINDS:
            return f"MonomialOrder({self.kind}, m={self.m})"
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
    unit = lambda k: tuple(1 if j == k else 0 for j in range(m))
    if kind == "lex":
        rows = [unit(k) for k in reversed(range(m))]
    elif kind == "grlex":
        rows = [(1,) * m] + [unit(k) for k in reversed(range(1, m))]
    elif kind == "grevlex":
        rows = [(1,) * m] + [tuple(-v for v in unit(k)) for k in range(m - 1)]
    else:
        raise NotAMonomialOrder(f"unknown order kind {kind!r}")
    return MonomialOrder(rows, kind=kind)


def order_validate(rows: Sequence[Sequence[int]]) -> MonomialOrder:
    """Wrap a raw weight matrix, rejecting inadmissible ones."""
    return MonomialOrder(rows, kind="matrix")
