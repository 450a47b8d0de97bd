"""Exact rational feasibility test for convex domination.

The single question answered here: given integer points q_1..q_n and a target
p in N^m, does p lie in conv({q_j}) + R^m_{>=0}?  Equivalently, is the system

    lambda_j >= 0,  sum_j lambda_j = 1,  sum_j lambda_j q_j <= p  (componentwise)

feasible over the rationals?  Everything runs on Fraction, so the answer is
exact.  Instances are tiny (a handful of points in low dimension), which makes
a dense phase-1 simplex with Bland's rule the right tool: guaranteed to
terminate, no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Point = Sequence[int]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def covered(points: Sequence[Point], target: Point) -> bool:
    """True iff target lies in conv(points) + the nonnegative orthant."""
    n = len(points)
    m = len(target)
    # Columns: lambda_0..lambda_{n-1}, slack_0..slack_{m-1}, artificial.
    # Rows 0..m-1:  sum_j q_jk lambda_j + s_k = p_k   (rhs >= 0 since p in N^m)
    # Row m:        sum_j lambda_j + a = 1
    # Phase 1 minimizes the artificial variable; feasible iff it reaches 0.
    width = n + m + 1
    art = n + m
    rhs = width
    rows: list[list[Fraction]] = []
    for k in range(m):
        row = [_ZERO] * (width + 1)
        for j in range(n):
            row[j] = Fraction(points[j][k])
        row[n + k] = _ONE
        row[rhs] = Fraction(target[k])
        rows.append(row)
    conv_row = [_ONE] * n + [_ZERO] * m + [_ONE, _ONE]
    rows.append(conv_row)
    basis = list(range(n, n + m)) + [art]

    while True:
        try:
            arow = basis.index(art)
        except ValueError:
            return True
        if rows[arow][rhs] == 0:
            return True
        # The objective equals the artificial's row value; any nonbasic column
        # with a positive entry in that row can decrease it.  Bland: take the
        # lowest such index.
        enter = -1
        for j in range(width):
            if j not in basis and rows[arow][j] > 0:
                enter = j
                break
        if enter < 0:
            return False
        # Ratio test, ties broken by smallest basic variable (Bland again).
        leave = -1
        best: Fraction | None = None
        for i, row in enumerate(rows):
            coef = row[enter]
            if coef > 0:
                ratio = row[rhs] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        piv = rows[leave][enter]
        rows[leave] = [v / piv for v in rows[leave]]
        for i, row in enumerate(rows):
            if i != leave and row[enter] != 0:
                factor = row[enter]
                rows[i] = [v - factor * w for v, w in zip(row, rows[leave])]
        basis[leave] = enter
