"""Exact feasibility test for convex domination, in integer arithmetic.

The single question answered here: given integer points q_1..q_n and a target
p in N^m, does p lie in conv({q_j}) + R^m_{>=0}?  Equivalently, is the system

    lambda_j >= 0,  sum_j lambda_j = 1,  sum_j lambda_j q_j <= p  (componentwise)

feasible over the rationals?  Instances are tiny (a handful of points in low
dimension), which makes a dense phase-1 simplex with Bland's rule the right
tool: guaranteed to terminate, no floating point anywhere.

The tableau is fraction-free (Bareiss, Math. Comp. 22, 1968): it holds ints
and one common denominator det, the previous pivot, so each rational entry is
entry / det.  A pivot leaves its row as it is, maps every other row v to
(v * piv - f * w) // det with f = v[enter] and w the pivot row, and sets
det = piv.  The division is exact: by Sylvester's identity every entry is a
minor of the initial tableau, whose basis is the identity (det starts at 1).
Every pivot is positive, so det > 0 and each int has the sign of the rational
it stands for.  The ratio test compares rhs_i / coef_i by cross-multiplying,
and entering and leaving choices are Bland's, exactly as on the rationals, so
the pivots, the termination guarantee and every answer are those of the
rational tableau.

When target is not covered, the final tableau proves it (Farkas).  Phase 1
stops with the artificial basic, a positive right-hand side in its row, and
no positive entry there.  The slack columns start as the identity, so their
entries in that row are the artificial's row of det * B^-1; let y_k be minus
the entry of slack k, so y >= 0.  The entry of the column of a point q is
then det - y.q <= 0, and the right-hand side is det - y.target > 0: so
y.target < det <= y.q for every point q.  y separates target strictly from
conv(points) + R^m_{>=0}, and y != 0.  These are ints, and they carry the
signs of the rational certificate because det > 0.  covered hands y back
through its optional separator list.  vertexpoly._vertices uses it for the
second step of Clarkson's output-sensitive scheme, after the quick accepts:
its LPs run over certified vertices only, and y names the next vertex.
"""

from __future__ import annotations

from collections.abc import Sequence

Point = Sequence[int]


def covered(points: Sequence[Point], target: Point, separator: list[int] | None = None) -> bool:
    """True iff target lies in conv(points) + the nonnegative orthant.

    When it does not and separator is a list, separator is set to the Farkas
    certificate y >= 0: y.target < y.q for every q in points.
    """
    n = len(points)
    m = len(target)
    # Columns: lambda_0..lambda_{n-1}, slack_0..slack_{m-1}, artificial.
    # Rows 0..m-1:  sum_j q_jk lambda_j + s_k = p_k   (rhs >= 0 since p in N^m)
    # Row m:        sum_j lambda_j + a = 1
    # Phase 1 minimizes the artificial variable; feasible iff it reaches 0.
    width = n + m + 1
    art = n + m
    rhs = width
    rows = [
        [q[k] for q in points] + [int(k == i) for i in range(m)] + [0, target[k]]
        for k in range(m)
    ]
    rows.append([1] * n + [0] * m + [1, 1])
    basis = list(range(n, n + m)) + [art]
    det = 1

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
        enter = next((j for j in range(width) if j not in basis and rows[arow][j] > 0), -1)
        if enter < 0:
            if separator is not None:
                separator[:] = [-v for v in rows[arow][n:art]]
            return False
        # Ratio test rhs_i / coef_i on cross products (both coefs positive),
        # ties broken by smallest basic variable (Bland again).
        leave, prow = -1, None
        for i, row in enumerate(rows):
            coef = row[enter]
            if coef > 0 and (
                prow is None
                or (row[rhs] * prow[enter], basis[i]) < (prow[rhs] * coef, basis[leave])
            ):
                leave, prow = i, row
        piv = prow[enter]
        for i, row in enumerate(rows):
            if i != leave:
                f = row[enter]
                rows[i] = [(v * piv - f * w) // det for v, w in zip(row, prow)]
        det = piv
        basis[leave] = enter
