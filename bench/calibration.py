"""A fixed unit of pure-Python work that measures how fast the machine runs now.

On a shared 2-vCPU VM the same pass of problems took from 3.5 s to 6 s
depending on what else ran; a slow spell can outlast a whole run, and the
speed also changes within a second.  The benchmark runs one unit after each
problem and divides each problem's time by a local speed factor: the mean time
of the units run around it, over REFERENCE_UNIT_S.  A reported time is then
the time the work would take at the reference speed.  On that VM, over one
pass of initial-m2 repeated eight times, the coefficient of variation of a
problem's time was 19% when divided by the pass's mean speed and 11% when
divided by the local speed; that of the pass's median latency fell from 5%
to 3%.

The unit is the kind of work tropdiff does (exact Fraction elimination,
tuple and dict arithmetic) and uses nothing of tropdiff, so a change to the
program cannot change it.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# Mean seconds per unit at the reference speed: a 2-vCPU VM, Python 3.11.7.
REFERENCE_UNIT_S = 0.0018


def unit() -> int:
    """One unit of work; returns a checksum so nothing is optimised away."""
    n = 5
    rows = [
        [Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(n + 1)]
        for i in range(n)
    ]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        rows[c] = [v / pivot for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
    poly = {(i, j): Fraction(i - j, 1 + i) for i in range(4) for j in range(4) if i != j}
    square: dict[tuple[int, ...], Fraction] = {}
    for e1, c1 in poly.items():
        for e2, c2 in poly.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            square[e] = square.get(e, 0) + c1 * c2
    return len(square) + sum(row[n].numerator for row in rows)


def timed_unit() -> float:
    start = perf_counter()
    unit()
    return perf_counter() - start


def speed_factor(unit_seconds: float, units: int) -> float:
    """How much slower than the reference the machine ran: >1 is slower."""
    return unit_seconds / (units * REFERENCE_UNIT_S)


def local_factors(unit_seconds: list[float], radius: int = 3) -> list[float]:
    """Speed factor at each position, from the units within radius of it."""
    n = len(unit_seconds)
    out = []
    for k in range(n):
        window = unit_seconds[max(0, k - radius) : min(n, k + radius + 1)]
        out.append(speed_factor(sum(window), len(window)))
    return out
