#!/usr/bin/env python3
"""A tour of the vertex-set semiring.

A value here is a finite antichain in N^2: the corners of the staircase
region spanned by a set of exponents.  Addition is union, multiplication is
Minkowski sum, and after either operation the non-corners are discarded.
"""

from tropdiff import VertexFraction, VertexPoly, omega_chain

# Extraction: (1,1) survives below, (2,2) is inside the staircase and drops.
raw = [(3, 0), (2, 2), (1, 1), (0, 3)]
a = VertexPoly(2, raw)
print("corners of", raw, "->", a)

b = VertexPoly(2, [(1, 0), (0, 1)])
print("a + b =", a + b)
print("a * b =", a * b)
print("b^3   =", b**3)

# The order is "spans a smaller region": x <= y iff x + y == y.
one = VertexPoly.one(2)
print("\n{(1,0)} <= 1:", VertexPoly.point((1, 0)) <= one)
print("1 <= {(1,0)}:", one <= VertexPoly.point((1, 0)))

# Fractions of vertex sets compare by cross-multiplication, never reduced.
q = VertexFraction(b, a)
print("\nq =", q)
print("q * q =", q * q)
print("q in unit ball:", q.in_unit_ball())

# Strictly growing values that never leave the unit ball.  Ideals in the
# ball can therefore grow forever: no ascending chain condition here.
print()
for k, omega in enumerate(omega_chain(6), start=1):
    print(f"omega_{k} = {omega}")
chain = omega_chain(6)
print("strictly increasing:", all(
    x <= y and x != y for x, y in zip(chain, chain[1:])
))
