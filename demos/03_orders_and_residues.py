#!/usr/bin/env python3
"""Monomial orders, residues, and how membership data recovers an order.

Every monomial order on N^m picks a maximal ideal of the unit ball: the
elements whose numerator misses the order-minimal vertex of the denominator
support.  The quotient map is the residue: read off the coefficient at that
vertex.  Conversely, membership answers alone pin the order down.
"""

from tropdiff import (
    EQ,
    GT,
    LT,
    MonomialOrder,
    max_ideal_member,
    order_from_membership,
    order_standard,
    parse_rational,
    residue,
)

NAME = {LT: "<", EQ: "=", GT: ">"}

lex = order_standard("lex", 2)      # t before u
grevlex = order_standard("grevlex", 2)
ufirst = MonomialOrder([[1, 0], [0, 1]])  # u before t

pairs = [((1, 0), (0, 1)), ((2, 0), (1, 1)), ((0, 3), (2, 0))]
for order, label in ((lex, "lex"), (grevlex, "grevlex"), (ufirst, "u-first")):
    shown = ", ".join(
        f"{I} {NAME[order.compare(I, J)]} {J}" for I, J in pairs
    )
    print(f"{label:8s} {shown}")

# The same element can have different residues depending on which branch
# the order walks down first.
q = parse_rational("(t+2*u)/(t+u)")
print(f"\nq = {q}")
print("residue, t smallest:", residue(q, lex))
print("residue, u smallest:", residue(q, ufirst))

# Residue zero is exactly membership in the maximal ideal.
print("\nt/(t+u) in m_lex:", max_ideal_member(parse_rational("t/(t+u)"), lex))
print("t/(t+u) in m_ufirst:", max_ideal_member(parse_rational("t/(t+u)"), ufirst))

# Recover comparisons from membership alone and check them against the
# direct matrix comparison.
oracle = lambda f: max_ideal_member(f, grevlex)
for I, J in [((1, 0), (0, 1)), ((1, 1), (0, 2)), ((2, 3), (2, 3))]:
    rel = order_from_membership(oracle, I, J)
    print(f"membership says {I} {NAME[rel]} {J};",
          "direct comparison agrees:", rel == grevlex.compare(I, J))
