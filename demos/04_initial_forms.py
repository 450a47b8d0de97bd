#!/usr/bin/env python3
"""Translating a differential polynomial along a weight.

The weight prescribes the support of a hypothetical series solution.  Each
derivative variable is replaced by the polynomial carried by the shifted
weight, the whole expression is rescaled to land in the unit ball, and a
monomial order then reduces every coefficient to a constant.  What remains
is the initial form: the combinatorial shadow of the equation at that
weight.
"""

from tropdiff import (
    BooleanWeight,
    DiffMonomial,
    DiffPoly,
    MonomialOrder,
    SubstitutionKernel,
    initial_form,
    initial_generators,
    multi_indices,
    normalizer,
    order_standard,
    parse_poly,
    translate,
    tropw,
)

x = lambda J: DiffMonomial.var(1, J)
t = parse_poly("t", 2)

# P = x_(1,1) - t*x_(0,0): a solution y must have d^2y/dtdu = t*y.
P = DiffPoly(2, 1, {x((1, 1)): 1, x((0, 0)): -t})
w = BooleanWeight.cofinite(2, [(1, 1)])
print("P =", P)
print("w =", w)

value = tropw(P, [w])
print("\ntropical value of P along w:", value)
print("normalizer:", normalizer(value))
print("P_w =", translate(P, [w]))

# Derivatives of P translate almost always to themselves; the exceptions
# are the indices that still see the missing point of the weight.
print()
for J in multi_indices(2, 3):
    derived = P.deriv(J)
    moved = translate(derived, [w])
    marker = "  *" if moved != derived else ""
    print(f"J={J}: {moved}{marker}")

lex = order_standard("lex", 2)
ufirst = MonomialOrder([[1, 0], [0, 1]])
print("\ninitial form, t smallest:", initial_form(P, [w], lex))
print("initial form, u smallest:", initial_form(P, [w], ufirst))
print("initial form, factorial kernel:",
      initial_form(P, [w], lex, SubstitutionKernel.FACTORIAL))

forms = initial_generators([P], [w], lex, 2)
print(f"\ninitial forms of all derivatives up to degree 2 ({len(forms)}):")
for form in forms:
    print(" ", form)
