"""Translation of differential polynomials along a tuple of weights.

tropw extends the tropical valuation to differential polynomials: each
monomial contributes the value of its coefficient times the vertex sets of
the shifted weights of its factors, and the results add tropically.  A zero
value means every monomial's contribution vanished.

translate rewrites P into P_w: each factor x_{i,J} contributes the
substitution polynomial of the shifted weight, and the whole thing is scaled
by the reciprocal of tropw(P) read as an honest rational function (coefficient
1 on every vertex).  The point of the scaling is that every coefficient of
the result lands in the unit ball, so initial_form can take residues.

The generator variants prolong first and translate each derivative.  A
degree bound makes the set finite; it is a truncation of the full object,
which ranges over all derivative multi-indices.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from .diffpoly import DiffPoly, prolong
from .errors import DimensionMismatch, InternalInconsistency, ZeroTropicalValue
from .orders import MonomialOrder
from .series import QPoly, RationalFunction, in_unit_ball, residue, trop_frac
from .vertexpoly import VertexFraction, VertexPoly
from .weights import BooleanWeight, SubstitutionKernel, substitution_poly


def _check_weights(P: DiffPoly, weights: Sequence[BooleanWeight]):
    if len(weights) != P.n:
        raise DimensionMismatch(f"expected {P.n} weights, got {len(weights)}")
    for w in weights:
        if w.m != P.m:
            raise DimensionMismatch(f"weight over m={w.m}, polynomial over m={P.m}")


def _ones_poly(vp: VertexPoly) -> QPoly:
    return QPoly._trusted(vp.m, dict.fromkeys(vp.points, 1))


def tropw(P: DiffPoly, weights: Sequence[BooleanWeight]) -> VertexFraction:
    """Tropical value of P along the weights."""
    _check_weights(P, weights)
    total = VertexFraction.zero(P.m)
    for mono, c in P.terms.items():
        value = trop_frac(c)
        num = value.num
        for (i, J), p in mono.factors:
            num = num * weights[i - 1].shift(J).vertices() ** p
        # a vanished term is skipped: adding 0/den would widen the denominator
        if num:
            total = total + VertexFraction(num, value.den)
    return total


def normalizer(value: VertexFraction) -> RationalFunction:
    """Reciprocal of a tropical value as a rational function.

    Every vertex is given coefficient 1, numerator and denominator swap.
    """
    if value.is_zero:
        raise ZeroTropicalValue("cannot normalize a zero tropical value")
    return RationalFunction._trusted(_ones_poly(value.den), _ones_poly(value.num))


def translate(
    P: DiffPoly,
    weights: Sequence[BooleanWeight],
    kernel: SubstitutionKernel = SubstitutionKernel.INDICATOR,
) -> DiffPoly:
    """P_w: substitute shifted-weight polynomials and normalize by tropw(P).

    Keeps the monomial structure of P (some terms may drop when a shift
    empties a weight); every surviving coefficient has tropical value <= 1.
    """
    value = tropw(P, weights)
    if value.is_zero:
        return DiffPoly.zero(P.m, P.n)
    pref = normalizer(value)
    out: dict = {}
    for mono, c in P.terms.items():
        moved = pref * c
        for (i, J), p in mono.factors:
            moved = moved * substitution_poly(weights[i - 1], J, kernel) ** p
        # a shift that empties a weight gives a zero piece, and the term drops
        if moved.is_zero:
            continue
        if not in_unit_ball(moved):
            raise InternalInconsistency(f"translated coefficient {moved} left the unit ball")
        out[mono] = moved
    return DiffPoly._trusted(P.m, P.n, out)


def initial_form(
    P: DiffPoly,
    weights: Sequence[BooleanWeight],
    order: MonomialOrder,
    kernel: SubstitutionKernel = SubstitutionKernel.INDICATOR,
) -> DiffPoly:
    """Termwise residue of the translation: a constant-coefficient DiffPoly."""
    moved = translate(P, weights, kernel)
    out: dict = {}
    for mono, c in moved.terms.items():
        r = residue(c, order)
        if r != 0:
            out[mono] = RationalFunction.constant(P.m, r)
    return DiffPoly._trusted(P.m, P.n, out)


def _prolonged_nonzero(
    generators: Sequence[DiffPoly], bound: int, step: Callable[[DiffPoly], DiffPoly]
) -> list[DiffPoly]:
    """step(d^J g) for every generator g and |J| <= bound, zeros and repeats dropped."""
    kept: list[DiffPoly] = []
    for g in generators:
        for q in prolong(g, bound):
            image = step(q)
            if not image.is_zero and not any(image == k for k in kept):
                kept.append(image)
    return kept


def translate_generators(
    generators: Sequence[DiffPoly],
    weights: Sequence[BooleanWeight],
    bound: int,
    kernel: SubstitutionKernel = SubstitutionKernel.INDICATOR,
) -> list[DiffPoly]:
    """Nonzero translations of all derivatives up to the bound, deduplicated."""
    return _prolonged_nonzero(generators, bound, lambda q: translate(q, weights, kernel))


def initial_generators(
    generators: Sequence[DiffPoly],
    weights: Sequence[BooleanWeight],
    order: MonomialOrder,
    bound: int,
    kernel: SubstitutionKernel = SubstitutionKernel.INDICATOR,
) -> list[DiffPoly]:
    """Nonzero initial forms of all derivatives up to the bound, deduplicated."""
    return _prolonged_nonzero(
        generators, bound, lambda q: initial_form(q, weights, order, kernel)
    )
