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
Before any work tropw checks the count and the m of the weights, translate
its kernel, and initial_form its order's m, even if no residue is then taken.
The generator variants make the same checks before they build any
derivative, and with no generator they still refuse a bad kernel, and
weights or an order of two widths.

tropw extracts its numerator once.  With num_i/den_i the value of term i
(its coefficient's value times its factors' vertex sets), the tropical sum
over the terms is (sum_i num_i * prod_{j != i} den_j) / prod_j den_j: the
semiring is associative, commutative and distributive, and a vertex set is
canonical, so this (num, den) is the one that adding the terms one at a time
gives, point for point.  Each term's factors but the last are multiplied out
with an extraction after each product, and the last factor times the other
terms' denominators is one more extracted product; only the pair of those two
goes into VertexPoly.sum_of_products.  So every extraction sees the raw sums
of two vertex sets, never of a whole monomial's factors, and its input stays
bounded.  This is the value that Aroca, Garay and Toghani define (Pacific J.
Math. 283, 2016), computed with fewer extractions.

translate builds each numerator as one QPoly.product of the normalizer's
numerator, the coefficient's numerator and each factor's substitution
polynomial, raised to the factor's power once (QPoly ** p, which takes no gcd)
when that power is not 1, so it takes one gcd per coefficient, not one per
factor, and no work that grows with a power of a polynomial of one term;
the denominator is the normalizer's times the coefficient's, and the full
unit-ball check runs on each result.

The generator variants prolong first and translate each derivative.  A
degree bound makes the set finite; it is a truncation of the full object,
which ranges over all derivative multi-indices.  Zero images and repeats are
dropped in one pass: an image is compared only with the kept images on its
monomial set, so n images with distinct sets take no comparison at all.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

from .diffpoly import DiffPoly, prolong
from .errors import DimensionMismatch, InternalInconsistency, ZeroTropicalValue, same_width, shown
from .orders import MonomialOrder
from .series import QPoly, RationalFunction, in_unit_ball, residue, trop_frac
from .vertexpoly import VertexFraction, VertexPoly
from .weights import BooleanWeight, SubstitutionKernel, check_kernel, substitution_poly


def _ones_poly(vp: VertexPoly) -> QPoly:
    return QPoly._trusted(vp.m, dict.fromkeys(vp.points, 1))


def _check_weights(P: DiffPoly, weights: Sequence[BooleanWeight]) -> None:
    """Refuse weights that P cannot be read against: one per unknown, each over P's m."""
    if len(weights) != P.n:
        raise DimensionMismatch(f"expected {P.n} weights, got {len(weights)}")
    for w in weights:
        same_width(P.m, w)


def tropw(P: DiffPoly, weights: Sequence[BooleanWeight]) -> VertexFraction:
    """Tropical value of P along the weights, with one extraction for its numerator."""
    _check_weights(P, weights)
    m = P.m
    one = VertexPoly.one(m)
    kept = []
    for mono, c in P.terms.items():
        factors = [weights[i - 1].shift(J).vertices() ** p for (i, J), p in mono.factors]
        # a vanished term is skipped: adding 0/den would widen the denominator
        if not all(factors):
            continue
        value = trop_frac(c)
        head, last = value.num, one
        for factor in factors:
            head, last = head * last, factor
        kept.append((head, last, value.den))
    # after[k] is the product of the denominators of the terms after term k
    after = [one]
    for _, _, den in reversed(kept[1:]):
        after.append(den * after[-1])
    after.reverse()
    before = one
    pairs = []
    for (head, last, den), rest in zip(kept, after):
        pairs.append((head, last * (before * rest)))
        before = before * den
    return VertexFraction._trusted(VertexPoly.sum_of_products(m, pairs), before)


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
    check_kernel(kernel)
    value = tropw(P, weights)
    if value.is_zero:
        return DiffPoly.zero(P.m, P.n)
    pref = normalizer(value)
    out: dict = {}
    for mono, c in P.terms.items():
        factors = [pref.num, c.num]
        for (i, J), p in mono.factors:
            piece = substitution_poly(weights[i - 1], J, kernel)
            factors.append(piece if p == 1 else piece**p)
        num = QPoly.product(P.m, factors)
        # a shift that empties a weight gives a zero piece, and the term drops
        if num.is_zero:
            continue
        moved = RationalFunction._trusted(num, pref.den * c.den)
        if not in_unit_ball(moved):
            raise InternalInconsistency(f"translated coefficient {shown(moved)} left the unit ball")
        out[mono] = moved
    return DiffPoly._trusted(P.m, P.n, out)


def initial_form(
    P: DiffPoly,
    weights: Sequence[BooleanWeight],
    order: MonomialOrder,
    kernel: SubstitutionKernel = SubstitutionKernel.INDICATOR,
) -> DiffPoly:
    """Termwise residue of the translation: a constant-coefficient DiffPoly."""
    same_width(P.m, order)
    moved = translate(P, weights, kernel)
    out: dict = {}
    for mono, c in moved.terms.items():
        r = residue(c, order)
        if r != 0:
            out[mono] = RationalFunction.constant(P.m, r)
    return DiffPoly._trusted(P.m, P.n, out)


def _distinct_nonzero(images: Iterable[DiffPoly]) -> list[DiffPoly]:
    """The nonzero images, each value once, in first-seen order.

    A DiffPoly keeps no zero coefficient, so equal images have one monomial
    set, and an image is compared only with the kept images on its set.
    """
    kept: list[DiffPoly] = []
    by_monomials: dict[frozenset, list[DiffPoly]] = {}
    for image in images:
        if image.is_zero:
            continue
        alike = by_monomials.setdefault(frozenset(image.terms), [])
        if not any(image == k for k in alike):
            alike.append(image)
            kept.append(image)
    return kept


def _prolonged_nonzero(
    generators: Sequence[DiffPoly],
    weights: Sequence[BooleanWeight],
    bound: int,
    step: Callable[[DiffPoly], DiffPoly],
    *orders: MonomialOrder,
) -> list[DiffPoly]:
    """step(d^J g) for every generator g and |J| <= bound, zeros and repeats dropped.

    Before any derivative is built, each generator is checked against the
    weights as tropw checks it, and the weights and the orders must share one
    m, so weights or an order of two widths are refused with no generator too.
    """
    for g in generators:
        _check_weights(g, weights)
    widths = [*weights, *orders]
    for value in widths[1:]:
        same_width(widths[0].m, value)
    return _distinct_nonzero(step(q) for g in generators for q in prolong(g, bound))


def translate_generators(
    generators: Sequence[DiffPoly],
    weights: Sequence[BooleanWeight],
    bound: int,
    kernel: SubstitutionKernel = SubstitutionKernel.INDICATOR,
) -> list[DiffPoly]:
    """Nonzero translations of all derivatives up to the bound, deduplicated."""
    check_kernel(kernel)
    return _prolonged_nonzero(generators, weights, bound, lambda q: translate(q, weights, kernel))


def initial_generators(
    generators: Sequence[DiffPoly],
    weights: Sequence[BooleanWeight],
    order: MonomialOrder,
    bound: int,
    kernel: SubstitutionKernel = SubstitutionKernel.INDICATOR,
) -> list[DiffPoly]:
    """Nonzero initial forms of all derivatives up to the bound, deduplicated."""
    check_kernel(kernel)
    return _prolonged_nonzero(
        generators, weights, bound, lambda q: initial_form(q, weights, order, kernel), order
    )
