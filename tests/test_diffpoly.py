import math
import random

import pytest

from helpers import diffpoly, qpoly
from tropdiff import (
    DiffMonomial,
    DiffPoly,
    DimensionMismatch,
    QPoly,
    RationalFunction,
    multi_indices,
    parse_poly,
    parse_rational,
    prolong,
)

X = lambda J: DiffMonomial.var(1, J)
T = parse_poly("t", 2)


def running_example() -> DiffPoly:
    return DiffPoly(2, 1, {X((1, 1)): 1, X((0, 0)): -T})


class TestDiffMonomial:
    def test_merge_and_sort(self):
        a = DiffMonomial([((1, (1, 0)), 1), ((1, (0, 1)), 2), ((1, (1, 0)), 1)])
        assert a.factors == (((1, (0, 1)), 2), ((1, (1, 0)), 2))
        assert a.total_degree == 4

    def test_zero_power_dropped(self):
        assert DiffMonomial([((1, (1, 0)), 0)]).is_one

    def test_negative_power(self):
        with pytest.raises(ValueError):
            DiffMonomial([((1, (1, 0)), -1)])

    def test_mul(self):
        assert X((1, 0)) * X((1, 0)) == DiffMonomial([((1, (1, 0)), 2)])

    def test_bump(self):
        sq = DiffMonomial([((1, (0, 0)), 2)])
        got = sq.bump(0, 1)
        assert got == DiffMonomial([((1, (0, 0)), 1), ((1, (0, 1)), 1)])

    def test_render(self):
        mono = DiffMonomial([((1, (1, 0)), 2), ((2, (0, 1)), 1)])
        assert mono.render(indexed=True) == "x1_(1,0)^2*x2_(0,1)"
        assert X((1, 1)).render(indexed=False) == "x_(1,1)"
        assert DiffMonomial.one().render(indexed=False) == "1"


class TestConstruction:
    def test_accumulates(self):
        P = DiffPoly(2, 1, {X((1, 0)): 2}) + DiffPoly(2, 1, {X((1, 0)): -2})
        assert P.is_zero

    def test_validation(self):
        with pytest.raises(DimensionMismatch):
            DiffPoly(2, 1, {DiffMonomial.var(2, (0, 0)): 1})
        with pytest.raises(DimensionMismatch):
            DiffPoly(2, 1, {DiffMonomial.var(1, (0, 0, 0)): 1})
        with pytest.raises(DimensionMismatch):
            DiffPoly(2, 1, {X((0, 0)): parse_poly("t1+t2+t3", 3)})

    def test_coeff_lookup(self):
        P = running_example()
        assert P.coeff(X((0, 0))) == -RationalFunction(T)
        assert P.coeff(X((5, 5))).is_zero
        assert P.monomials() == {X((1, 1)), X((0, 0))}

    def test_equality_cross_multiplied(self):
        lead = parse_rational("(t+u)/(t+u)")
        P = DiffPoly(2, 1, {X((1, 1)): lead})
        assert P == DiffPoly(2, 1, {X((1, 1)): 1})


class TestArithmetic:
    def test_scalar_and_sum(self):
        P = running_example()
        assert P + T * DiffPoly.variable(2, 1, 1, (0, 0)) == DiffPoly(
            2, 1, {X((1, 1)): 1}
        )

    def test_product(self):
        P = DiffPoly(2, 1, {X((1, 0)): 1, X((0, 0)): 1})
        sq = P * P
        assert sq.coeff(DiffMonomial([((1, (1, 0)), 1), ((1, (0, 0)), 1)])) == 2

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            running_example() + DiffPoly.zero(3, 1)

    def test_arithmetic_results_are_canonical(self):
        # these results bypass the public constructor's checks, so they must
        # already be what DiffPoly(m, n, terms) would build from their terms
        rng = random.Random(83)
        for _ in range(30):
            P, Q = diffpoly(rng, 2, 2), diffpoly(rng, 2, 2)
            for R in (P + Q, P - P, -P, P * Q, P.derive(0)):
                assert R.terms.keys() == DiffPoly(2, 2, R.terms).terms.keys()
                assert all(
                    isinstance(c, RationalFunction) and not c.is_zero
                    for c in R.terms.values()
                )


class TestDerive:
    def test_leibniz_golden(self):
        got = running_example().derive(0)
        want = DiffPoly(2, 1, {X((2, 1)): 1, X((1, 0)): -T, X((0, 0)): -1})
        assert got == want

    def test_partials_commute(self):
        rng = random.Random(111)
        for _ in range(50):
            P = diffpoly(rng, 2, 2)
            assert P.derive(0).derive(1) == P.derive(1).derive(0)

    def test_product_rule(self):
        rng = random.Random(112)
        for _ in range(50):
            P, Q = diffpoly(rng, 2, 1), diffpoly(rng, 2, 1)
            assert (P * Q).derive(0) == P.derive(0) * Q + P * Q.derive(0)

    def test_deriv_is_iterated_derive(self):
        P = running_example()
        assert P.deriv((2, 1)) == P.derive(0).derive(0).derive(1)

    def test_bad_direction(self):
        with pytest.raises(DimensionMismatch):
            running_example().derive(2)


class TestEvaluate:
    def test_golden(self):
        f = parse_poly("t^2*u")
        got = running_example().evaluate([f])
        assert got == RationalFunction(parse_poly("2*t - t^3*u"))

    def test_chain_rule(self):
        # the semantic anchor: deriving the formal expression commutes with
        # deriving its value
        rng = random.Random(113)
        for _ in range(60):
            P = diffpoly(rng, 2, 2)
            args = [qpoly(rng, 2), qpoly(rng, 2)]
            k = rng.randrange(2)
            assert P.derive(k).evaluate(args) == P.evaluate(args).partial(k)

    def test_argument_count(self):
        with pytest.raises(DimensionMismatch):
            running_example().evaluate([])


class TestMultiIndices:
    def test_order_golden(self):
        assert multi_indices(2, 2) == [
            (0, 0),
            (1, 0),
            (0, 1),
            (2, 0),
            (1, 1),
            (0, 2),
        ]

    def test_counts(self):
        for b in range(5):
            assert len(multi_indices(2, b)) == (b + 1) * (b + 2) // 2
            assert len(multi_indices(3, b)) == math.comb(b + 3, 3)

    def test_unique_and_graded(self):
        out = multi_indices(3, 4)
        assert len(set(out)) == len(out)
        assert [sum(J) for J in out] == sorted(sum(J) for J in out)


class TestProlong:
    def test_bound_zero(self):
        P = running_example()
        assert prolong(P, 0) == [P]

    def test_aligned_with_multi_indices(self):
        P = running_example()
        out = prolong(P, 3)
        index = multi_indices(2, 3)
        assert len(out) == len(index)
        for J, Q in zip(index, out):
            assert Q == P.deriv(J)

    def test_negative_bound(self):
        with pytest.raises(ValueError):
            prolong(running_example(), -1)


class TestPresentation:
    def test_running_example(self):
        assert str(running_example()) == "x_(1,1) + (-t)*x_(0,0)"

    def test_indexed_when_needed(self):
        P = DiffPoly(2, 2, {DiffMonomial.var(2, (1, 0)): 3})
        assert str(P) == "3*x2_(1,0)"

    def test_zero(self):
        assert str(DiffPoly.zero(2, 1)) == "0"
