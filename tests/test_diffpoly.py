import math
import random
import re
from fractions import Fraction

import pytest

from helpers import diff_monomial, diffpoly, exponent, qpoly, same_as_public
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

    def test_non_integer_variable_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            DiffMonomial([((1, (1.5, 0)), 1)])
        with pytest.raises(ValueError, match="variable indices must be integers"):
            DiffMonomial([((1.0, (1, 0)), 1)])
        with pytest.raises(ValueError, match="multi-index must be integers, got 5"):
            DiffMonomial.var(1, 5)

    def test_non_integer_power_rejected(self):
        with pytest.raises(ValueError, match="powers must be integers"):
            DiffMonomial([((1, (1, 0)), 1.5)])

    def test_index_below_one_and_negative_multi_index_rejected(self):
        with pytest.raises(ValueError, match="variable indices start at 1"):
            DiffMonomial.var(0, (1, 0))
        with pytest.raises(ValueError, match="multi-index must be nonnegative"):
            DiffMonomial.var(1, (-1, 0))

    def test_mul(self):
        assert X((1, 0)) * X((1, 0)) == DiffMonomial([((1, (1, 0)), 2)])

    @pytest.mark.parametrize("m", [2, 3], ids=["m2", "m3"])
    def test_mul_matches_the_public_constructor(self, m):
        # * skips the constructor's checks, so its factors must already be
        # what the constructor builds from the two factor lists together
        rng = random.Random(97 + m)

        def monomial():
            return DiffMonomial(
                [((rng.randint(1, 2), exponent(rng, m, 1)), rng.randint(1, 3))
                 for _ in range(rng.randint(1, 3))]
            )

        shared = 0
        for _ in range(200):
            a, b = monomial(), monomial()
            got = a * b
            want = DiffMonomial(a.factors + b.factors)
            assert got.factors == want.factors
            assert got == want and hash(got) == hash(want)
            shared += bool(dict(a.factors).keys() & dict(b.factors).keys())
        assert shared

    def test_bump(self):
        sq = DiffMonomial([((1, (0, 0)), 2)])
        got = sq.bump(0, 1)
        assert got == DiffMonomial([((1, (0, 0)), 1), ((1, (0, 1)), 1)])

    @pytest.mark.parametrize("m", [2, 3], ids=["m2", "m3"])
    def test_bump_matches_the_public_constructor(self, m):
        # bump skips the constructor's checks, so its factors must already be
        # what the constructor builds from the factors the old bump listed
        rng = random.Random(89 + m)
        raised = present = 0
        for _ in range(200):
            var = (rng.randint(1, 2), exponent(rng, m, 2))
            mono = diff_monomial(rng, m, 2) * DiffMonomial.var(*var, rng.randint(1, 3))
            if rng.random() < 0.5:  # a factor that a bump of var lifts onto
                lift = rng.randrange(m)
                J = tuple(v + (j == lift) for j, v in enumerate(var[1]))
                mono = mono * DiffMonomial.var(var[0], J)
            for position, ((i, J), p) in enumerate(mono.factors):
                for k in range(m):
                    up = tuple(v + (j == k) for j, v in enumerate(J))
                    listed = list(mono.factors)
                    listed[position] = ((i, J), p - 1)
                    listed.append(((i, up), 1))
                    got = mono.bump(position, k)
                    assert got.factors == DiffMonomial(listed).factors
                    assert got.factors == DiffMonomial(got.factors).factors
                    raised += p > 1
                    present += (i, up) in dict(mono.factors)
        assert raised and present

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

    @pytest.mark.parametrize(
        "c",
        [2, Fraction(1, 2), T, parse_rational("t", 2), parse_rational("t/(t+u)", 2)],
        ids=["int", "fraction", "qpoly", "rational", "fraction-of-polys"],
    )
    def test_constant_minus_polynomial(self, c):
        P = running_example()
        R = c - P
        assert R == -(P - c) == -P + c
        assert R.coeff(DiffMonomial.one()) == c
        assert same_as_public(R)

    @pytest.mark.parametrize("c", ["1/2", 0.5], ids=["str", "float"])
    def test_subtraction_refuses_what_addition_refuses(self, c):
        P = running_example()
        for operation in (lambda: P + c, lambda: P - c, lambda: c + P, lambda: c - P):
            with pytest.raises(TypeError):
                operation()

    def test_cancelled_coefficient_leaves_no_zero_behind(self):
        # x00*x10 collects 1/(tu) - 1/(tu) + 1; the pair cancels first, so the
        # 1 must not be added onto 0/(t^2 u^2) and come out as t^2u^2/t^2u^2
        x00, x10 = X((0, 0)), X((1, 0))
        inv = lambda text: RationalFunction(QPoly.one(2), parse_poly(text, 2))
        P = DiffPoly(2, 1, {x00: inv("t"), x10: inv("u"), DiffMonomial.one(): 1})
        Q = DiffPoly(2, 1, {x10: inv("u"), x00: -inv("t"), x00 * x10: 1})
        c = (P * Q).coeff(x00 * x10)
        assert (c.num.terms, c.den.terms) == ({(0, 0): 1}, {(0, 0): 1})

    def test_arithmetic_results_are_canonical(self):
        # these results bypass the public constructor's checks, so they must
        # already be what DiffPoly(m, n, terms) would build from their terms
        rng = random.Random(83)
        for m in (2, 3):
            for _ in range(30):
                P, Q = diffpoly(rng, m, 2), diffpoly(rng, m, 2)
                for R in (P + Q, P - P, -P, P * Q, P.derive(0), P.derive(m - 1), 3 * P):
                    assert R.terms.keys() == DiffPoly(m, 2, R.terms).terms.keys()
                    assert all(
                        isinstance(c, RationalFunction) and not c.is_zero
                        for c in R.terms.values()
                    )
                    assert same_as_public(R)

    @pytest.mark.parametrize("m", [2, 3], ids=["m2", "m3"])
    def test_scalar_product_matches_the_constant_coefficient(self, m):
        # the old route multiplied each coefficient by a constant RationalFunction
        dicts = lambda P: {mono: (v.num.terms, v.den.terms) for mono, v in P.terms.items()}
        rng = random.Random(97 + m)
        for _ in range(30):
            P = diffpoly(rng, m, 2)
            for c in (rng.choice((-3, 2)), Fraction(-2, 3), 0):
                const = RationalFunction.constant(m, c)
                old = DiffPoly(m, 2, {mono: v * const for mono, v in P.terms.items()})
                for R in (P * c, c * P):
                    assert same_as_public(R)
                    assert R == old and dicts(R) == dicts(old)
            assert (P * 0).is_zero


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

    @pytest.mark.parametrize("k", [True, 1.0], ids=["bool", "float"])
    def test_non_int_direction(self, k):
        # the zero polynomial never reached a coefficient's check and returned 0
        for P in (DiffPoly.zero(2, 1), running_example()):
            with pytest.raises(ValueError, match=f"direction must be an int, got {k!r}"):
                P.derive(k)


# J, and the class and text that every deriv(J) at m = 2 raises for it
BAD_MULTI_INDICES = [
    ((-1, 0), ValueError, "multi-index must be nonnegative"),
    ((1,), DimensionMismatch, "does not have 2 coordinates"),
    ((0, 0, 1), DimensionMismatch, "does not have 2 coordinates"),
    ((True, 0), ValueError, "multi-index must be integers"),
    ((1.5, 0), ValueError, "multi-index must be integers"),
]


class TestDerivRefusals:
    """QPoly, RationalFunction and DiffPoly check J in one place, the same way."""

    @pytest.mark.parametrize(
        "J, error, text", BAD_MULTI_INDICES, ids=["negative", "short", "long", "bool", "float"]
    )
    def test_every_class_refuses_alike(self, J, error, text):
        # RationalFunction and DiffPoly returned t^2 and P for (-1, 0) and took (1,)
        with pytest.raises(error, match=re.escape(text)) as from_qpoly:
            parse_poly("t^2", 2).deriv(J)
        for value in (parse_rational("t^2", 2), running_example()):
            with pytest.raises(error) as caught:
                value.deriv(J)
            assert str(caught.value) == str(from_qpoly.value)

    def test_valid_multi_index_still_derives(self):
        assert parse_rational("t^2", 2).deriv([1, 0]) == parse_rational("2*t", 2)
        assert running_example().deriv((0, 0)) == running_example()


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

    @pytest.mark.parametrize("bound", [-1, True, 1.5, "2"], ids=["-1", "bool", "float", "str"])
    def test_bound_must_be_a_nonnegative_int(self, bound):
        # -1 gave []
        with pytest.raises(ValueError, match=re.escape(f"nonnegative int, got {bound!r}")):
            multi_indices(2, bound)

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

    @pytest.mark.parametrize("bound", [True, 1.5, "2"], ids=["bool", "float", "str"])
    def test_non_int_bound(self, bound):
        # True gave 3 derivatives and 1.5 a TypeError from range
        with pytest.raises(ValueError, match=re.escape(f"got {bound!r}")):
            prolong(running_example(), bound)


class TestPresentation:
    def test_running_example(self):
        assert str(running_example()) == "x_(1,1) + (-t)*x_(0,0)"

    def test_indexed_when_needed(self):
        P = DiffPoly(2, 2, {DiffMonomial.var(2, (1, 0)): 3})
        assert str(P) == "3*x2_(1,0)"

    def test_zero(self):
        assert str(DiffPoly.zero(2, 1)) == "0"
