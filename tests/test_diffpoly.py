import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from helpers import (
    bump_by_rebuild,
    diff_monomial,
    diffpoly,
    diffpoly_text,
    exponent,
    qpoly,
    same_as_public,
    texted_diffpoly,
)
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

    @pytest.mark.parametrize("p", [0, 1])
    @pytest.mark.parametrize(
        "var, message",
        [
            ((0, (1, 0)), "variable indices start at 1, got 0"),
            ((1.0, (1, 0)), "variable indices must be integers"),
            ((True, (1, 0)), "variable indices must be integers"),
            ((1, (-1, 0)), "multi-index must be nonnegative"),
            ((1, (1.5, 0)), "multi-index must be integers"),
            ((0, (-1, "x")), "variable indices start at 1, got 0"),
            ((1, (-1, "x")), "multi-index must be integers"),
        ],
        ids=["index-0", "float-index", "bool-index", "negative-J", "float-J", "both", "str-J"],
    )
    def test_a_bad_factor_is_refused_whatever_its_power(self, var, message, p):
        # a zero power drops its factor only after the factor is checked
        with pytest.raises(ValueError, match=re.escape(message)):
            DiffMonomial([(var, p)])

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
                    got = mono.bump(position, k)
                    assert got.factors == bump_by_rebuild(mono, position, k).factors
                    assert got.factors == DiffMonomial(got.factors).factors
                    raised += p > 1
                    present += (i, up) in dict(mono.factors)
        assert raised and present

    def test_a_repeated_bump_is_the_same_object(self):
        sq = DiffMonomial([((1, (0, 0)), 2)])
        assert sq.bump(0, 1) is sq.bump(0, 1)
        assert sq.bump(0, 0) is not sq.bump(0, 1)
        assert sq.bump(0, 1).bump(1, 1) is sq.bump(0, 1).bump(1, 1)

    @pytest.mark.parametrize("m", [1, 2, 3, 4], ids=["m1", "m2", "m3", "m4"])
    def test_kept_bumps_match_the_unkept_oracle(self, m):
        # bump answers a repeat from the monomial's memo: every answer, first or
        # repeated and in any order, is what the oracle rebuilds from the factors
        rng = random.Random(113 + m)
        raised = present = repeats = 0
        for _ in range(60):
            var = (rng.randint(1, 2), exponent(rng, m, 2))
            mono = diff_monomial(rng, m, 2) * DiffMonomial.var(*var, rng.randint(1, 3))
            if rng.random() < 0.5:  # a factor that a bump of var lifts onto
                lift = rng.randrange(m)
                mono = mono * DiffMonomial.var(var[0], tuple(v + (j == lift) for j, v in enumerate(var[1])))
            asks = [(position, k) for position in range(len(mono.factors)) for k in range(m)]
            asks += rng.choices(asks, k=len(asks))
            rng.shuffle(asks)
            first = {}
            for position, k in asks:
                got = mono.bump(position, k)
                want = bump_by_rebuild(mono, position, k)
                assert got.factors == want.factors and got == want and hash(got) == hash(want)
                repeats += (position, k) in first
                assert first.setdefault((position, k), got) is got
                (i, J), p = mono.factors[position]
                raised += p > 1
                present += (i, tuple(v + (j == k) for j, v in enumerate(J))) in dict(mono.factors)
        assert raised and present and repeats

    @pytest.mark.parametrize("m", [1, 2, 3, 4], ids=["m1", "m2", "m3", "m4"])
    def test_the_kept_hash_is_the_hash_of_the_factors(self, m):
        # the constructor and the library's own routes (*, bump) keep the same hash
        rng = random.Random(131 + m)
        for _ in range(60):
            mono = diff_monomial(rng, m, 2)
            bumped = mono.bump(0, 0)
            pairs = [
                (mono, DiffMonomial(reversed(mono.factors))),
                (mono, mono * DiffMonomial()),
                (mono, DiffMonomial() * mono),
                (bumped, DiffMonomial(bumped.factors)),
            ]
            for a, b in pairs:
                assert a == b and hash(a) == hash(b) == hash(a.factors) == hash(b.factors)
                assert {a: 1}[b] == 1
        assert hash(DiffMonomial()) == hash(())

    def test_the_factors_cannot_be_rebound(self):
        # the kept hash and bumps are worked out from the factors, so a
        # rebinding would leave them answering for the old ones
        x = DiffMonomial.var(1, (0,))
        bumped = x.bump(0, 0)
        with pytest.raises(AttributeError):
            x.factors = ()
        assert x.factors == (((1, (0,)), 1),) and x != DiffMonomial()
        assert hash(x) == hash(x.factors) and x.bump(0, 0) is bumped

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
        with pytest.raises(TypeError, match=re.escape("expected a DiffMonomial, got 'x'")):
            DiffPoly(2, 1, {"x": 1})

    def test_coeff_lookup(self):
        P = running_example()
        assert P.coeff(X((0, 0))) == -RationalFunction(T)
        assert P.coeff(X((5, 5))).is_zero
        assert P.monomials() == {X((1, 1)), X((0, 0))}

    def test_coeff_refuses_a_monomial_outside_the_ring(self):
        # an unknown index above n, a multi-index not of width m, and a key
        # that is not a monomial each looked up 0 before
        P = DiffPoly(2, 1, {X((0, 0)): 3})
        with pytest.raises(DimensionMismatch, match=re.escape("unknown index 7 out of range for n=1")):
            P.coeff(DiffMonomial.var(7, (0, 0)))
        width = re.escape("multi-index: (0, 0, 0) does not have 2 coordinates")
        with pytest.raises(DimensionMismatch, match=width):
            P.coeff(X((0, 0, 0)))
        with pytest.raises(DimensionMismatch):
            P.coeff(DiffMonomial.var(7, (0, 0, 0)))
        for bad in ("x", (1, (0, 0)), None):
            with pytest.raises(TypeError, match="expected a DiffMonomial"):
                P.coeff(bad)
        assert P.coeff(X((0, 0))) == 3 and P.coeff(X((0, 1))).is_zero

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

    def test_a_factor_of_power_one_carries_its_coefficient_itself(self):
        c = parse_rational("t/(t+u)", 2)
        mono = X((0, 0)) * DiffMonomial.var(1, (0, 3), 2)
        D = DiffPoly(2, 1, {mono: c}).derive(0)
        assert D.terms[X((1, 0)) * DiffMonomial.var(1, (0, 3), 2)] is c
        doubled = D.terms[X((0, 0)) * X((0, 3)) * X((1, 3))]
        assert doubled.num == (c * 2).num and doubled.den == (c * 2).den

    @pytest.mark.parametrize("m", [2, 3], ids=["m2", "m3"])
    def test_each_bump_carries_c_times_the_power(self, m):
        # in a one-term polynomial every bump lands on a monomial of its own
        rng = random.Random(113 + m)
        for _ in range(40):
            mono = diff_monomial(rng, m, 2)
            if rng.random() < 0.5:
                mono = mono * DiffMonomial.var(1, exponent(rng, m, 2), rng.randint(1, 3))
            c = RationalFunction(qpoly(rng, m, 3, 3), qpoly(rng, m, 3, 3))
            for k in range(m):
                D = DiffPoly(m, 2, {mono: c}).derive(k)
                for pos, (_, p) in enumerate(mono.factors):
                    got = D.terms[mono.bump(pos, k)]
                    if p == 1:
                        assert got is c
                    else:
                        assert got.num == (c * p).num and got.den == (c * p).den

    def test_bad_direction(self):
        # was a DimensionMismatch; QPoly.partial's ValueError and text now
        with pytest.raises(ValueError, match=re.escape("direction must be an int in 0..1, got 2")):
            running_example().derive(2)

    @pytest.mark.parametrize("k", [True, 1.0], ids=["bool", "float"])
    def test_non_int_direction(self, k):
        # the zero polynomial never reached a coefficient's check and returned 0
        message = re.escape(f"direction must be an int in 0..1, got {k!r}")
        for P in (DiffPoly.zero(2, 1), running_example()):
            with pytest.raises(ValueError, match=message):
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

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_each_level_is_the_box_filtered_and_sorted(self, m):
        # the box enumeration this replaced: (d + 1)^m points per level
        for bound in range(5):
            want = []
            for d in range(bound + 1):
                level = [J for J in itertools.product(range(d + 1), repeat=m) if sum(J) == d]
                want += sorted(level, reverse=True)
            assert multi_indices(m, bound) == want

    def test_a_wide_level_is_built_without_the_box(self):
        out = multi_indices(1000, 1)
        assert len(out) == 1001 and out[1] == (1,) + (0,) * 999 and out[-1] == (0,) * 999 + (1,)


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
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_seeded_values_against_the_oracle(self, m, n):
        # str is what the per-class signed-sum rule (helpers.diffpoly_text) writes
        rng = random.Random(100 * n + m)
        seen = set()
        for _ in range(300):
            P = texted_diffpoly(rng, m, n)
            assert str(P) == diffpoly_text(P)
            for mono, c in P.terms.items():
                if c.num.is_constant and c.den.is_constant:
                    const = c.num.constant_value() / c.den.constant_value()
                    seen.add((mono.is_one, str(const) if abs(const) == 1 else "other constant"))
                else:
                    seen.add((mono.is_one, "not constant"))
            seen.add(("zero", P.is_zero))
        # the constant monomial and others, each with a coefficient of 1, -1,
        # another constant and one that is not constant
        for one in (False, True):
            for kind in ("1", "-1", "other constant", "not constant"):
                assert (one, kind) in seen
        assert {("zero", True), ("zero", False)} <= seen

    def test_running_example(self):
        assert str(running_example()) == "x_(1,1) + (-t)*x_(0,0)"

    def test_indexed_when_needed(self):
        P = DiffPoly(2, 2, {DiffMonomial.var(2, (1, 0)): 3})
        assert str(P) == "3*x2_(1,0)"

    def test_zero(self):
        assert str(DiffPoly.zero(2, 1)) == "0"

    def test_a_constant_term_other_than_one(self):
        # its magnitude stands alone, after the terms of higher degree
        x = DiffMonomial.var(1, (0, 0))
        P = DiffPoly(2, 1, {DiffMonomial.one(): Fraction(-3, 2), x: 2})
        assert str(P) == "2*x_(0,0) - 3/2"

    def test_monomial(self):
        x, y = DiffMonomial.var(1, (1, 0)), DiffMonomial.var(2, (0, 1))
        assert str(x * x) == "x_(1,0)^2"
        assert str(x * y) == "x1_(1,0)*x2_(0,1)"
        assert str(DiffMonomial.one()) == "1"
