import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from helpers import (
    NONZERO,
    FractionQPoly,
    canonical,
    exponent,
    matrix_order,
    qpoly,
    qpoly_text,
    quotient_partial,
    rational,
    rational_text,
    same_as_public,
    texted_rational,
    unit_ball_fraction,
)
from tropdiff import (
    EQ,
    GT,
    LT,
    DiffMonomial,
    DiffPoly,
    DimensionMismatch,
    InconsistentOracle,
    MonomialOrder,
    NotInUnitBall,
    QPoly,
    RationalFunction,
    VertexFraction,
    VertexPoly,
    ZeroDenominator,
    ZeroTropicalValue,
    bezout_witness,
    divides_in_unit_ball,
    in_unit_ball,
    is_unit,
    max_ideal_member,
    multi_indices,
    order_from_membership,
    order_standard,
    parse_poly,
    parse_rational,
    residue,
    separating_constants,
    trop_frac,
    trop_poly,
)
from tropdiff import series
from tropdiff.series import _summed, fraction_text

T_LEX = order_standard("lex", 2)
U_LEX = MonomialOrder([[1, 0], [0, 1]])  # u smallest


def rf(text, m=2):
    return parse_rational(text, m)


class TestConstructor:
    """QPoly(m, terms) with only int coefficients takes the early exit over 1."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_int_coefficients_give_what_fractions_give(self, m):
        rng = random.Random(71 + m)
        for _ in range(100):
            ints = {exponent(rng, m, 3): rng.choice((0, *NONZERO, 10**30)) for _ in range(4)}
            q = QPoly(m, ints)
            assert canonical(q) and q._den == 1
            assert q.terms == QPoly(m, {e: Fraction(c) for e, c in ints.items()}).terms
            assert q.terms == {e: Fraction(c) for e, c in ints.items() if c}

    @pytest.mark.parametrize(
        "terms, error, message",
        [
            ({(1, -1): 1}, ValueError, "exponents must be nonnegative"),
            ({(1,): 1}, DimensionMismatch, "does not have 2 coordinates"),
            ({(True, 0): 1}, ValueError, "exponents must be integers"),
            ({(0, 0): 1, (1, -1): 0}, ValueError, "exponents must be nonnegative"),
            # a term's exponent, then its coefficient, then the next term
            ({(0, 0): 1, (1, -1): 0.5}, ValueError, "exponents must be nonnegative"),
            ({(0, 0): 0.5, (1, -1): 1}, ValueError, "must be exact, got the float 0.5"),
        ],
    )
    def test_checks_run_term_by_term(self, terms, error, message):
        with pytest.raises(error, match=re.escape(message)):
            QPoly(2, terms)

    def test_a_bool_or_fraction_coefficient_takes_the_general_route(self):
        assert QPoly(2, {(1, 0): True}) == QPoly(2, {(1, 0): 1})
        half = QPoly(2, {(1, 0): 2, (0, 1): Fraction(1, 2)})
        assert canonical(half) and half.terms == {(1, 0): 2, (0, 1): Fraction(1, 2)}

    @pytest.mark.parametrize(
        "value", ["3/4", "1_0", "1e2", Decimal("0.5"), None, 1j],
        ids=["str", "str-underscore", "str-exponent", "decimal", "none", "complex"],
    )
    @pytest.mark.parametrize(
        "build",
        [
            lambda c: QPoly(2, {(1, 0): c}),
            lambda c: QPoly.constant(2, c),
            lambda c: RationalFunction.constant(2, c),
            lambda c: DiffPoly(2, 1, {DiffMonomial.var(1, (0, 0)): c}),
        ],
        ids=["qpoly", "qpoly-constant", "rational-constant", "diffpoly"],
    )
    def test_only_an_int_or_a_fraction_is_a_coefficient(self, build, value):
        # text reaches the library through parsing alone; Fraction reads "1_0" and "1e2"
        message = f"coefficients must be exact, got the {type(value).__name__} {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(value)


class TestQPolyArithmetic:
    def test_terms_merge_and_cancel(self):
        f = QPoly(2, {(1, 0): 2, (0, 1): 1}) + QPoly(2, {(1, 0): -2})
        assert f.terms == {(0, 1): Fraction(1)}

    def test_product(self):
        assert parse_poly("(t+u)^2") == parse_poly("t^2 + 2*t*u + u^2")

    def test_scalar_mix(self):
        f = parse_poly("t", 2)
        assert 2 * f - f == f
        assert f / 2 == QPoly(2, {(1, 0): Fraction(1, 2)})

    def test_zero_is_written_0(self):
        assert str(QPoly.zero(2)) == str(parse_poly("t - t", 2)) == "0"

    def test_divide_by_zero_scalar(self):
        with pytest.raises(ZeroDenominator):
            parse_poly("t", 2) / 0

    def test_negative_power(self):
        with pytest.raises(ValueError):
            parse_poly("t", 2) ** -1

    def test_deriv_single(self):
        assert parse_poly("t^3", 2).deriv((1, 0)) == parse_poly("3*t^2", 2)

    def test_deriv_falling_factorial(self):
        assert parse_poly("t^3*u", 2).deriv((2, 0)) == parse_poly("6*t*u", 2)

    def test_deriv_kills_low_exponents(self):
        assert parse_poly("t + u^2", 2).deriv((2, 0)).is_zero

    def test_deriv_commutes(self):
        rng = random.Random(41)
        for _ in range(50):
            f = qpoly(rng, 2)
            assert f.partial(0).partial(1) == f.partial(1).partial(0)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            QPoly(2, {(-1, 0): 1})

    def test_non_integer_exponent_rejected(self):
        # int() would have printed t
        with pytest.raises(ValueError, match=r"integers, got \(1\.5, 0\)"):
            QPoly(2, {(1.5, 0): 1})
        with pytest.raises(ValueError, match="exponents must be integers, got 5"):
            QPoly.monomial(5)

    def test_non_integer_derivative_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            parse_poly("t^3*u", 2).deriv((1.5, 0))

    def test_negative_derivative_rejected(self):
        with pytest.raises(ValueError, match="multi-index must be nonnegative"):
            parse_poly("t^3*u", 2).deriv((-1, 0))

    @pytest.mark.parametrize("k", [2, -1, 7, True], ids=["2", "-1", "7", "True"])
    def test_direction_outside_the_variables_rejected(self, k):
        # at m = 2 the directions are 0 and 1; 2 and -1 returned f unchanged
        message = re.escape(f"direction must be an int in 0..1, got {k!r}")
        with pytest.raises(ValueError, match=message):
            parse_poly("t^2*u + 3", 2).partial(k)
        with pytest.raises(ValueError, match=message):
            parse_rational("1/t", 2).partial(k)  # returned 0/t^2 for k = 7
        assert parse_poly("t^2*u + 3", 2).partial(1) == parse_poly("t^2", 2)

    @pytest.mark.parametrize(
        "i, error, text",
        [
            (1.0, ValueError, "variable index must be an int, got 1.0"),  # gave t
            (True, ValueError, "variable index must be an int, got True"),  # gave t
            ("1", ValueError, "variable index must be an int, got '1'"),
            (0, DimensionMismatch, "variable index 0 out of range for m=2"),
            (3, DimensionMismatch, "variable index 3 out of range for m=2"),
        ],
        ids=["float", "bool", "str", "0", "3"],
    )
    def test_bad_variable_index_rejected(self, i, error, text):
        with pytest.raises(error, match=re.escape(text)):
            QPoly.variable(2, i)
        assert QPoly.variable(2, 1) == parse_poly("t", 2)

    @pytest.mark.parametrize("k", [2.0, -2.0, True, "2"], ids=["float", "negative-float", "bool", "str"])
    def test_non_integer_power_rejected(self, k, monkeypatch):
        # 2.0 gave a one-term base float exponents, and a multi-term base a range() TypeError
        def refuse(self, other):
            raise AssertionError("a refused power must not multiply")

        one_term, multi_term = QPoly.monomial((1, 0), 3), parse_poly("t + u/2", 2)
        rational_bases = (parse_rational("3*t", 2), parse_rational("t/(t+u)", 2))
        monkeypatch.setattr(QPoly, "__mul__", refuse)
        for base in (one_term, multi_term, *rational_bases):
            with pytest.raises(ValueError, match=re.escape(f"power must be an integer, got {k!r}")):
                base**k

    def test_arithmetic_results_are_canonical(self):
        # these results bypass the public constructor's checks, so they must
        # already be what QPoly(m, terms) would build from their terms
        rng = random.Random(43)
        for m in (2, 3):
            J = (1,) + (0,) * (m - 1)
            for _ in range(100):
                f, g = qpoly(rng, m), qpoly(rng, m)
                c = rng.choice(NONZERO + (0, Fraction(1, 2)))
                for h in (f + g, f - f, -f, f * g, f.deriv(J), f**2, f / 3, f + c, f * c):
                    assert same_as_public(h)
                assert same_as_public(QPoly.constant(m, c))

    @pytest.mark.parametrize("m", [2, 3, 4], ids=["m2", "m3", "m4"])
    def test_product_is_the_folded_product(self, m):
        # one gcd at the end gives what a gcd after each * gives: one factor,
        # a zero factor anywhere, and denominators other than 1
        rng = random.Random(97 + m)
        seen = {"one factor": 0, "zero": 0, "reduced": 0}
        for _ in range(60):
            factors = []
            for _ in range(rng.randint(1, 4)):
                f = QPoly.zero(m) if rng.random() < 0.1 else qpoly(rng, m, 3, 3)
                factors.append(f / rng.choice((1, 1, 2, 3, 4, 6, 9)))
            folded = factors[0]
            for f in factors[1:]:
                folded = folded * f
            got = QPoly.product(m, factors)
            assert got._ints == folded._ints and got._den == folded._den
            assert canonical(got)
            seen["one factor"] += len(factors) == 1
            seen["zero"] += folded.is_zero
            seen["reduced"] += got._den < math.prod(f._den for f in factors)
        assert all(seen.values()), seen
        assert QPoly.product(m, []) == QPoly.one(m)
        with pytest.raises(DimensionMismatch):
            QPoly.product(m, [QPoly.one(m), QPoly.one(m + 1)])

    @pytest.mark.parametrize("m", [1, 2, 3, 4], ids=["m1", "m2", "m3", "m4"])
    def test_one_term_and_square_products_match_the_oracle(self, m, monkeypatch):
        # a one-term factor, on either side, is a translation that sums
        # nothing; f * f on one dict doubles each cross term once
        rng = random.Random(191 + m)
        summed = []
        monkeypatch.setattr(series, "_summed", lambda pairs: summed.append(1) or _summed(pairs))
        translations = 0
        for _ in range(60):
            f = fraction_qpoly(rng, m, rng.choice((1, 1, 4)))
            g = QPoly.zero(m) if rng.random() < 0.1 else fraction_qpoly(rng, m)
            F, G = FractionQPoly.of(f), FractionQPoly.of(g)
            for got, want in ((f * g, F * G), (g * f, G * F), (f * f, F * F), (g * g, G * G)):
                assert canonical(got) and got.terms == want.terms
            if 1 in (len(f._ints), len(g._ints)):
                summed.clear()
                f * g, g * f
                assert not summed
                translations += 1
            twin = QPoly._trusted(m, dict(f._ints), f._den)  # equal, but another dict
            assert (f * f).terms == (f * twin).terms == (f**2).terms
        assert translations > 10
        assert (QPoly.zero(m) * QPoly.zero(m)).is_zero

    @pytest.mark.parametrize("m", [1, 2, 3, 4], ids=["m1", "m2", "m3", "m4"])
    def test_sum_of_products_is_the_chained_sum(self, m):
        # one pass over the lcm of the denominators gives what * and + give:
        # zero factors, pairs that cancel, and denominators that differ
        rng = random.Random(193 + m)
        seen = {"zero factor": 0, "cancels": 0, "unequal dens": 0, "zero sum": 0}
        for _ in range(60):
            pairs = []
            for _ in range(rng.randint(1, 4)):
                a = QPoly.zero(m) if rng.random() < 0.1 else fraction_qpoly(rng, m)
                b = fraction_qpoly(rng, m, rng.choice((1, 3)))
                pairs.append((a, b) if rng.random() < 0.5 else (b, a))
                if rng.random() < 0.3:  # a pair that cancels the last one
                    pairs.append((-a, b) if rng.random() < 0.5 else (b, -a))
            chained = QPoly.zero(m)
            for a, b in pairs:
                chained = chained + a * b
            got = QPoly.sum_of_products(m, pairs)
            assert got._ints == chained._ints and got._den == chained._den
            assert canonical(got)
            oracle = [(FractionQPoly.of(a), FractionQPoly.of(b)) for a, b in pairs]
            assert got.terms == FractionQPoly.sum_of_products(m, oracle).terms
            seen["zero factor"] += any(a.is_zero or b.is_zero for a, b in pairs)
            seen["cancels"] += any(a == -c and b is d for (a, b), (c, d) in zip(pairs, pairs[1:]))
            seen["unequal dens"] += len({a._den * b._den for a, b in pairs}) > 1
            seen["zero sum"] += got.is_zero
        assert all(seen.values()), seen
        assert QPoly.sum_of_products(m, []) == QPoly.zero(m)
        with pytest.raises(DimensionMismatch):
            QPoly.sum_of_products(m, [(QPoly.one(m), QPoly.one(m + 1))])

    @pytest.mark.parametrize("m", [2, 3], ids=["m2", "m3"])
    def test_one_term_powers_equal_repeated_products(self, m):
        rng = random.Random(83 + m)
        for _ in range(60):
            c = rng.choice(NONZERO + (Fraction(rng.choice(NONZERO), rng.randint(2, 9)),))
            f = QPoly(m, {exponent(rng, m): c})
            expected = QPoly.one(m)
            for k in range(6):
                assert (f**k).terms == expected.terms
                assert same_as_public(f**k)
                expected = expected * f

    def test_one_term_power_multiplies_nothing(self, monkeypatch):
        # the old loop ran k - 1 products: 15 s for trop --m 2 't^1000000'
        def refuse(*args):
            raise AssertionError("a one-term power must not multiply")

        monkeypatch.setattr(QPoly, "__mul__", refuse)
        monkeypatch.setattr(series, "_product", refuse)
        k = 10**6
        h = QPoly(2, {(1, 2): Fraction(-2, 3)}) ** k
        # the int coefficient over the int denominator: h.terms would build
        # Fraction(2**k, 3**k) and take its gcd, seconds of this test
        [(e, c)] = h._ints.items()
        assert e == (k, 2 * k) and c == 2**k and h._den == 3**k
        assert parse_rational("t^1000000", 2).num.terms == {(k, 0): 1}

    @pytest.mark.parametrize("m", [2, 3], ids=["m2", "m3"])
    def test_scalar_product_scales_each_coefficient(self, m):
        # the old route multiplied by the constant polynomial; the dicts must match
        rng = random.Random(61 + m)
        for _ in range(60):
            f = qpoly(rng, m)
            for c in (rng.choice(NONZERO), Fraction(rng.choice(NONZERO), 7), 0, Fraction(0)):
                for h in (f * c, c * f):
                    assert same_as_public(h)
                    assert h.terms == (f * QPoly.constant(m, c)).terms
            assert (f * 0).is_zero

    def test_float_coefficients_rejected(self):
        # Fraction(0.1) would keep the binary value 3602879701896397/2**55
        with pytest.raises(ValueError, match="float"):
            QPoly(2, {(1, 0): 0.1})
        with pytest.raises(ValueError, match="float"):
            QPoly.monomial((1, 0), 0.5)
        with pytest.raises(ValueError, match="float"):
            QPoly.constant(2, 0.5)
        assert QPoly(2, {(1, 0): Fraction(1, 10)}).coeff((1, 0)) == Fraction(1, 10)

    def test_coeff_checks_its_exponent(self):
        f = parse_poly("3*t + u", 2)
        assert f.coeff((1, 0)) == 3 and f.coeff([0, 1]) == 1 and f.coeff((2, 0)) == 0
        for bad in [(1.0, 0), (True, 0)]:  # == and hash like (1, 0), whose coefficient is 3
            with pytest.raises(ValueError, match="integers"):
                f.coeff(bad)
        with pytest.raises(ValueError, match="nonnegative"):
            f.coeff((-1, 0))
        with pytest.raises(DimensionMismatch):
            f.coeff((1,))

    def test_constant_checks_its_input(self):
        assert QPoly.constant(3, Fraction(1, 2)).terms == QPoly(3, {(0, 0, 0): Fraction(1, 2)}).terms
        assert QPoly.constant(2, 0).terms == QPoly(2, {(0, 0): 0}).terms == {}
        with pytest.raises(ValueError):
            QPoly.constant(0, 1)
        with pytest.raises(ValueError):
            QPoly.constant(2, "t")


class TestQPolyHash:
    @pytest.mark.parametrize("m", [1, 2, 3], ids=["m1", "m2", "m3"])
    def test_equal_polynomials_hash_alike_whatever_their_term_order(self, m):
        rng = random.Random(71 + m)
        for _ in range(40):
            f = qpoly(rng, m)
            terms = list(f.terms.items())
            rng.shuffle(terms)
            g = QPoly(m, dict(terms))
            assert g == f and hash(g) == hash(f)
            h = (f + 1) * (f + 1) - f * f - f - 1  # f again, its terms summed in another order
            assert h == f and hash(h) == hash(f)
            assert f - h == QPoly.zero(m) == 0 and hash(f - h) == hash(QPoly.zero(m)) == hash(0)

    def test_a_constant_hashes_like_the_number_it_equals(self):
        for m in (1, 2, 3):
            for c in (0, 5, -7, Fraction(-3, 4), Fraction(2**70, 3)):
                f = QPoly.constant(m, c)
                assert f == c and hash(f) == hash(c)
        assert QPoly.zero(2) == 0 and hash(QPoly.zero(2)) == hash(0)

    def test_a_hash_is_worked_out_once_per_object(self, monkeypatch):
        worked = []
        value_hash = QPoly._value_hash
        monkeypatch.setattr(QPoly, "_value_hash", lambda f: worked.append(f) or value_hash(f))
        f, g = parse_poly("t^2 - 3*u/4", 2), parse_poly("-3*u/4 + t^2", 2)
        assert hash(f) == hash(f) == hash(g) == hash(g) and f is not g
        assert {f: 1}[g] == 1 and len(worked) == 2 and worked[0] is f and worked[1] is g


class TestPowerCap:
    """A power whose int could pass MAX_POWER_BITS bits is refused before it is built."""

    def test_the_bound_is_k_times_the_bit_length(self, monkeypatch):
        monkeypatch.setattr(series, "MAX_POWER_BITS", 64)
        for c, k in ((3, 32), (-3, 32), (2**31, 2), (1, 10**30), (-1, 10**30 + 1), (0, 10**30)):
            assert series._raised(c, k) == c**k  # k * c.bit_length() <= 64, or |c| < 2
        for c, k in ((3, 33), (-2, 33), (2**32, 2), (3 * 2**64, 1)):
            with pytest.raises(OverflowError, match=rf"^cannot raise {c} to the power {k}: over 64 bits$"):
                series._raised(c, k)

    @pytest.mark.parametrize("text", ["(2*t)^K", "(t/2)^K", "(-2*t*u/3)^K"])
    def test_parsed_and_computed_powers_of_one_term_are_refused(self, text):
        K = 2**40
        with pytest.raises(OverflowError, match=f"to the power {K}: over {series.MAX_POWER_BITS} bits"):
            parse_rational(text.replace("K", str(K)), 2)
        with pytest.raises(OverflowError, match=f"to the power {K}: over {series.MAX_POWER_BITS} bits"):
            parse_rational(text.replace("^K", ""), 2) ** K
        for f in (QPoly.constant(2, Fraction(1, 2)), parse_poly("2*t", 2)):
            with pytest.raises(OverflowError, match=f"to the power {K}"):
                f**K
        assert parse_poly(f"-t^{K}", 2) == -(parse_poly("t", 2) ** K)


class TestKeptSquare:
    """f * f is kept on f, so every RationalFunction over one den shares one den^2."""

    @pytest.mark.parametrize("m", [1, 2, 3], ids=["m1", "m2", "m3"])
    def test_a_square_is_made_once_and_kept(self, m, monkeypatch):
        rng = random.Random(229 + m)
        products = []
        product = series._product
        monkeypatch.setattr(series, "_product", lambda f, g: products.append(1) or product(f, g))
        for _ in range(20):
            f = qpoly(rng, m)
            products.clear()
            square = f * f
            assert square is f * f and len(products) == 1
            assert canonical(square) and square == f**2 == f * QPoly(m, f.terms)

    @pytest.mark.parametrize("m", [2, 3], ids=["m2", "m3"])
    def test_rational_functions_over_one_den_share_its_square(self, m):
        rng = random.Random(233 + m)
        for _ in range(20):
            d = qpoly(rng, m)
            p, q, r = (RationalFunction(qpoly(rng, m), d) for _ in range(3))
            assert p.partial(0).den is q.partial(0).den is r.partial(m - 1).den is d * d
            assert (p + q).den is (q + r).den is d * d
            assert (p + q).partial(0).den is (q + r).partial(0).den is (d * d) * (d * d)


class TestPartialMemo:
    """RationalFunction.partial keeps its results on the value, whose num and den are read-only."""

    @staticmethod
    def same_representation(got, want):
        return got.num == want.num and got.den == want.den

    @pytest.mark.parametrize("m", [2, 3], ids=["m2", "m3"])
    def test_a_warm_partial_is_the_quotient_rule(self, m):
        rng = random.Random(83 + m)
        for trial in range(40):
            q = rational(rng, m)
            directions = list(range(m)) if trial % 2 else list(reversed(range(m)))
            first = {k: q.partial(k) for k in directions}
            for k in reversed(directions):  # each direction asked again, in the other order
                assert q.partial(k) is first[k]
            for k, got in first.items():
                want = quotient_partial(q, k)
                assert self.same_representation(got, want)
                for j in directions:  # a result keeps its own derivatives
                    assert got.partial(j) is got.partial(j)
                    assert self.same_representation(got.partial(j), quotient_partial(want, j))

    def test_num_and_den_cannot_be_rebound_under_the_memo(self):
        q = rf("t/(t+u)")
        old = q.partial(0)
        num, den = q.num, q.den
        for side, text in (("num", "t^2"), ("den", "u"), ("num", "t")):
            with pytest.raises(AttributeError):
                setattr(q, side, parse_poly(text, 2))  # the last is equal, but another object
        assert q.num is num and q.den is den
        assert q.partial(0) is old and self.same_representation(old, quotient_partial(q, 0))
        with pytest.raises(ValueError, match="direction"):
            q.partial(False)  # equal to 0, whose result is kept, but refused all the same


class TestRationalFunction:
    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            RationalFunction(QPoly.one(2), QPoly.zero(2))

    def test_equality_cross_multiplied(self):
        assert rf("t/(t+u)") == rf("(t^2)/(t^2+t*u)")

    def test_scalar_equality(self):
        assert rf("(t+u)/(t+u)") == 1

    def test_quotient_rule(self):
        one_over_t = parse_rational("1/t", 1)
        assert one_over_t.partial(0) == parse_rational("-1/(t^2)", 1)

    def test_division(self):
        q = rf("t/(t+u)") / rf("t/1")
        assert q == rf("1/(t+u)")
        with pytest.raises(ZeroDenominator):
            rf("t") / rf("0")

    def test_inverse_power(self):
        q = rf("t/(t+u)")
        assert q**-1 == rf("(t+u)/t")

    @pytest.mark.parametrize("m", [2, 3], ids=["m2", "m3"])
    def test_arithmetic_results_are_canonical(self, m):
        # these results bypass RationalFunction's constructor, so they must
        # already be what it builds from their num and den
        rng = random.Random(47 + m)
        for _ in range(40):
            p, q, f = rational(rng, m), rational(rng, m), qpoly(rng, m)
            c = rng.choice(NONZERO)
            for h in (p + q, p - q, -p, p * q, p / q, p**2, p**-1, p**0, p.partial(0),
                      p.partial(m - 1), p + c, c * p, p * f, f - p, p / c):
                assert same_as_public(h)
            assert same_as_public(RationalFunction.constant(m, c))

    @pytest.mark.parametrize("m", [2, 3], ids=["m2", "m3"])
    def test_scalar_product_keeps_the_denominator(self, m):
        rng = random.Random(67 + m)
        for _ in range(40):
            p = rational(rng, m)
            for c in (rng.choice(NONZERO), Fraction(rng.choice(NONZERO), 5), 0):
                old = p * RationalFunction.constant(m, c)
                for h in (p * c, c * p):
                    assert same_as_public(h)
                    assert h == old
                    assert (h.num.terms, h.den.terms) == (old.num.terms, old.den.terms)
                    assert h.den is p.den

    def test_as_qpoly(self):
        assert rf("(t^2+t)/2").as_qpoly() == parse_poly("(t^2+t)/2")
        with pytest.raises(ValueError):
            rf("t/u").as_qpoly()


class TestTrop:
    def test_three_vertex_support(self):
        assert trop_poly(parse_poly("t^2 + t*u + u^3")) == VertexPoly(
            2, [(2, 0), (1, 1), (0, 3)]
        )

    def test_constant(self):
        assert trop_poly(parse_poly("1", 2)) == VertexPoly.one(2)

    def test_zero(self):
        assert trop_poly(QPoly.zero(2)).is_zero

    def test_example_denominator(self):
        assert trop_poly(parse_poly("t+u")) == VertexPoly(2, [(1, 0), (0, 1)])

    def test_fraction(self):
        got = trop_frac(rf("t/(t+u)"))
        assert got.num == VertexPoly(2, [(1, 0)])
        assert got.den == VertexPoly(2, [(1, 0), (0, 1)])

    def test_self_quotient_is_one(self):
        rng = random.Random(42)
        for _ in range(30):
            f = qpoly(rng, 2)
            assert trop_frac(RationalFunction(f, f)) == VertexFraction.one(2)

    def test_difference_of_squares(self):
        got = trop_frac(rf("(t*u)/(t^2-u^2)"))
        assert got.num == VertexPoly(2, [(1, 1)])
        assert got.den == VertexPoly(2, [(2, 0), (0, 2)])

    def test_multiplicative(self):
        rng = random.Random(43)
        for _ in range(100):
            p, q = rational(rng, 2), rational(rng, 2)
            assert trop_frac(p * q) == trop_frac(p) * trop_frac(q)

    def test_poly_multiplicative_m3(self):
        rng = random.Random(46)
        for _ in range(100):
            f, g = qpoly(rng, 3), qpoly(rng, 3)
            assert trop_poly(f * g) == trop_poly(f) * trop_poly(g)

    def test_subadditive(self):
        rng = random.Random(44)
        for _ in range(100):
            p, q = rational(rng, 2), rational(rng, 2)
            assert trop_frac(p + q) <= trop_frac(p) + trop_frac(q)

    def test_representative_independent(self):
        rng = random.Random(45)
        for _ in range(50):
            p = rational(rng, 2)
            h = qpoly(rng, 2)
            scaled = RationalFunction(p.num * h, p.den * h)
            assert trop_frac(p) == trop_frac(scaled)


class TestUnitBall:
    def test_example_coefficient(self):
        assert in_unit_ball(rf("t/(t+u)"))

    def test_reciprocal_outside(self):
        assert not in_unit_ball(rf("1/t"))

    def test_m1_series_ring(self):
        # one variable: inside the ball means ord(num) >= ord(den)
        assert in_unit_ball(parse_rational("(t^2+t^5)/t", 1))
        assert not in_unit_ball(parse_rational("t/(t^2+t^5)", 1))

    @pytest.mark.parametrize("m", [2, 3, 4], ids=["m2", "m3", "m4"])
    def test_matches_the_vertex_fraction_route(self, m):
        rng = random.Random(251 + m)
        cases = [RationalFunction(QPoly.zero(m), qpoly(rng, m)), qpoly(rng, m)]
        for _ in range(60):
            cases.append(unit_ball_fraction(rng, m))
            cases.append(rational(rng, m))
        outcomes = set()
        for q in cases:
            want = trop_frac(q).in_unit_ball()
            assert in_unit_ball(q) is want
            outcomes.add(want)
        assert outcomes == {True, False}

    def test_the_verdict_is_kept_and_num_and_den_cannot_be_rebound(self, monkeypatch):
        extractions = []

        class Counted(VertexPoly):
            def __init__(self, m, points):
                extractions.append(m)
                super().__init__(m, points)

        monkeypatch.setattr(series, "VertexPoly", Counted)
        q = rf("t/(t+u)")
        assert in_unit_ball(q) and len(extractions) == 2
        assert in_unit_ball(q) and residue(q, T_LEX) == 1 and len(extractions) == 2
        with pytest.raises(AttributeError):
            q.num = parse_poly("t", 2)
        with pytest.raises(AttributeError):
            q.den = parse_poly("t*u", 2)  # would take q out of the ball
        assert in_unit_ball(q) and residue(q, T_LEX) == 1 and len(extractions) == 2
        outside = rf("t/(t*u)")
        assert not in_unit_ball(outside) and len(extractions) == 4
        with pytest.raises(NotInUnitBall):
            residue(outside, T_LEX)
        assert len(extractions) == 4

    def test_units(self):
        assert is_unit(rf("(t+u)/(2*t+3*u)"))
        assert is_unit(rf("1/2"))
        assert not is_unit(rf("t/(t+u)"))

    def test_unit_iff_divides_one(self):
        rng = random.Random(51)
        for _ in range(100):
            q = unit_ball_fraction(rng, 2, nonzero=True)
            assert is_unit(q) == divides_in_unit_ball(q, RationalFunction.constant(2, 1))


class TestDivides:
    def test_interior_multiple(self):
        assert divides_in_unit_ball(parse_poly("t^2+u^2"), parse_poly("t*u"))

    def test_zero_always_divisible(self):
        assert divides_in_unit_ball(parse_poly("t", 2), QPoly.zero(2))

    def test_one_not_divisible_by_t(self):
        assert not divides_in_unit_ball(parse_poly("t", 2), parse_poly("1", 2))

    def test_zero_divides_only_zero(self):
        assert divides_in_unit_ball(QPoly.zero(2), QPoly.zero(2))
        assert not divides_in_unit_ball(QPoly.zero(2), parse_poly("t", 2))

    def test_precondition(self):
        with pytest.raises(NotInUnitBall):
            divides_in_unit_ball(rf("1/t"), rf("t"))

    def test_matches_explicit_quotient(self):
        rng = random.Random(52)
        for _ in range(100):
            a = unit_ball_fraction(rng, 2, nonzero=True)
            b = unit_ball_fraction(rng, 2)
            assert divides_in_unit_ball(a, b) == in_unit_ball(b / a)


class TestBezout:
    def test_cancellation_needs_two(self):
        assert bezout_witness(rf("t"), rf("-t+u")) == 2

    def test_no_cancellation(self):
        assert bezout_witness(rf("t"), rf("t")) == 1

    def test_first_multiplier_fails(self):
        # t-u + 1*u collapses to t, so the witness is 2
        assert bezout_witness(rf("t-u"), rf("u")) == 2

    def test_zero_input(self):
        with pytest.raises(ZeroTropicalValue):
            bezout_witness(rf("0"), rf("t"))

    @pytest.mark.parametrize(
        "phi, psi, witness",
        [("t", "t", 1), ("t", "-t+u", 2), ("-t-2*u", "t+u", 3), ("t/(t+u)", "(u-t)/(t+u)", 2)],
    )
    def test_the_cross_products_are_formed_once(self, monkeypatch, phi, psi, witness):
        # phi.num * psi.den and psi.num * phi.den, whatever M is; each M adds a sum
        products = []
        mul = QPoly.__mul__

        def counting(self, other):
            products.append(isinstance(other, QPoly))
            return mul(self, other)

        phi, psi = rf(phi), rf(psi)
        monkeypatch.setattr(QPoly, "__mul__", counting)
        assert bezout_witness(phi, psi) == witness
        assert products.count(True) == 2

    def test_postcondition_and_bound(self):
        rng = random.Random(53)
        for _ in range(100):
            phi, psi = rational(rng, 2), rational(rng, 2)
            target = trop_frac(phi) + trop_frac(psi)
            m_found = bezout_witness(phi, psi)
            assert trop_frac(phi + m_found * psi) == target
            assert m_found <= len((trop_frac(phi) + trop_frac(psi)).num.points) + 1


class TestResidue:
    def test_t_branch(self):
        assert residue(rf("t/(t+u)"), T_LEX) == 1

    def test_u_branch(self):
        assert residue(rf("t/(t+u)"), U_LEX) == 0

    def test_constant(self):
        assert residue(rf("-7/3"), T_LEX) == Fraction(-7, 3)

    def test_outside_ball(self):
        with pytest.raises(NotInUnitBall):
            residue(rf("1/t"), T_LEX)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            residue(parse_rational("t1/(t1+t2+t3)", 3), T_LEX)

    def test_ring_homomorphism(self):
        rng = random.Random(61)
        orders = [T_LEX, U_LEX, order_standard("grevlex", 2), matrix_order(rng, 2)]
        for order in orders:
            for _ in range(100):
                p = unit_ball_fraction(rng, 2)
                q = unit_ball_fraction(rng, 2)
                assert residue(p + q, order) == residue(p, order) + residue(q, order)
                assert residue(p * q, order) == residue(p, order) * residue(q, order)

    @pytest.mark.parametrize("m", [3, 4], ids=["m3", "m4"])
    def test_ring_homomorphism_under_matrix_orders(self, m):
        rng = random.Random(63 + m)
        for _ in range(4):
            order = matrix_order(rng, m)
            for _ in range(12):
                p = unit_ball_fraction(rng, m, max_terms=3, hi=3)
                q = unit_ball_fraction(rng, m, max_terms=3, hi=3)
                assert residue(p + q, order) == residue(p, order) + residue(q, order)
                assert residue(p * q, order) == residue(p, order) * residue(q, order)

    def test_representative_independent(self):
        rng = random.Random(62)
        for _ in range(100):
            p = unit_ball_fraction(rng, 2)
            h = qpoly(rng, 2)
            scaled = RationalFunction(p.num * h, p.den * h)
            assert residue(p, T_LEX) == residue(scaled, T_LEX)


class TestMaxIdeal:
    def test_example_membership(self):
        assert max_ideal_member(rf("t/(t+u)"), U_LEX)
        assert not max_ideal_member(rf("t/(t+u)"), T_LEX)

    def test_units_never_members(self):
        rng = random.Random(63)
        for order in (T_LEX, U_LEX, order_standard("grlex", 2)):
            assert not max_ideal_member(rf("(t+u)/(2*t+3*u)"), order)
            assert not max_ideal_member(rf("1/2"), order)
            assert not max_ideal_member(rf("(3*t*u)/(t*u)"), order)

    def test_irrelevant_in_every_ideal(self):
        # strictly-below-1 elements land in the ideal no matter the order
        rng = random.Random(64)
        q = rf("(t*u)/(t^2+u^2)")
        for _ in range(20):
            assert max_ideal_member(q, matrix_order(rng, 2))


class TestOrderRecovery:
    def test_lex_pair(self):
        oracle = lambda q: max_ideal_member(q, T_LEX)
        assert order_from_membership(oracle, (1, 0), (0, 1)) == LT
        assert order_from_membership(oracle, (0, 1), (1, 0)) == GT

    def test_non_integer_exponent_rejected(self):
        oracle = lambda q: max_ideal_member(q, T_LEX)
        with pytest.raises(ValueError, match="integers"):
            order_from_membership(oracle, (1.5, 0), (0, 1))

    def test_equal(self):
        oracle = lambda q: max_ideal_member(q, T_LEX)
        assert order_from_membership(oracle, (2, 3), (2, 3)) == EQ

    def test_grevlex_round_trip_exhaustive(self):
        import itertools

        order = order_standard("grevlex", 2)
        oracle = lambda q: max_ideal_member(q, order)
        points = [
            e for e in itertools.product(range(6), repeat=2) if sum(e) <= 5
        ]
        for I in points:
            for J in points:
                assert order_from_membership(oracle, I, J) == order.compare(I, J)

    def test_inconsistent_oracles(self):
        with pytest.raises(InconsistentOracle):
            order_from_membership(lambda q: True, (1, 0), (0, 1))
        with pytest.raises(InconsistentOracle):
            order_from_membership(lambda q: False, (1, 0), (0, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            order_from_membership(lambda q: True, (1, 0), (0, 1, 0))


class TestSeparatingConstants:
    def test_two_vertices(self):
        q = rf("(t+2*u)/(t+u)")
        assert separating_constants(q) == (Fraction(1), Fraction(2))
        product = (q - 1) * (q - 2)
        assert product == rf("(-t*u)/((t+u)^2)")
        assert trop_frac(product).absorbed_by(VertexFraction.one(2))

    def test_already_small(self):
        assert separating_constants(rf("(t*u)/(t^2+u^2)")) == (Fraction(0),)

    def test_constant(self):
        q = rf("5/1")
        assert separating_constants(q) == (Fraction(5),)
        assert (q - 5).is_zero

    def test_outside_ball(self):
        with pytest.raises(NotInUnitBall):
            separating_constants(rf("1/t"))

    def test_product_always_drops(self):
        rng = random.Random(71)
        one = VertexFraction.one(2)
        for _ in range(100):
            q = unit_ball_fraction(rng, 2)
            product = RationalFunction.constant(2, 1)
            for alpha in separating_constants(q):
                product = product * (q - alpha)
            assert trop_frac(product).absorbed_by(one)


    @pytest.mark.parametrize("m", [2, 3])
    def test_the_denominator_is_extracted_once(self, m, monkeypatch):
        # trop_frac extracts the numerator and the denominator, and the
        # constants read the denominator's vertices from it: 2 extractions, was 3
        calls = []
        monkeypatch.setattr("tropdiff.series.trop_poly", lambda f: calls.append(f) or trop_poly(f))
        rng = random.Random(73 + m)
        on_the_boundary = 0
        for _ in range(100):
            q = unit_ball_fraction(rng, m)
            calls.clear()
            got = separating_constants(q)
            assert len(calls) == 2
            den = trop_poly(q.den)
            if VertexFraction(trop_poly(q.num), den).absorbed_by(VertexFraction.one(m)):
                assert got == (Fraction(0),)
                continue
            on_the_boundary += 1
            vertices = sorted(den.points, reverse=True)
            assert got == tuple(q.num.coeff(v) / q.den.coeff(v) for v in vertices)
        assert on_the_boundary > 5

def fraction_qpoly(rng, m, max_terms=4, hi=4):
    """Random nonzero polynomial whose coefficients have assorted denominators."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            c = Fraction(rng.choice(NONZERO) * rng.randint(1, 9), rng.randint(1, 12))
            terms[exponent(rng, m, hi)] = c
        f = QPoly(m, terms)
        if not f.is_zero:
            return f


def scalars(rng):
    return (
        rng.choice(NONZERO),
        Fraction(rng.choice(NONZERO), rng.randint(2, 12)),
        -Fraction(rng.randint(1, 9), rng.randint(2, 12)),
        0,
        Fraction(0),
    )


class TestAgainstFractionOracle:
    """QPoly's int arithmetic gives the terms of the Fraction arithmetic it replaced,
    and every result is in lowest terms."""

    def check(self, got, want):
        assert canonical(got)
        assert got.terms == want.terms

    @pytest.mark.parametrize("m", [2, 3], ids=["m2", "m3"])
    def test_ring_operations(self, m):
        rng = random.Random(137 + m)
        for _ in range(60):
            f, g = fraction_qpoly(rng, m), fraction_qpoly(rng, m)
            F, G = FractionQPoly.of(f), FractionQPoly.of(g)
            for op in (
                lambda a, b: a + b,
                lambda a, b: a - b,
                lambda a, b: b - a,
                lambda a, b: a - a,
                lambda a, b: -a,
                lambda a, b: a * b,
                lambda a, b: a * (a - a),
                lambda a, b: (a + b) * (a - b),
            ):
                self.check(op(f, g), op(F, G))

    @pytest.mark.parametrize("m", [2, 3], ids=["m2", "m3"])
    def test_scalars_on_both_sides(self, m):
        rng = random.Random(139 + m)
        for _ in range(60):
            f = fraction_qpoly(rng, m)
            F = FractionQPoly.of(f)
            for c in scalars(rng):
                for op in (
                    lambda a: a * c,
                    lambda a: c * a,
                    lambda a: a + c,
                    lambda a: c + a,
                    lambda a: a - c,
                    lambda a: c - a,
                ):
                    self.check(op(f), op(F))
                if c:
                    self.check(f / c, F / c)

    @pytest.mark.parametrize("m", [2, 3], ids=["m2", "m3"])
    def test_powers(self, m):
        rng = random.Random(149 + m)
        for _ in range(30):
            multi = fraction_qpoly(rng, m, hi=2)
            single = QPoly(m, {exponent(rng, m): scalars(rng)[rng.randrange(3)]})
            for f in (single, multi):
                for k in range(5):
                    self.check(f**k, FractionQPoly.of(f) ** k)

    @pytest.mark.parametrize("m", [2, 3, 4], ids=["m2", "m3", "m4"])
    def test_derivatives(self, m):
        rng = random.Random(151 + m)
        for _ in range(60):
            f = fraction_qpoly(rng, m)
            F = FractionQPoly.of(f)
            J = exponent(rng, m, 3) if m < 4 else rng.choice(multi_indices(m, 4))
            self.check(f.deriv(J), F.deriv(J))
            for k in range(m):
                self.check(f.partial(k), F.partial(k))

    @pytest.mark.parametrize("m", [2, 3], ids=["m2", "m3"])
    def test_rational_function_arithmetic(self, m):
        # RationalFunction never reduces, so both give the same num and den
        def oracle(p):
            return RationalFunction._trusted(FractionQPoly.of(p.num), FractionQPoly.of(p.den))

        rng = random.Random(157 + m)
        for _ in range(40):
            p = RationalFunction(fraction_qpoly(rng, m, 3), fraction_qpoly(rng, m, 3))
            q = RationalFunction(fraction_qpoly(rng, m, 3), fraction_qpoly(rng, m, 3))
            P, Q = oracle(p), oracle(q)
            for op in (
                lambda a, b: a + b,
                lambda a, b: a - b,
                lambda a, b: a * b,
                lambda a, b: a / b,
                lambda a, b: a.partial(0),
                lambda a, b: b.partial(m - 1),
                lambda a, b: (a * b).partial(0),
            ):
                got, want = op(p, q), op(P, Q)
                self.check(got.num, want.num)
                self.check(got.den, want.den)

    @pytest.mark.parametrize("m", [1, 2, 3, 4], ids=["m1", "m2", "m3", "m4"])
    def test_sums_over_one_denominator_and_over_two(self, m):
        # one den object, an equal den, a distinct one and a cancelling
        # numerator: each sum has the num and den that three products give
        def oracle(p):
            return RationalFunction._trusted(FractionQPoly.of(p.num), FractionQPoly.of(p.den))

        rng = random.Random(197 + m)
        for _ in range(40):
            d = fraction_qpoly(rng, m, 3)
            p = RationalFunction(fraction_qpoly(rng, m, 3), d)
            for q in (
                RationalFunction(fraction_qpoly(rng, m, 3), d),
                RationalFunction(fraction_qpoly(rng, m, 3), QPoly(m, d.terms)),
                RationalFunction(fraction_qpoly(rng, m, 3), fraction_qpoly(rng, m, 3)),
                RationalFunction(-p.num, d),
            ):
                for got, want in ((p + q, oracle(p) + oracle(q)), (q + p, oracle(q) + oracle(p))):
                    self.check(got.num, want.num)
                    self.check(got.den, want.den)
                self.check((p - q).num, (oracle(p) - oracle(q)).num)
                if q.den == d:  # over the square that q's derivatives share
                    assert (p + q).den is q.partial(0).den is q.partial(m - 1).den
            assert p.partial(0).den is p.partial(m - 1).den

    def test_public_constructors_build_lowest_terms(self):
        assert canonical(QPoly(2, {(1, 0): Fraction(2, 6), (0, 1): Fraction(-4, 9)}))
        assert canonical(QPoly(2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(-1, 2)}) * 0)
        assert canonical(QPoly(2, {(1, 0): Fraction(3, 2), (0, 0): 0, (0, 1): 3}))
        assert canonical(QPoly.constant(3, Fraction(-10, 4)))
        assert canonical(QPoly.constant(3, 0))


class TestFractionText:
    """The coefficient text that jsonio writes is str(Fraction), byte for byte."""

    def test_seeded_values(self):
        rng = random.Random(163)
        pairs = [(0, 1), (0, 7), (5, 1), (-5, 1), (6, 4), (-6, 4)]
        pairs += [(2**64 + 1, 1), (-(2**70), 2**66)]
        for _ in range(300):
            c = rng.randint(-(2**80), 2**80)
            d = rng.choice((1, rng.randint(1, 50), rng.randint(2**64, 2**72)))
            g = rng.randint(1, 30)
            pairs += [(c, d), (c * g, d * g)]
        for c, d in pairs:
            assert fraction_text(c, d) == str(Fraction(c, d))

    def test_one_coefficient_sharing_a_factor_with_the_denominator(self):
        # stored as 1*t + 2*u over 6: the u coefficient is 2/6, written 1/3
        f = QPoly(2, {(1, 0): Fraction(1, 6), (0, 1): Fraction(1, 3)})
        assert f.text_terms() == [((0, 1), "1/3"), ((1, 0), "1/6")]
        assert [text for _, text in f.text_terms()] == [str(c) for _, c in sorted(f.terms.items())]


class TestText:
    """str of QPoly and RationalFunction is what the per-class signed-sum rule
    (helpers.qpoly_text) writes, and parse_rational reads it back."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_seeded_values_against_the_oracle(self, m):
        rng = random.Random(300 + m)
        terms, shapes = set(), set()
        for _ in range(200):
            q = texted_rational(rng, m)
            for f in (q.num, q.den):
                assert str(f) == qpoly_text(f)
                for e, c in f.terms.items():
                    terms.add((any(e), c < 0, abs(c) == 1, c.denominator > 1))
            assert str(q) == rational_text(q)
            assert parse_rational(str(q), m) == q
            shapes.add((q.is_zero, q.den == QPoly.one(m)))
        # with a monomial and without, each sign, a unit, another whole and a
        # fraction; a zero numerator, and a denominator of 1 and not
        for monomial in (False, True):
            for negative in (False, True):
                for unit, fraction in ((True, False), (False, False), (False, True)):
                    assert (monomial, negative, unit, fraction) in terms
        assert {(True, True), (False, False)} <= shapes
