import random
import re
from fractions import Fraction

import pytest

from helpers import (
    NONZERO,
    FractionQPoly,
    canonical,
    exponent,
    matrix_order,
    qpoly,
    rational,
    same_as_public,
    unit_ball_fraction,
)
from tropdiff import (
    EQ,
    GT,
    LT,
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
from tropdiff.series import fraction_text

T_LEX = order_standard("lex", 2)
U_LEX = MonomialOrder([[1, 0], [0, 1]])  # u smallest


def rf(text, m=2):
    return parse_rational(text, m)


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
        def refuse(self, other):
            raise AssertionError("a one-term power must not multiply")

        monkeypatch.setattr(QPoly, "__mul__", refuse)
        k = 10**6
        h = QPoly(2, {(1, 2): Fraction(-2, 3)}) ** k
        [(e, c)] = h.terms.items()
        assert e == (k, 2 * k) and (c.numerator, c.denominator) == (2**k, 3**k)
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

    def test_constant_checks_its_input(self):
        assert QPoly.constant(3, Fraction(1, 2)).terms == QPoly(3, {(0, 0, 0): Fraction(1, 2)}).terms
        assert QPoly.constant(2, 0).terms == QPoly(2, {(0, 0): 0}).terms == {}
        with pytest.raises(ValueError):
            QPoly.constant(0, 1)
        with pytest.raises(ValueError):
            QPoly.constant(2, "t")


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
