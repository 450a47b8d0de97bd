import random
from fractions import Fraction

import pytest

from helpers import matrix_order, qpoly, rational, unit_ball_fraction
from tropdiff import (
    EQ,
    GT,
    LT,
    DimensionMismatch,
    InconsistentOracle,
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
    order_from_membership,
    order_standard,
    order_validate,
    parse_poly,
    parse_rational,
    residue,
    separating_constants,
    trop_frac,
    trop_poly,
)

T_LEX = order_standard("lex", 2)
U_LEX = order_validate([[1, 0], [0, 1]])  # u smallest


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

    def test_arithmetic_results_are_canonical(self):
        # these results bypass the public constructor's checks, so they must
        # already be what QPoly(m, terms) would build from their terms
        rng = random.Random(43)
        for _ in range(100):
            f, g = qpoly(rng, 2), qpoly(rng, 2)
            for h in (f + g, f - f, -f, f * g, f.deriv((1, 0))):
                assert h.terms == QPoly(2, h.terms).terms
                assert all(isinstance(c, Fraction) for c in h.terms.values())


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
