import random

import pytest

from helpers import exponent
from tropdiff import (
    DimensionMismatch,
    VertexFraction,
    VertexPoly,
    ZeroDenominator,
    omega_chain,
    omega_witness,
    staircase_vertices_2d,
)


def vp(*points):
    return VertexPoly(2, points)


class TestExtraction:
    def test_midpoint_dropped(self):
        assert VertexPoly(2, [(2, 0), (1, 1), (0, 2)]) == vp((2, 0), (0, 2))

    def test_domination(self):
        assert VertexPoly(2, [(0, 0), (5, 7)]) == vp((0, 0))

    def test_below_the_segment_survives(self):
        got = VertexPoly(2, [(3, 0), (1, 1), (0, 3)])
        assert got == vp((3, 0), (1, 1), (0, 3))

    def test_empty(self):
        assert VertexPoly(2, []).is_zero

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(100):
            pts = [
                tuple(rng.randrange(9) for _ in range(2))
                for _ in range(rng.randint(1, 8))
            ]
            once = VertexPoly(2, pts)
            assert VertexPoly(2, once.points) == once

    def test_three_dimensional(self):
        # (1,1,1) is the midpoint of (2,0,2),(0,2,0) and must go
        got = VertexPoly(3, [(2, 0, 2), (1, 1, 1), (0, 2, 0)])
        assert got.points == ((0, 2, 0), (2, 0, 2))

    def test_negative_coordinates_rejected(self):
        with pytest.raises(ValueError):
            VertexPoly(2, [(1, -1)])

    def test_wrong_width_rejected(self):
        with pytest.raises(DimensionMismatch):
            VertexPoly(2, [(1, 0, 0)])

    def test_non_integer_coordinates_rejected(self):
        # int() would have kept (1, 0)
        with pytest.raises(ValueError, match=r"integers, got \(1\.5, 0\)"):
            VertexPoly(2, [(1.5, 0)])

    def test_non_integer_point_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            VertexPoly.point((2, 0.5))

    def test_empty_point_rejected(self):
        # a point with no coordinates would make a value of width 0
        with pytest.raises(ValueError, match="m must be a positive integer, got 0"):
            VertexPoly.point([])


class TestSemiringOps:
    def test_add_keeps_incomparable(self):
        assert vp((1, 0)) + vp((0, 1)) == vp((1, 0), (0, 1))

    def test_add_absorbs_dominated(self):
        assert vp((0, 0)) + vp((1, 1)) == vp((0, 0))

    def test_add_zero(self):
        a = vp((2, 1), (0, 3))
        assert VertexPoly.zero(2) + a == a

    def test_mul_translates(self):
        assert vp((1, 0)) * vp((1, 0), (0, 1)) == vp((2, 0), (1, 1))

    def test_mul_one(self):
        a = vp((2, 1), (0, 3))
        assert VertexPoly.one(2) * a == a

    def test_mul_zero_annihilates(self):
        assert (VertexPoly.zero(2) * vp((1, 0))).is_zero

    def test_square_drops_midpoint(self):
        a = vp((1, 0), (0, 1))
        assert a * a == vp((2, 0), (0, 2))
        assert a**2 == a * a

    def test_leq_interior_point(self):
        assert vp((1, 1)) <= vp((2, 0), (0, 2))

    def test_leq_zero_bottom(self):
        assert VertexPoly.zero(2) <= vp((1, 0))

    def test_leq_origin_not_below(self):
        assert not vp((0, 0)) <= vp((1, 0))

    def test_mismatched_m(self):
        with pytest.raises(DimensionMismatch):
            vp((1, 0)) + VertexPoly(3, [(1, 0, 0)])


class TestOpsAgainstTheConstructor:
    # + and * extract without checking their points again; they must give what
    # the checking constructor gives on the raw union and Minkowski sum
    @pytest.mark.parametrize("m", [2, 3, 4], ids=["m2", "m3", "m4"])
    def test_sum_and_product(self, m):
        rng = random.Random(271 + m)
        for _ in range(60):
            A = [exponent(rng, m, 5) for _ in range(rng.randint(0, 5))]
            B = [exponent(rng, m, 5) for _ in range(rng.randint(0, 5))]
            a, b = VertexPoly(m, A), VertexPoly(m, B)
            assert (a + b).points == VertexPoly(m, A + B).points
            sums = [tuple(x + y for x, y in zip(p, q)) for p in A for q in B]
            assert (a * b).points == VertexPoly(m, sums).points

    @pytest.mark.parametrize("m", [2, 3, 4], ids=["m2", "m3", "m4"])
    def test_constructor_still_checks_every_point(self, m):
        good = (1,) * m
        with pytest.raises(ValueError, match="nonnegative"):
            VertexPoly(m, [good, (-1,) + (0,) * (m - 1)])
        with pytest.raises(DimensionMismatch):
            VertexPoly(m, [good, (0,) * (m + 1)])
        with pytest.raises(ValueError, match="integers"):
            VertexPoly(m, [good, (0.5,) + (0,) * (m - 1)])
        with pytest.raises(ValueError, match="integers"):
            VertexPoly(m, [good, (True,) + (0,) * (m - 1)])


    @pytest.mark.parametrize("m", [2, 3, 4], ids=["m2", "m3", "m4"])
    def test_fraction_ops_build_what_the_constructor_accepts(self, m):
        # VertexFraction's +, * and ** skip the constructor's checks
        rng = random.Random(311 + m)

        def vertex_set(least):
            return VertexPoly(m, [exponent(rng, m, 4) for _ in range(rng.randint(least, 3))])

        for _ in range(40):
            x = VertexFraction(vertex_set(0), vertex_set(1))
            y = VertexFraction(vertex_set(0), vertex_set(1))
            k = rng.randrange(4)
            for h, num, den in (
                (x + y, x.num * y.den + y.num * x.den, x.den * y.den),
                (x * y, x.num * y.num, x.den * y.den),
                (x**k, x.num**k, x.den**k),
            ):
                public = VertexFraction(num, den)
                assert (h.num.points, h.den.points) == (public.num.points, public.den.points)
                assert h.num.m == h.den.m == m and not h.den.is_zero

    @pytest.mark.parametrize("m", [2, 3, 4], ids=["m2", "m3", "m4"])
    def test_fraction_constructor_still_checks(self, m):
        one = VertexPoly.one(m)
        with pytest.raises(DimensionMismatch):
            VertexFraction(one, VertexPoly.one(m + 1))
        with pytest.raises(ZeroDenominator):
            VertexFraction(one, VertexPoly.zero(m))
        with pytest.raises(DimensionMismatch):
            VertexFraction.one(m) + VertexFraction.one(m + 1)
        with pytest.raises(DimensionMismatch):
            VertexFraction.one(m) * VertexFraction.one(m + 1)


class TestSemiringLaws:
    def random_vp(self, rng, m=2):
        if rng.random() < 0.1:
            return VertexPoly.zero(m)
        return VertexPoly(
            m,
            [
                tuple(rng.randrange(7) for _ in range(m))
                for _ in range(rng.randint(1, 5))
            ],
        )

    @pytest.mark.parametrize("m, draws", [(2, 300), (3, 80), (4, 20)], ids=["m2", "m3", "m4"])
    def test_axioms(self, m, draws):
        rng = random.Random(11)
        zero, one = VertexPoly.zero(m), VertexPoly.one(m)
        for _ in range(draws):
            a, b, c = (self.random_vp(rng, m) for _ in range(3))
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a + a == a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + zero == a
            assert a * one == a
            assert (a * zero).is_zero
            product = one  # the k-fold product is the oracle for a ** k
            for k in range(4):
                assert a**k == product
                product = product * a

    def test_cancellative(self):
        rng = random.Random(12)
        for _ in range(300):
            a = self.random_vp(rng)
            if a.is_zero:
                continue
            b, c = self.random_vp(rng), self.random_vp(rng)
            if a * b == a * c:
                assert b == c

    def test_order_compatible_with_ops(self):
        rng = random.Random(13)
        for _ in range(200):
            a, b, c = (self.random_vp(rng) for _ in range(3))
            if a <= b:
                assert a + c <= b + c
                assert a * c <= b * c

    def test_partial_order(self):
        rng = random.Random(14)
        for _ in range(200):
            a, b = self.random_vp(rng), self.random_vp(rng)
            assert a <= a
            if a <= b and b <= a:
                assert a == b


class TestStaircaseOracle:
    def test_matches_simplex_route(self):
        rng = random.Random(21)
        for _ in range(500):
            pts = [
                (rng.randrange(21), rng.randrange(21))
                for _ in range(rng.randint(1, 12))
            ]
            assert VertexPoly(2, pts).points == staircase_vertices_2d(pts)

    def test_collinear_points(self):
        assert staircase_vertices_2d([(0, 2), (1, 1), (2, 0)]) == ((0, 2), (2, 0))

    def test_single(self):
        assert staircase_vertices_2d([(4, 5)]) == ((4, 5),)

    def test_non_integer_coordinates_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            staircase_vertices_2d([(0, 3), (1.9, 0)])

    def test_negative_coordinates_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            staircase_vertices_2d([(-1, 3), (2, 0)])

    def test_wrong_width_rejected(self):
        points = [(1, 2, 3), (0, 5, 1)]
        with pytest.raises(DimensionMismatch):
            staircase_vertices_2d(points)
        with pytest.raises(DimensionMismatch):
            staircase_vertices_2d(p for p in points)
        assert staircase_vertices_2d(p for p in [(3, 0), (0, 3)]) == ((0, 3), (3, 0))


class TestFractions:
    def test_common_factor_cancels(self):
        rng = random.Random(31)
        for _ in range(100):
            a = vp((1, 0), (0, 2))
            b = vp((0, 0), (1, 1))
            c = VertexPoly(
                2,
                [
                    tuple(rng.randrange(5) for _ in range(2))
                    for _ in range(rng.randint(1, 4))
                ],
            )
            assert VertexFraction(a, b) == VertexFraction(a * c, b * c)

    def test_one_neutral(self):
        x = VertexFraction(vp((1, 0)), vp((0, 1), (2, 0)))
        assert x * VertexFraction.one(2) == x

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            VertexFraction(vp((1, 0)), VertexPoly.zero(2))

    def test_unit_ball(self):
        assert VertexFraction.one(2).in_unit_ball()
        assert not VertexFraction(vp((0, 0)), vp((1, 0))).in_unit_ball()

    def test_add_formula(self):
        x = VertexFraction(vp((1, 0)), vp((0, 1)))
        y = VertexFraction(vp((0, 0)), vp((1, 1)))
        total = x + y
        assert total.num == vp((1, 0)) * vp((1, 1)) + vp((0, 0)) * vp((0, 1))
        assert total.den == vp((0, 1)) * vp((1, 1))


class TestIrrelevance:
    def test_interior_fraction(self):
        x = VertexFraction(vp((1, 1)), vp((2, 0), (0, 2)))
        assert x.absorbed_by(VertexFraction.one(2))

    def test_never_self(self):
        x = VertexFraction(vp((1, 0)), vp((0, 1)))
        assert not x.absorbed_by(x)

    def test_zero_below_everything(self):
        y = VertexFraction(vp((1, 0)), vp((0, 1)))
        assert VertexFraction.zero(2).absorbed_by(y)

    def test_requires_leq(self):
        # supports disjoint but not comparable: no absorption either way
        x = VertexFraction(vp((1, 0)), VertexPoly.one(2))
        y = VertexFraction(vp((0, 1)), VertexPoly.one(2))
        assert not x.absorbed_by(y)
        assert not y.absorbed_by(x)


class TestOmegaChain:
    def test_first_witness(self):
        w = omega_witness(1)
        assert w.num == vp((3, 0), (0, 3))
        assert w.den == vp((3, 0), (1, 1), (0, 3))

    def test_all_in_unit_ball(self):
        for w in omega_chain(10):
            assert w.in_unit_ball()

    def test_strictly_increasing(self):
        chain = omega_chain(10)
        for a, b in zip(chain, chain[1:]):
            assert a <= b
            assert not b <= a

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            omega_witness(0)


class TestPresentation:
    def test_str_largest_first(self):
        assert str(vp((0, 3), (1, 1), (3, 0))) == "{(3,0), (1,1), (0,3)}"

    def test_str_zero(self):
        assert str(VertexPoly.zero(2)) == "0"

    def test_fraction_str(self):
        w = omega_witness(1)
        assert str(w) == "{(3,0), (0,3)} / {(3,0), (1,1), (0,3)}"
