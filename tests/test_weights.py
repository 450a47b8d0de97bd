import itertools
import random

import pytest

from helpers import weight
from tropdiff import (
    BooleanWeight,
    DimensionMismatch,
    SubstitutionKernel,
    TropdiffError,
    VertexPoly,
    parse_poly,
    substitution_poly,
    trop_poly,
)

COF11 = BooleanWeight.cofinite(2, [(1, 1)])


class TestConstruction:
    def test_cofinite_nothing_excluded_is_full(self):
        assert BooleanWeight.cofinite(2, []) == BooleanWeight.full(2)

    def test_membership(self):
        assert (0, 0) in COF11
        assert (1, 1) not in COF11
        assert (5, 7) in COF11
        fin = BooleanWeight.finite(2, [(1, 0)])
        assert (1, 0) in fin
        assert (0, 0) not in fin
        assert (3, 3) in BooleanWeight.full(2)

    def test_empty(self):
        assert BooleanWeight.finite(2, []).is_empty
        assert not COF11.is_empty

    def test_validation(self):
        with pytest.raises(DimensionMismatch):
            BooleanWeight.finite(2, [(1, 2, 3)])
        with pytest.raises(ValueError):
            BooleanWeight.finite(2, [(-1, 0)])
        with pytest.raises(ValueError):
            BooleanWeight(2, "half-open", frozenset())

    def test_non_integer_points_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            BooleanWeight.cofinite(2, [(1.5, 1)])
        with pytest.raises(ValueError, match="integers"):
            (1.5, 1) in COF11


class TestShift:
    def test_excluded_point_moves(self):
        assert COF11.shift((1, 1)) == BooleanWeight.cofinite(2, [(0, 0)])

    def test_non_integer_shift_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            COF11.shift((0.5, 1))

    def test_negative_shift_rejected(self):
        # N^2 minus {(1,0)} would contain (0,0), but (0,0) + (-1,0) is not in N^2
        with pytest.raises(ValueError, match="nonnegative"):
            BooleanWeight.cofinite(2, [(0, 0)]).shift((-1, 0))

    def test_shift_past_exclusions_gives_full(self):
        assert COF11.shift((2, 1)) == BooleanWeight.full(2)

    def test_zero_shift(self):
        assert COF11.shift((0, 0)) == COF11

    def test_finite_shrinks(self):
        fin = BooleanWeight.finite(2, [(2, 1), (0, 3)])
        assert fin.shift((1, 0)) == BooleanWeight.finite(2, [(1, 1)])
        assert fin.shift((3, 0)).is_empty

    def test_pointwise_agreement(self):
        rng = random.Random(91)
        for _ in range(200):
            w = weight(rng, 2)
            J = (rng.randint(0, 3), rng.randint(0, 3))
            shifted = w.shift(J)
            for I in itertools.product(range(6), repeat=2):
                moved = tuple(i + j for i, j in zip(I, J))
                assert (I in shifted) == (moved in w)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            COF11.shift((1, 1, 1))


class TestVertices:
    def test_full(self):
        assert BooleanWeight.full(2).vertices() == VertexPoly.one(2)

    def test_cofinite_missing_origin(self):
        got = BooleanWeight.cofinite(2, [(0, 0)]).vertices()
        assert got == VertexPoly(2, [(1, 0), (0, 1)])

    def test_cofinite_missing_interior_point(self):
        assert COF11.vertices() == VertexPoly(2, [(0, 0)])

    def test_finite(self):
        w = BooleanWeight.finite(2, [(2, 0), (1, 1), (1, 2)])
        assert w.vertices() == VertexPoly(2, [(2, 0), (1, 1)])

    def test_empty_finite(self):
        assert BooleanWeight.finite(2, []).vertices().is_zero

    def test_full_is_cofinite_with_nothing_excluded(self):
        full = BooleanWeight.full(3)
        assert full.shift((1, 0, 2)) == full
        assert full.vertices() == VertexPoly.one(3)

    @pytest.mark.parametrize(
        "m, draws, side", [(2, 50, 10), (3, 50, 6), (4, 20, 6)], ids=["m2", "m3", "m4"]
    )
    def test_cofinite_box_is_enough(self, m, draws, side):
        # brute enumeration over a grid larger than the bounding box
        # (coordinates up to 4) must agree
        rng = random.Random(92)
        for _ in range(draws):
            excluded = {
                tuple(rng.randint(0, 3) for _ in range(m))
                for _ in range(rng.randint(1, 5))
            }
            w = BooleanWeight.cofinite(m, excluded)
            grid = [
                p for p in itertools.product(range(side), repeat=m) if p in w
            ]
            assert w.vertices() == VertexPoly(m, grid)


class TestSeries:
    def test_finite_only(self):
        w = BooleanWeight.finite(2, [(0, 0), (2, 1)])
        assert w.series() == parse_poly("1 + t^2*u")
        with pytest.raises(TropdiffError):
            COF11.series()
        with pytest.raises(TropdiffError):
            BooleanWeight.full(2).series()

    def test_series_trop_matches_vertices(self):
        rng = random.Random(93)
        for _ in range(100):
            pts = {
                (rng.randint(0, 5), rng.randint(0, 5))
                for _ in range(rng.randint(0, 6))
            }
            w = BooleanWeight.finite(2, pts)
            assert trop_poly(w.series()) == w.vertices()


class TestSubstitutionPoly:
    def test_indicator_example(self):
        got = substitution_poly(COF11, (1, 1))
        assert got == parse_poly("t + u")

    def test_non_integer_index_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            substitution_poly(COF11, (1.5, 1))
        with pytest.raises(ValueError, match="multi-index must be integers, got 5"):
            substitution_poly(COF11, 5)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            substitution_poly(BooleanWeight.cofinite(2, [(0, 0)]), (-1, 0))

    def test_factorial_example(self):
        got = substitution_poly(COF11, (1, 1), SubstitutionKernel.FACTORIAL)
        assert got == parse_poly("2*t + 2*u")
        # a one-shot J must reach the kernel too, not only the shift
        got = substitution_poly(COF11, iter((1, 1)), SubstitutionKernel.FACTORIAL)
        assert got == parse_poly("2*t + 2*u")

    def test_factorial_at_origin_vertex(self):
        # the only vertex is 0, so each coordinate contributes J_k!
        w = BooleanWeight.full(2)
        got = substitution_poly(w, (3, 2), SubstitutionKernel.FACTORIAL)
        assert got == parse_poly("12", 2)

    def test_kernels_agree_on_zero_shift(self):
        rng = random.Random(94)
        for _ in range(50):
            w = weight(rng, 2)
            a = substitution_poly(w, (0, 0), SubstitutionKernel.INDICATOR)
            b = substitution_poly(w, (0, 0), SubstitutionKernel.FACTORIAL)
            assert a == b

    def test_emptied_support_gives_zero(self):
        fin = BooleanWeight.finite(2, [(1, 0)])
        assert substitution_poly(fin, (2, 0)).is_zero

    def test_factorial_matches_derivative_on_finite(self):
        # on honest polynomials the factorial kernel is d^J applied to the series
        rng = random.Random(95)
        for _ in range(100):
            pts = {
                (rng.randint(0, 4), rng.randint(0, 4))
                for _ in range(rng.randint(0, 6))
            }
            w = BooleanWeight.finite(2, pts)
            J = (rng.randint(0, 2), rng.randint(0, 2))
            derived = w.series().deriv(J)
            got = substitution_poly(w, J, SubstitutionKernel.FACTORIAL)
            # substitution keeps only the vertex terms of the derivative
            expected = {
                p: c for p, c in derived.terms.items()
                if p in trop_poly(derived)
            }
            assert got.terms == expected

    def test_kernel_names(self):
        assert SubstitutionKernel("factorial") is SubstitutionKernel.FACTORIAL
        with pytest.raises(ValueError):
            SubstitutionKernel("binomial")


class TestPresentation:
    def test_str(self):
        assert str(BooleanWeight.full(2)) == "N^2"
        assert str(COF11) == "N^2 minus {(1,1)}"
        assert str(BooleanWeight.finite(2, [(1, 0), (0, 1)])) == "{(0,1), (1,0)}"
