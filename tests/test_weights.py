import itertools
import random

import pytest

from helpers import exponent, vertices_by_candidates, weight
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
        empty = BooleanWeight.finite(2, [])
        assert (empty.kind, empty.data) == ("finite", frozenset())
        assert COF11.kind == "cofinite" and COF11.data

    def test_validation(self):
        with pytest.raises(DimensionMismatch):
            BooleanWeight.finite(2, [(1, 2, 3)])
        with pytest.raises(ValueError):
            BooleanWeight.finite(2, [(-1, 0)])
        # the raw constructor stored a kind and its data unchecked
        for kind, data in [
            ("half-open", ()), ("finite", frozenset()), ("finite", [(1, 0)]), ("cofinite", {(-1, 0)})
        ]:
            with pytest.raises(TypeError):
                BooleanWeight(2, kind, data)

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
        gone = fin.shift((3, 0))
        assert (gone.kind, gone.data) == ("finite", frozenset())

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

    @pytest.mark.parametrize("m, draws, side", [(3, 100, 5), (4, 40, 4)], ids=["m3", "m4"])
    def test_pointwise_agreement_at_higher_m(self, m, draws, side):
        rng = random.Random(90 + m)
        for _ in range(draws):
            w = weight(rng, m)
            J = exponent(rng, m, 2)
            shifted = w.shift(J)
            for I in itertools.product(range(side), repeat=m):
                moved = tuple(i + j for i, j in zip(I, J))
                assert (I in shifted) == (moved in w)


class TestMemo:
    """A weight keeps the shifts, the vertex set and the substitution polynomials it has made."""

    def test_a_shift_and_a_vertex_set_are_made_once(self):
        w = BooleanWeight.cofinite(2, [(1, 1), (0, 2)])
        assert w.shift((1, 0)) is w.shift([1, 0])
        assert w.vertices() is w.vertices()

    @pytest.mark.parametrize("kernel", list(SubstitutionKernel), ids=lambda k: k.value)
    @pytest.mark.parametrize(
        "make, J",
        [
            (lambda: BooleanWeight.cofinite(2, [(1, 1), (0, 2)]), (1, 0)),
            (lambda: BooleanWeight.finite(3, [(2, 0, 1), (1, 1, 1)]), (1, 1, 0)),
            (lambda: BooleanWeight.finite(2, [(1, 0)]), (2, 0)),  # the shift empties the weight
        ],
        ids=["cofinite", "finite", "emptied"],
    )
    def test_a_substitution_poly_is_made_once(self, make, J, kernel):
        w = make()
        first = substitution_poly(w, J, kernel)
        assert substitution_poly(w, list(J), kernel) is first
        assert first == substitution_poly(make(), J, kernel)
        assert first.is_zero == (J == (2, 0))

    def test_a_warm_memo_keeps_equality_and_hash(self):
        warm = BooleanWeight.cofinite(2, [(1, 1), (0, 2)])
        warm.shift((1, 0)).vertices()
        warm.shift((0, 1))
        warm.vertices()
        fresh = BooleanWeight.cofinite(2, [(0, 2), (1, 1)])
        assert warm == fresh and hash(warm) == hash(fresh)
        assert warm.shift((1, 0)) == fresh.shift((1, 0))
        assert hash(warm.shift((1, 0))) == hash(fresh.shift((1, 0)))

    def test_the_set_cannot_be_rebound_under_the_memo(self):
        w = BooleanWeight.finite(2, [(1, 0)])
        vertices, shifted, poly = w.vertices(), w.shift((0, 0)), substitution_poly(w, (0, 0))
        for field, value in [("m", 3), ("is_cofinite", True), ("data", frozenset({(0, 1)}))]:
            with pytest.raises(AttributeError):
                setattr(w, field, value)
        assert (w.m, w.is_cofinite, w.data) == (2, False, frozenset({(1, 0)})) and str(w) == "{(1,0)}"
        assert w.vertices() is vertices and w.shift((0, 0)) is shifted
        assert substitution_poly(w, (0, 0)) is poly and poly == parse_poly("t", 2)

    def test_a_kernel_that_is_not_a_substitution_kernel_is_refused(self):
        w = BooleanWeight.finite(2, [(2, 0), (0, 1)])
        assert substitution_poly(w, (1, 0), SubstitutionKernel.INDICATOR) == parse_poly("t", 2)
        assert substitution_poly(w, (1, 0), SubstitutionKernel.FACTORIAL) == parse_poly("2*t", 2)
        for bad in ["indicator", "factorial", "bogus", None]:  # the memo holds both kernels
            with pytest.raises(ValueError, match="SubstitutionKernel"):
                substitution_poly(w, (1, 0), bad)

    def test_a_bad_J_is_refused_after_a_good_J(self):
        # (True, 0) and (1.0, 0) are == and hash like the memoised (1, 0)
        w = BooleanWeight.cofinite(2, [(1, 1)])
        w.shift((1, 0))
        for bad in [(True, 0), (1.0, 0)]:
            with pytest.raises(ValueError, match="integers"):
                w.shift(bad)
        with pytest.raises(ValueError, match="nonnegative"):
            w.shift((-1, 0))
        with pytest.raises(DimensionMismatch):
            w.shift((1, 0, 0))


class TestKind:
    """kind is read from the set, with the values it had as a stored field."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_every_weight_and_shift(self, m):
        rng = random.Random(95 + m)
        assert BooleanWeight.full(m).kind == "full"
        for _ in range(100):
            points = [exponent(rng, m, 3) for _ in range(rng.randint(0, 4))]
            J = exponent(rng, m, 3)
            finite, cofinite = BooleanWeight.finite(m, points), BooleanWeight.cofinite(m, points)
            assert finite.kind == finite.shift(J).kind == "finite"
            assert cofinite.kind == ("cofinite" if points else "full")
            left = [p for p in points if all(i >= j for i, j in zip(p, J))]
            assert cofinite.shift(J).kind == ("cofinite" if left else "full")

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_shift_past_every_exclusion_is_full(self, m):
        rng = random.Random(96 + m)
        full = BooleanWeight.full(m)
        for _ in range(50):
            points = [exponent(rng, m, 3) for _ in range(rng.randint(1, 4))]
            J = tuple(rng.randint(0, 4) for _ in range(m - 1)) + (4,)
            shifted = BooleanWeight.cofinite(m, points).shift(J)
            assert shifted.kind == "full" and str(shifted) == f"N^{m}"
            assert shifted == full and hash(shifted) == hash(full)

    def test_kind_is_read_only(self):
        with pytest.raises(AttributeError):
            COF11.kind = "finite"
        assert COF11.kind == "cofinite" and (1, 1) not in COF11


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


class TestVerticesOracle:
    """vertices() against the candidate set through the public constructor.

    A set that holds the origin is valued {0} without extraction; a finite
    set holds it when 0 is one of its points, a cofinite one when 0 is not
    left out.  Every other set extracts its candidates.
    """

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_every_kind_with_and_without_the_origin(self, m):
        rng = random.Random(310 + m)
        origin = (0,) * m
        seen = set()
        for _ in range(150):
            points = {exponent(rng, m, 3) for _ in range(rng.randint(0, 4))}
            if rng.random() < 0.5:
                points.add(origin)
            else:
                points.discard(origin)
            J = exponent(rng, m, 2)
            for w in (BooleanWeight.finite(m, points), BooleanWeight.cofinite(m, points)):
                for v in (w, w.shift(J)):
                    got = v.vertices()
                    assert got == vertices_by_candidates(v), (v, J)
                    assert got is v.vertices()
                    holds = origin in v
                    if holds:
                        assert got == VertexPoly.one(m)
                    seen.add((v.kind, holds, v.kind == "finite" and not v.data))
        assert seen == {
            ("finite", True, False),
            ("finite", False, False),
            ("finite", False, True),
            ("cofinite", True, False),
            ("cofinite", False, False),
            ("full", True, False),
        }


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
