import itertools
import random
import re
from collections import Counter

import pytest

from helpers import covered_by_bases, exponent
from tropdiff import (
    DimensionMismatch,
    InternalInconsistency,
    VertexFraction,
    VertexPoly,
    ZeroDenominator,
    omega_chain,
    omega_witness,
    staircase_vertices_2d,
    vertexpoly,
)
from tropdiff.feasibility import covered
from tropdiff.vertexpoly import _pareto_minimal, _quick_accepts


def vp(*points):
    return VertexPoly(2, points)


def general_route(points):
    """_vertices with no exit and no quick accept: the Pareto filter, then
    one LP per survivor over the other survivors."""
    mins = _pareto_minimal(set(points))
    return tuple(sorted(p for p in mins if not covered([q for q in mins if q != p], p)))


@pytest.fixture
def extraction_calls(monkeypatch):
    """Counts, by name, the calls of the Pareto filter and of the LP."""
    calls = Counter()

    def counting(name):
        real = getattr(vertexpoly, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        return counted

    for name in ("covered", "_pareto_minimal"):
        monkeypatch.setattr(vertexpoly, name, counting(name))
    return calls


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
    def test_sum_of_products_is_the_folded_sum(self, m, extraction_calls):
        # one extraction of the union of raw sums gives what + of the
        # products gives, each product and each sum extracted on its own
        rng = random.Random(293 + m)
        shapes = [VertexPoly.zero(m), VertexPoly.one(m), VertexPoly.point(exponent(rng, m, 5))]
        several = 0
        for _ in range(40):
            pairs = []
            for _ in range(rng.randint(0, 4)):
                a, b = (
                    rng.choice(shapes) if rng.random() < 0.2
                    else VertexPoly(m, [exponent(rng, m, 5) for _ in range(rng.randint(1, 5))])
                    for _ in range(2)
                )
                pairs.append((a, b))
            folded = VertexPoly.zero(m)
            for a, b in pairs:
                folded = folded + a * b
            extraction_calls.clear()
            got = VertexPoly.sum_of_products(m, pairs)
            assert got.m == m and got.points == folded.points
            assert extraction_calls["_pareto_minimal"] <= 1
            several += len(pairs) > 1 and len(got) > 1
        assert several
        with pytest.raises(DimensionMismatch):
            VertexPoly.sum_of_products(m, [(VertexPoly.one(m), VertexPoly.one(m + 1))])

    @pytest.mark.parametrize("m", [2, 3, 4], ids=["m2", "m3", "m4"])
    def test_a_one_point_factor_translates(self, m, extraction_calls):
        # a product with a one-point factor, on either side, and an extraction
        # of at most one point run neither the filter nor the LP; each must
        # give the general route's sorted vertex set all the same
        rng = random.Random(347 + m)
        seen = Counter()
        for _ in range(40):
            p = exponent(rng, m, 5)
            A = [exponent(rng, m, 5) for _ in range(rng.randint(2, 7))]
            q = exponent(rng, m, 5)
            factors = [
                (VertexPoly(m, A), A),
                (VertexPoly.one(m), [(0,) * m]),
                (VertexPoly.zero(m), []),
                (VertexPoly.point(q), [q]),
            ]
            for b, B in factors:
                sums = [tuple(x + y for x, y in zip(p, r)) for r in B]
                extraction_calls.clear()
                a = VertexPoly(m, [p, p])
                products = [a * b, b * a]
                assert not extraction_calls, (p, B)
                want = vertexpoly._vertices(set(sums))
                assert want == general_route(sums) == own_vertices(sums), (p, B)
                for got in products:
                    assert got.m == m and got.points == want
                    assert list(got.points) == sorted(got.points)
                seen["several vertices"] += len(want) > 1
            extraction_calls.clear()
            small = [VertexPoly(m, []), VertexPoly(m, [q]), VertexPoly(m, [q, q])]
            assert not extraction_calls
            assert [v.points for v in small] == [general_route([]), general_route([q]), (q,)]
        assert seen["several vertices"] > 0

    @pytest.mark.parametrize("m", [2, 3, 4], ids=["m2", "m3", "m4"])
    def test_identities_return_the_other_operand(self, m, extraction_calls):
        # {0} * a, a * {0} and a ** 1 are a itself, with no copy and no extraction
        rng = random.Random(389 + m)
        one = VertexPoly.one(m)
        factors = [VertexPoly.zero(m), VertexPoly.point(exponent(rng, m, 5))]
        factors += [VertexPoly(m, [exponent(rng, m, 5) for _ in range(rng.randint(2, 7))]) for _ in range(20)]
        extraction_calls.clear()
        for a in (a for a in factors if not a.is_one):  # a second {0} could be either operand
            assert one * a is a and a * one is a and a**1 is a
        assert one * VertexPoly.one(m) == one and one**1 is one
        assert not extraction_calls

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


class TestPowers:
    @pytest.mark.parametrize("k", [2.0, -2.0, True, "2"], ids=["float", "negative-float", "bool", "str"])
    def test_non_integer_power_rejected(self, k, monkeypatch):
        # 2.0 gave float points, True returned the base and "2" failed inside <
        def refuse(cls, *args):
            raise AssertionError("a refused power must not build a result")

        base = vp((1, 0), (0, 1))
        fraction = VertexFraction(base, vp((0, 0), (3, 3)))
        monkeypatch.setattr(VertexPoly, "_trusted", classmethod(refuse))
        monkeypatch.setattr(VertexFraction, "_trusted", classmethod(refuse))
        for value in (base, fraction):
            with pytest.raises(ValueError, match=re.escape(f"power must be an integer, got {k!r}")):
                value**k

    def test_negative_int_power(self):
        with pytest.raises(ValueError, match="negative power of a vertex set"):
            vp((1, 0)) ** -2


def own_vertices(points):
    """Vertices of conv(points) + R^m_{>=0} by the basis-enumeration oracle.

    A point that another one dominates is dropped first, which leaves the
    polyhedron as it is; each survivor is a vertex iff covered_by_bases finds
    no convex combination of the others below it.
    """
    distinct = set(map(tuple, points))
    antichain = [
        p for p in distinct
        if not any(q != p and all(a <= b for a, b in zip(q, p)) for q in distinct)
    ]
    return tuple(sorted(
        p for p in antichain if not covered_by_bases([q for q in antichain if q != p], p)
    ))


def own_quick_accepts(mins):
    """The quick accepts, spelled apart from vertexpoly, in two parts: for each
    coordinate order (k, then the others ascending) and (k, then the others
    descending), the least point with its coordinates read in that order; and
    every point of least total degree (the lex-least of them is accepted)."""
    m = len(mins[0])
    orders = set()
    for k in range(m):
        others = tuple(i for i in range(m) if i != k)
        orders |= {(k,) + others, (k,) + others[::-1]}
    assert len(orders) == (2 if m == 2 else 2 * m), orders  # all six orders at m = 3
    by_order = {min(mins, key=lambda p: tuple(p[i] for i in order)) for order in orders}
    least = min(map(sum, mins))
    return by_order, {p for p in mins if sum(p) == least}


def point_sets(m, seed):
    """Seeded point sets at width m, each tagged with its family."""
    rng = random.Random(seed)
    for _ in range(25):
        yield "random", [exponent(rng, m, 6) for _ in range(rng.randint(3, 8))]
    for d in (3, 4, 5, 6):  # antichains on the plane sum(p) = d
        plane = [p for p in itertools.product(range(d + 1), repeat=m) if sum(p) == d]
        for _ in range(4):
            yield "plane", rng.sample(plane, min(len(plane), rng.randint(3, 8)))
    for _ in range(20):  # each point copies one coordinate of an earlier point
        points = [exponent(rng, m, 6)]
        for _ in range(rng.randint(2, 7)):
            k = rng.randrange(m)
            p = exponent(rng, m, 6)
            points.append(p[:k] + (rng.choice(points)[k],) + p[k + 1:])
        yield "shared", points
    for _ in range(15):  # every point has the same first coordinate
        c = rng.randrange(4)
        yield "shared", [(c,) + exponent(rng, m - 1, 6) for _ in range(rng.randint(3, 8))]
    for _ in range(15):  # two points tie for the least total degree
        d = rng.randint(2, 5)
        low = [p for p in itertools.product(range(d + 1), repeat=m) if sum(p) == d]
        tied = rng.sample(low, 2)
        higher = [exponent(rng, m, 6) for _ in range(rng.randint(1, 6))]
        yield "tie", tied + [p for p in higher if sum(p) > d]


@pytest.fixture
def lp_calls(monkeypatch):
    """The columns and the target of every feasibility.covered call that _vertices makes."""
    real = vertexpoly.covered
    calls = []

    def counted(points, target, separator):
        calls.append((list(points), target))
        return real(points, target, separator)

    monkeypatch.setattr(vertexpoly, "covered", counted)
    return calls


class TestQuickAccepts:
    # every point that _vertices accepts without an LP must be a vertex by the
    # oracle on its own: the final vertex set alone could hide a wrong accept
    # that a later LP call happened to repair

    @pytest.mark.parametrize("m", [2, 3, 4, 5], ids=["m2", "m3", "m4", "m5"])
    def test_against_the_basis_oracle(self, m, lp_calls):
        seen = Counter()
        for family, points in point_sets(m, 500 + m):
            lp_calls.clear()
            got = VertexPoly(m, points).points
            vertices = own_vertices(points)
            assert got == vertices, (family, points)
            if m == 2:
                assert staircase_vertices_2d(points) == vertices, points
            mins = _pareto_minimal(set(points))
            if len(mins) <= 2:
                assert lp_calls == [] and len(vertices) == len(mins)
                continue
            by_order, lowest = own_quick_accepts(mins)
            sure = by_order | {min(lowest)}
            assert _quick_accepts(mins) == sure, points
            assert sure <= set(vertices), (family, points, sure)
            # each LP targets a Pareto-minimal point that is not accepted, runs
            # over vertices only, and rejects its target or adds a vertex
            assert all(target in set(mins) - sure for _, target in lp_calls), points
            assert all(set(columns) <= set(vertices) for columns, _ in lp_calls), points
            assert len(lp_calls) <= len(set(mins) - sure) + len(set(vertices) - sure), points
            seen[family] += 1
            seen["degree tie"] += len(lowest) > 1
            tie_adds = len(lowest) > 1 and min(lowest) not in by_order
            seen["a degree tie accepts a point no order does"] += tie_adds
            seen["an order's least point is the degree minimiser"] += min(lowest) in by_order
            seen["lp accepts"] += len(set(vertices) - sure) > 0
            seen["lp rejects"] += len(mins) > len(vertices)
        wanted = ["random", "plane", "tie", "degree tie", "an order's least point is the degree minimiser",
                  "lp accepts", "lp rejects"]
        if m > 2:  # at m = 2 a shared coordinate makes two points comparable,
            # and the seeded ties fall on an end (test_a_degree_tie_accepts_its_least_point)
            wanted += ["shared", "a degree tie accepts a point no order does"]
        assert all(seen[name] > 0 for name in wanted), seen

    @pytest.mark.parametrize("m", [3, 4])
    @pytest.mark.parametrize("d", [1, 2, 7])
    def test_standard_simplex_needs_no_lp(self, m, d, lp_calls):
        # at m = 3 and 4 each corner is the least point of an order that
        # starts at another coordinate
        corners = [tuple(d * (i == k) for i in range(m)) for k in range(m)]
        assert VertexPoly(m, corners).points == tuple(sorted(corners))
        assert lp_calls == []

    def test_a_hexagon_needs_no_lp_that_adds_a_vertex(self, lp_calls):
        # the six permutations of (0, 1, 3) are the least points of the six
        # coordinate orders; the three points inside the hexagon each need one
        # LP over those six, and each LP rejects its target
        hexagon = sorted(set(itertools.permutations((0, 1, 3))))
        inside = [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
        assert VertexPoly(3, hexagon + inside).points == tuple(hexagon)
        assert sorted(target for _, target in lp_calls) == inside
        assert all(sorted(columns) == hexagon for columns, _ in lp_calls)
        assert all(covered_by_bases(columns, target) for columns, target in lp_calls)

    def test_a_degree_tie_accepts_its_least_point(self, lp_calls):
        # (2, 1) and (3, 0) tie for the least total degree; (2, 1) is the
        # lex-least of them and the least point of neither coordinate order
        assert VertexPoly(2, [(0, 10), (2, 1), (3, 0)]).points == ((0, 10), (2, 1), (3, 0))
        assert lp_calls == []

    @pytest.mark.parametrize(
        "staircase, vertices",
        [([(2, 0), (1, 1), (0, 2)], ((0, 2), (2, 0))), ([(6, 0), (2, 1), (0, 2)], ((0, 2), (2, 1), (6, 0)))],
        ids=["middle-rejected", "middle-kept"],
    )
    def test_a_staircase_of_three_needs_one_lp(self, staircase, vertices, lp_calls):
        # the two ends are the least points of the two coordinate orders; the
        # lex-least point of least total degree is an end in both sets, so
        # only the middle point needs its LP, over the two ends
        assert VertexPoly(2, staircase).points == vertices
        assert [(sorted(columns), target) for columns, target in lp_calls] == [
            (sorted([staircase[0], staircase[2]]), staircase[1])
        ]


def dot(y, q):
    return sum(a * b for a, b in zip(y, q))


def planar_hull(points):
    """Vertices of the convex hull of points on one plane sum(p) = d in N^3, by
    Andrew's monotone chain on (p_0, p_1); on that plane they are the vertices
    of conv(points) + R^3_{>=0}."""
    ordered = sorted(set(points))
    chains = []
    for run in (ordered, ordered[::-1]):
        chain = []
        for p in run:
            while len(chain) >= 2 and (
                (chain[-1][0] - chain[-2][0]) * (p[1] - chain[-2][1])
                - (chain[-1][1] - chain[-2][1]) * (p[0] - chain[-2][0])
            ) <= 0:
                chain.pop()
            chain.append(p)
        chains += chain[:-1]
    return tuple(sorted(chains))


class TestFarkasStep:
    # an LP that does not cover its target hands back y, and _vertices adds
    # the lex-least minimiser of y over the Pareto set as a new vertex

    @pytest.mark.parametrize("m", [2, 3, 4], ids=["m2", "m3", "m4"])
    def test_every_certificate_separates_strictly(self, m, monkeypatch):
        real = vertexpoly.covered
        seen = Counter()

        def checked(points, target, separator):
            got = real(points, target, separator)
            assert got == covered_by_bases(points, target), (points, target)
            if not got:
                y = separator
                assert len(y) == m and min(y) >= 0 and any(y), (points, target, y)
                assert all(dot(y, target) < dot(y, q) for q in points), (points, target, y)
            seen[got] += 1
            return got

        monkeypatch.setattr(vertexpoly, "covered", checked)
        for family, points in point_sets(m, 900 + m):
            assert VertexPoly(m, points).points == general_route(points), (family, points)
        assert seen[True] > 0 and seen[False] > 0, seen

    def test_a_certificate_that_does_not_separate_is_refused(self, monkeypatch):
        # (6,0) and (0,2) are accepted; y = (0, 1) is least on (6,0), which
        # the LP's target (2,1) would have to beat
        def lying(points, target, separator):
            separator[:] = [0, 1]
            return False

        monkeypatch.setattr(vertexpoly, "covered", lying)
        with pytest.raises(InternalInconsistency, match=re.escape("separator [0, 1] of (2, 1)")):
            VertexPoly(2, [(6, 0), (2, 1), (0, 2)])

    def test_the_lps_of_a_large_plane_run_over_vertices(self, lp_calls):
        # 400 of the 1,891 points of x + y + z = 60; one LP per point over all
        # the others took 397 x 399 = 158,403 columns
        plane = [p for p in itertools.product(range(61), repeat=3) if sum(p) == 60]
        points = random.Random(0).sample(plane, 400)
        got = VertexPoly(3, points).points
        assert got == planar_hull(points)
        sure = _quick_accepts(sorted(points))
        assert len(lp_calls) <= len(points) - len(sure) + len(set(got) - sure)
        assert sum(len(columns) for columns, _ in lp_calls) <= len(lp_calls) * len(got) < 2500


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

    @pytest.mark.parametrize("m", [2, 3], ids=["m2", "m3"])
    def test_comparing_over_one_extracts_only_the_union(self, m, monkeypatch):
        # over the denominator {0} each cross product is a translation by 0:
        # == extracts nothing, and <= extracts only the union num + num
        rng = random.Random(353 + m)
        values = [
            VertexPoly(m, [exponent(rng, m, 5) for _ in range(rng.randint(1, 5))])
            for _ in range(60)
        ]
        real = vertexpoly._vertices
        calls = []

        def counted(points):
            calls.append(len(points))
            return real(points)

        monkeypatch.setattr(vertexpoly, "_vertices", counted)
        outcomes = set()
        for a, b in zip(values, values[1:] + values[:1]):
            x, y = VertexFraction(a), VertexFraction(b, VertexPoly.one(m))
            calls.clear()
            equal = x == y
            assert calls == [] and equal == (a == b)
            below = x <= y
            assert len(calls) == 1
            assert below == (real({*a.points, *b.points}) == b.points)
            outcomes.add(below)
        assert outcomes == {True, False}

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
