"""The one exponent adder, vertexpoly._adder, against the spelling it replaced.

Every product in the package adds exponents with _adder(m): series._product
(its one-term, f * f and general branches), QPoly.sum_of_products, and
VertexPoly's * and sum_of_products.  helpers.exponent_sum keeps the old
tuple(map(operator.add, a, b)) as the oracle, and helpers.FractionQPoly, whose
product adds exponents with it, is the oracle for the int polynomials.
"""

import random
from collections import Counter

import pytest

from helpers import FractionQPoly, canonical, exponent, exponent_sum, qpoly
from tropdiff import DimensionMismatch, QPoly, VertexPoly
from tropdiff.errors import MAX_WIDTH
from tropdiff.series import _product
from tropdiff.vertexpoly import _adder, _vertices

WIDTHS = [1, 2, 3, 4, 9, MAX_WIDTH]
SMALL = [1, 2, 3, 4]


def wide_exponent(rng, m):
    """A point of N^m whose entries run from 0 to far past a machine word."""
    return tuple(rng.randrange(2 ** rng.choice((1, 3, 40, 100))) for _ in range(m))


def scaled(rng, m, max_terms=4):
    """A nonzero QPoly with small ints over an assorted denominator."""
    return qpoly(rng, m, max_terms, 4) / rng.choice((1, 1, 2, 3, 6, 35))


def same_terms(got: QPoly, want: FractionQPoly) -> bool:
    return canonical(got) and got.terms == want.terms


class TestAdder:
    @pytest.mark.parametrize("m", WIDTHS)
    def test_the_sum_is_the_oracle_as_a_tuple_of_ints(self, m):
        rng = random.Random(421 + m)
        add = _adder(m)
        zero = (0,) * m
        for a, b in [(zero, zero), *((wide_exponent(rng, m), wide_exponent(rng, m)) for _ in range(40))]:
            got = add(a, b)
            assert type(got) is tuple and all(type(v) is int for v in got)
            assert got == exponent_sum(a, b)
            assert add(b, a) == got and add(a, zero) == a

    @pytest.mark.parametrize("m", WIDTHS)
    def test_one_adder_per_width(self, m):
        assert _adder(m) is _adder(m)
        assert _adder(m) is not _adder(m - 1 if m > 1 else 2)

    @pytest.mark.parametrize("m", [0, -1, MAX_WIDTH + 1, 2.0, "2", "1)), __import__('os').getpid(), ((1"])
    def test_only_a_checked_width_reaches_the_template(self, m):
        with pytest.raises(ValueError):
            _adder(m)


class TestIntPolynomials:
    """_product and the QPoly products that run on it give the terms of FractionQPoly."""

    @pytest.mark.parametrize("m", SMALL)
    def test_product_is_the_oracle(self, m):
        rng = random.Random(431 + m)
        seen = Counter()
        for _ in range(60):
            f, g = (
                {} if rng.random() < 0.1 else qpoly(rng, m, rng.choice((1, 5, 8)))._ints
                for _ in range(2)
            )
            for a, b in ((f, g), (g, f), (f, f)):
                want = FractionQPoly(m, a) * FractionQPoly(m, b)
                assert same_terms(QPoly._trusted(m, _product(a, b)), want)
                branch = (
                    "empty" if not a or not b
                    else "one term" if 1 in (len(a), len(b))
                    else "square" if a is b
                    else "general"
                )
                seen[branch] += 1
        assert len(seen) == 4 and min(seen.values()) > 10, seen
        assert _product({}, {}) == {}

    @pytest.mark.parametrize("m", SMALL)
    def test_qpoly_products_and_powers_are_the_oracle(self, m):
        rng = random.Random(433 + m)
        for _ in range(40):
            factors = [scaled(rng, m, rng.choice((1, 3))) for _ in range(rng.randint(1, 4))]
            oracles = [FractionQPoly.of(f) for f in factors]
            folded = oracles[0]
            for F in oracles[1:]:
                folded = folded * F
            assert same_terms(QPoly.product(m, factors), folded)
            f, F = factors[0], oracles[0]
            assert same_terms(f * f, F * F)
            k = rng.randint(0, 4)
            assert same_terms(f**k, F**k)

    @pytest.mark.parametrize("m", SMALL)
    def test_sum_of_products_is_the_oracle(self, m):
        rng = random.Random(439 + m)
        for _ in range(40):
            pairs = [
                (scaled(rng, m, rng.choice((1, 3))), scaled(rng, m, rng.choice((1, 4))))
                for _ in range(rng.randint(0, 4))
            ]
            oracle = [(FractionQPoly.of(a), FractionQPoly.of(b)) for a, b in pairs]
            assert same_terms(QPoly.sum_of_products(m, pairs), FractionQPoly.sum_of_products(m, oracle))


class TestVertexSets:
    """VertexPoly's products are the vertices of the raw sums added by the oracle."""

    @staticmethod
    def vertex_poly(rng, m):
        return VertexPoly(m, [exponent(rng, m, 5) for _ in range(rng.randint(1, 8))])

    @pytest.mark.parametrize("m", SMALL)
    def test_products_are_the_vertices_of_the_oracle_sums(self, m):
        # at m = 1 every vertex set has one point, so a product is a translation
        rng = random.Random(443 + m)
        seen = Counter()
        for _ in range(40):
            a = self.vertex_poly(rng, m)
            point = exponent(rng, m, 5)
            for kind, b in (
                ("unit", VertexPoly.one(m)),
                ("translation", VertexPoly.point(point if any(point) else (1,) * m)),
                ("general", self.vertex_poly(rng, m)),
            ):
                want = _vertices({exponent_sum(p, q) for p in a for q in b})
                assert (a * b).points == want == (b * a).points
                seen[kind] += min(len(a), len(b)) > 1 if kind == "general" else 1
        assert seen["unit"] == seen["translation"] == 40 and seen["general"] > (10 if m > 1 else -1), seen

    @pytest.mark.parametrize("m", SMALL)
    def test_sum_of_products_is_the_vertices_of_the_oracle_sums(self, m):
        rng = random.Random(449 + m)
        for _ in range(40):
            pairs = [(self.vertex_poly(rng, m), self.vertex_poly(rng, m)) for _ in range(rng.randint(0, 4))]
            want = _vertices({exponent_sum(p, q) for a, b in pairs for p in a for q in b})
            got = VertexPoly.sum_of_products(m, pairs)
            assert got.m == m and got.points == want
        with pytest.raises(DimensionMismatch):
            VertexPoly.sum_of_products(m, [(VertexPoly.one(m), VertexPoly.one(m + 1))])
