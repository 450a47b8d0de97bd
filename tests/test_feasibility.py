"""feasibility.covered against an oracle that shares none of its code.

covered_by_bases (helpers) solves every basis of the same system by Fraction
elimination, so a pivoting mistake in the integer tableau cannot hide behind
the same mistake in the oracle.
"""

import fractions
import random

import pytest

from helpers import covered_by_bases, exponent
from tropdiff import VertexPoly
from tropdiff.feasibility import covered


def draw(rng, m, hi=6):
    points = [exponent(rng, m, hi) for _ in range(rng.randint(1, 6))]
    return points, exponent(rng, m, hi)


def agree(points, target):
    return covered(points, target) == covered_by_bases(points, target)


class TestAgainstOracle:
    @pytest.mark.parametrize("m, draws", [(2, 600), (3, 400), (4, 150)])
    def test_random(self, m, draws):
        rng = random.Random(100 + m)
        for _ in range(draws):
            points, target = draw(rng, m)
            assert agree(points, target), (points, target)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_repeated_points(self, m):
        rng = random.Random(200 + m)
        for _ in range(100):
            pool = [exponent(rng, m) for _ in range(3)]
            points = [rng.choice(pool) for _ in range(rng.randint(2, 6))]
            target = exponent(rng, m)
            assert agree(points, target), (points, target)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_target_is_a_point(self, m):
        rng = random.Random(300 + m)
        for _ in range(100):
            points, _ = draw(rng, m)
            target = rng.choice(points)
            assert covered(points, target) and covered_by_bases(points, target)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_target_on_a_segment(self, m):
        rng = random.Random(400 + m)
        for _ in range(100):
            k, d = rng.choice(((1, 2), (1, 3), (2, 3)))
            a = exponent(rng, m)
            b = tuple(v % d + d * rng.randrange(3) for v in a)
            # k/d of the way from a to b, an integer point since b = a mod d
            target = tuple(x + k * (y - x) // d for x, y in zip(a, b))
            points = [a, b] + [exponent(rng, m) for _ in range(rng.randint(0, 3))]
            rng.shuffle(points)
            assert covered(points, target) and covered_by_bases(points, target)
            # one step off the segment, below it in one coordinate
            lower = [i for i, v in enumerate(target) if v > 0]
            if lower:
                below = list(target)
                below[rng.choice(lower)] -= 1
                assert agree(points, tuple(below)), (points, below)

    def test_midpoint_of_an_edge(self):
        assert covered([(2, 0, 4), (0, 2, 0)], (1, 1, 2))
        assert not covered([(2, 0, 4), (0, 2, 0)], (1, 1, 1))
        assert not covered([(2, 0, 4), (0, 2, 0)], (1, 0, 2))

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_zero_coordinates(self, m):
        rng = random.Random(500 + m)
        for _ in range(150):
            points = [
                tuple(rng.choice((0, 0, rng.randrange(4))) for _ in range(m))
                for _ in range(rng.randint(1, 5))
            ]
            target = tuple(rng.choice((0, 0, rng.randrange(4))) for _ in range(m))
            assert agree(points, target), (points, target)
        origin = (0,) * m
        assert covered([origin], origin)
        assert not covered([(1,) + (0,) * (m - 1), (0,) * (m - 1) + (1,)], origin)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_a_refusal_hands_back_a_strict_separator(self, m):
        # y >= 0 with y.target < y.q for every point q; a cover leaves the list as it was
        rng = random.Random(800 + m)
        refused = 0
        for _ in range(150):
            points, target = draw(rng, m)
            y = ["untouched"]
            got = covered(points, target, y)
            assert got == covered(points, target) == covered_by_bases(points, target)
            if got:
                assert y == ["untouched"]
                continue
            refused += 1
            value = [sum(a * b for a, b in zip(y, q)) for q in points]
            assert len(y) == m and min(y) >= 0, (points, target, y)
            assert sum(a * b for a, b in zip(y, target)) < min(value), (points, target, y)
        assert refused > 0

    def test_runs_without_fractions(self, monkeypatch):
        rng = random.Random(600)
        cases = [draw(rng, m) for m in (2, 3, 4) for _ in range(40)]
        expected = [covered_by_bases(points, target) for points, target in cases]

        def refuse(cls, *args, **kwargs):
            pytest.fail("covered built a Fraction")

        monkeypatch.setattr(fractions.Fraction, "__new__", refuse)
        got = [covered(points, target) for points, target in cases]
        monkeypatch.undo()
        assert got == expected


class TestVertexSets:
    @pytest.mark.parametrize("m, draws", [(3, 150), (4, 60)])
    def test_against_the_oracle(self, m, draws):
        # a point of S is a vertex iff the rest of S does not cover it
        rng = random.Random(700 + m)
        for _ in range(draws):
            S = {exponent(rng, m) for _ in range(rng.randint(1, 6))}
            expected = sorted(p for p in S if not covered_by_bases(list(S - {p}), p))
            assert VertexPoly(m, S).points == tuple(expected), S
