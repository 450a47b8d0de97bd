"""errors.exponent, the one exponent check: a tuple of exact ints is checked
and kept as it is, anything else is rebuilt as one, and every refusal reads
the same on both paths."""

import enum
import re

import pytest

from tropdiff import DimensionMismatch
from tropdiff.errors import exponent


class Index(enum.IntEnum):
    TWO = 2


class TestExponent:
    @pytest.mark.parametrize("point", [(1, 2), (0, 0, 7), ()], ids=["m2", "m3", "empty"])
    def test_a_tuple_of_ints_is_kept(self, point):
        assert exponent(point) is point
        if point:
            assert exponent(point, len(point)) is point

    @pytest.mark.parametrize(
        "values, want",
        [([1, 2], (1, 2)), ((Index.TWO, 0), (2, 0)), ([0, Index.TWO], (0, 2)), (iter((3, 1)), (3, 1))],
        ids=["list", "IntEnum-in-tuple", "IntEnum-in-list", "iterator"],
    )
    def test_anything_else_becomes_a_tuple_of_ints(self, values, want):
        got = exponent(values, 2)
        assert got == want and type(got) is tuple and {type(v) for v in got} == {int}

    @pytest.mark.parametrize(
        "values, error, message",
        [
            ((True, 0), ValueError, "exponents must be integers, got (True, 0)"),
            ([True, 0], ValueError, "exponents must be integers, got (True, 0)"),
            ((1.0, 0), ValueError, "exponents must be integers, got (1.0, 0)"),
            ((-1, 0), ValueError, "exponents must be nonnegative, got (-1, 0)"),
            ([0, -1], ValueError, "exponents must be nonnegative, got (0, -1)"),
            ((1, 2, 3), DimensionMismatch, "exponents: (1, 2, 3) does not have 2 coordinates"),
            ([1], DimensionMismatch, "exponents: (1,) does not have 2 coordinates"),
            (5, ValueError, "exponents must be integers, got 5"),
        ],
    )
    def test_refusals_read_as_before(self, values, error, message):
        with pytest.raises(error, match="^" + re.escape(message) + "$"):
            exponent(values, 2)
