"""errors.exponent, the one exponent check: a tuple of exact ints is checked
and kept as it is, anything else is rebuilt as one, and every refusal reads
the same on both paths.  errors.shown renders any value for a message, an int
too long to write as text among them."""

import enum
import re
import sys

import pytest

from tropdiff import DimensionMismatch
from tropdiff.errors import exponent, shown
from tropdiff.series import QPoly

# one digit more than the interpreter writes as text
HUGE = 10 ** sys.get_int_max_str_digits()


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


class TestShown:
    @pytest.mark.parametrize("value", [HUGE, -HUGE], ids=["positive", "negative"])
    def test_an_int_too_long_to_write_is_shown_by_its_bit_length(self, value):
        assert shown(value) == f"(int of {HUGE.bit_length()} bits)"

    @pytest.mark.parametrize(
        "value, want",
        [((HUGE, 0, 0), "(tuple of length 3)"), ([[1], [HUGE]], "(list of length 2)")],
        ids=["tuple", "nested-list"],
    )
    def test_a_container_holding_one_is_shown_by_its_length(self, value, want):
        assert shown(value) == want

    def test_the_error_that_is_due_is_raised(self):
        # repr of the point would raise the interpreter's own ValueError first
        message = "exponents: (tuple of length 3) does not have 2 coordinates"
        with pytest.raises(DimensionMismatch, match="^" + re.escape(message) + "$"):
            QPoly(2, {(1, 0): 1}).coeff((10**5000, 0, 0))

    def test_short_and_long_values_read_as_before(self):
        assert shown(12) == "12"
        assert shown(10**300) == "1" + "0" * 199 + "... (int of length 301)"
        assert shown("x" * 300) == "'" + "x" * 199 + "... (str of length 300)"
