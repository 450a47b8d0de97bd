"""errors.exponent, the one exponent check: a tuple of exact ints is checked
and kept as it is, anything else is rebuilt as one, and every refusal reads
the same on both paths.  errors.shown renders any value for a message, an int
too long to write as text among them, and every refusal of the library writes
the value it refuses through it: a huge value gives a short message of the
refusal's own class, never the interpreter's digit-limit ValueError."""

import enum
import re
import sys

import pytest

from tropdiff import (
    BooleanWeight,
    DiffMonomial,
    DiffPoly,
    DimensionMismatch,
    InconsistentOracle,
    InternalInconsistency,
    NotInUnitBall,
    RationalFunction,
    UnknownVariable,
    VertexPoly,
    divides_in_unit_ball,
    multi_indices,
    order_from_membership,
    order_standard,
    parse_poly,
    residue,
    separating_constants,
    translate,
    translation,
    vertexpoly,
)
from tropdiff.errors import exponent, shown
from tropdiff.jsonio import dumps
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

    def test_a_value_that_can_be_neither_written_nor_measured_is_shown_by_its_type(self):
        # its repr needs the coefficient's 5,001 digits, and it has no length
        assert shown(RationalFunction(QPoly.constant(2, 10**5000), QPoly.variable(2, 1))) == "(RationalFunction)"


# the oversized values: an int of 5,000 digits, a list of 100,000 items, a str of
# 100,000 characters, a coefficient of 5,000 digits and a numerator of 3,000 terms
BIG_INT = 10**5000
LONG_LIST = ["x"] * 100_000
LONG_STR = "x" * 100_000
T = QPoly.variable(2, 1)
BIG_COEFF = RationalFunction(QPoly.constant(2, BIG_INT), T)
MANY_TERMS = RationalFunction(QPoly(2, {(k, 0): 1 for k in range(3000)}), T)


def lying_cover(points, target, separator):
    # an LP that certifies nothing and hands back a separator of 100,000 entries
    separator[:] = [0, 1] + [0] * 99_998
    return False


# site: (the refusal, with pytest's monkeypatch, its class, the start of its message)
REFUSALS = {
    "variable-index-below-1": (
        lambda mp: DiffMonomial.var(-BIG_INT, (0, 0)), ValueError, "variable indices start at 1, got (int of"),
    "unknown-index": (
        lambda mp: DiffPoly(2, 1, {DiffMonomial.var(BIG_INT, (0, 0)): 1}), DimensionMismatch, "unknown index (int of"),
    "multi-indices-bound": (
        lambda mp: multi_indices(2, LONG_LIST), ValueError, "bound must be a nonnegative int, got ['x', "),
    "json-write": (
        lambda mp: dumps(tuple(range(100_000))), TypeError, "cannot write tuple as JSON: (0, 1, 2, "),
    "parsed-variable-index": (
        lambda mp: parse_poly("t" + "9" * 4000, 2), UnknownVariable, "variable t9999"),
    "variable-index-type": (
        lambda mp: QPoly.variable(2, LONG_LIST), ValueError, "variable index must be an int, got ['x', "),
    "variable-index-range": (
        lambda mp: QPoly.variable(2, BIG_INT), DimensionMismatch, "variable index (int of"),
    "variable-index-range-width": (
        lambda mp: QPoly.variable(BIG_INT, 0), DimensionMismatch, "variable index 0 out of range for m=(int of"),
    "divides": (
        lambda mp: divides_in_unit_ball(BIG_COEFF, T), NotInUnitBall, "(RationalFunction) lies outside"),
    "residue": (
        lambda mp: residue(BIG_COEFF, order_standard("lex", 2)), NotInUnitBall, "residue of (RationalFunction) is"),
    "residue-many-terms": (
        lambda mp: residue(MANY_TERMS, order_standard("lex", 2)), NotInUnitBall, "residue of (t^2999 + t^2998 + "),
    "membership-oracle": (
        lambda mp: order_from_membership(lambda q: False, (BIG_INT, 0), (0, 1)),
        InconsistentOracle, "oracle puts neither of t^(tuple of length 2), t^(0, 1) in the ideal"),
    "separating-constants": (
        lambda mp: separating_constants(BIG_COEFF), NotInUnitBall, "separating constants of (RationalFunction) need"),
    "translated-coefficient": (
        lambda mp: mp.setattr(translation, "in_unit_ball", lambda q: False)
        or translate(DiffPoly(2, 1, {DiffMonomial.var(1, (0, 0)): BIG_COEFF}), [BooleanWeight.full(2)]),
        InternalInconsistency, "translated coefficient (RationalFunction) left"),
    "vertex-separator": (
        lambda mp: mp.setattr(vertexpoly, "covered", lying_cover) or VertexPoly(2, [(6, 0), (2, 1), (0, 2)]),
        InternalInconsistency, "separator [0, 1, 0, 0, "),
}


@pytest.mark.parametrize("refusal, error, start", REFUSALS.values(), ids=REFUSALS.keys())
def test_a_refusal_of_a_huge_value_is_short_and_of_its_own_class(monkeypatch, refusal, error, start):
    with pytest.raises(error) as info:
        refusal(monkeypatch)
    assert type(info.value) is error
    assert str(info.value).startswith(start) and len(str(info.value)) < 1024
