"""Every constructor that takes a width refuses one that is not a positive int,
or one above MAX_WIDTH.

errors.width is the one check: m (the number of t-variables) and n (the
number of unknowns) must be ints from 1 to MAX_WIDTH.  A bool is an int to
Python but not a width, and 2.0 or "2" must not pass for 2.
"""

import re

import pytest

from tropdiff import (
    BooleanWeight,
    DiffPoly,
    NotAMonomialOrder,
    QPoly,
    VertexFraction,
    VertexPoly,
    multi_indices,
    omega_witness,
    order_standard,
    parse_poly,
    parse_rational,
)
from tropdiff.errors import MAX_WIDTH

# the BooleanWeight constructors are given no points: a point is checked
# against m before the weight is built
CONSTRUCTORS = {
    "QPoly": lambda m: QPoly(m),
    "QPoly.constant": lambda m: QPoly.constant(m, 3),
    "QPoly.variable": lambda m: QPoly.variable(m, 1),
    "VertexPoly": lambda m: VertexPoly(m),
    "VertexPoly.zero": lambda m: VertexPoly.zero(m),
    "VertexPoly.one": lambda m: VertexPoly.one(m),
    "VertexFraction.zero": lambda m: VertexFraction.zero(m),
    "VertexFraction.one": lambda m: VertexFraction.one(m),
    "BooleanWeight.full": lambda m: BooleanWeight.full(m),
    "BooleanWeight.finite": lambda m: BooleanWeight.finite(m, []),
    "BooleanWeight.cofinite": lambda m: BooleanWeight.cofinite(m, []),
    "DiffPoly-m": lambda m: DiffPoly(m, 1),
    "DiffPoly-n": lambda n: DiffPoly(1, n),
    "parse_poly": lambda m: parse_poly("1", m),
    "parse_rational": lambda m: parse_rational("1", m),
    "omega_witness": lambda n: omega_witness(n),
}
NOT_WIDTHS = [0, -1, True, 2.0, "2", MAX_WIDTH + 1]


def refusal(value) -> str:
    if value == MAX_WIDTH + 1:
        return re.escape(f"must be at most {MAX_WIDTH}, got {value}")
    return re.escape(f"must be a positive integer, got {value!r}")


@pytest.mark.parametrize("value", NOT_WIDTHS, ids=repr)
@pytest.mark.parametrize("build", CONSTRUCTORS.values(), ids=CONSTRUCTORS.keys())
def test_refuses_a_width_that_is_not_a_positive_int(build, value):
    with pytest.raises(ValueError, match=refusal(value)):
        build(value)


@pytest.mark.parametrize("build", CONSTRUCTORS.values(), ids=CONSTRUCTORS.keys())
def test_accepts_width_one(build):
    assert build(1) is not None


@pytest.mark.parametrize("build", CONSTRUCTORS.values(), ids=CONSTRUCTORS.keys())
def test_accepts_the_width_cap(build):
    assert build(MAX_WIDTH) is not None


# order_standard reports a bad width as the order it cannot build
@pytest.mark.parametrize("value", NOT_WIDTHS, ids=repr)
@pytest.mark.parametrize("kind", ["lex", "grlex", "grevlex"])
def test_order_standard_refuses_a_width_that_is_not_a_positive_int(kind, value):
    with pytest.raises(NotAMonomialOrder, match=refusal(value)):
        order_standard(kind, value)


@pytest.mark.parametrize("value", NOT_WIDTHS, ids=repr)
def test_multi_indices_refuses_a_width_that_is_not_a_positive_int(value):
    with pytest.raises(ValueError, match=refusal(value)):
        multi_indices(value, 1)


def test_order_standard_and_multi_indices_accept_width_one():
    assert order_standard("grlex", 1).m == 1
    assert multi_indices(1, 2) == [(0,), (1,), (2,)]


def test_order_standard_and_multi_indices_accept_the_width_cap():
    assert order_standard("grlex", MAX_WIDTH).m == MAX_WIDTH
    assert len(multi_indices(MAX_WIDTH, 1)) == MAX_WIDTH + 1
