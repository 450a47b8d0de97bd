"""The operands of one operation share m, and errors.same_width is the one check.

Each binary operator and two-value constructor of QPoly, RationalFunction,
VertexPoly, VertexFraction and DiffPoly, each product and sum of products,
and each pairing of a value with an order, a weight or an argument refuses
an operand of another width with one message, "mixing m=A with m=B".  A
foreign operand, such as a str, is a TypeError, as Python gives when both
sides answer NotImplemented; == with one is False.  == across widths is
False for every kind, so `in` and list comparison never raise; and a
non-value where a value is due (a str for a denominator, a factor, a weight
or an order) is a TypeError from same_width that shows the value.
"""

import operator
import re

import pytest

from tropdiff import (
    BooleanWeight,
    DiffMonomial,
    DiffPoly,
    DimensionMismatch,
    QPoly,
    RationalFunction,
    VertexFraction,
    VertexPoly,
    initial_form,
    order_standard,
    residue,
    translate,
    tropw,
)
from tropdiff.errors import same_width


def values(m: int) -> dict:
    """One value of each kind at width m."""
    t = QPoly.variable(m, 1)
    vp = VertexPoly(m, [(1,) + (0,) * (m - 1)])
    x = DiffMonomial.var(1, (0,) * m)
    return {
        "m": m,
        "x": x,
        "QPoly": t,
        "RationalFunction": RationalFunction(t, t + 1),
        "VertexPoly": vp,
        "VertexFraction": VertexFraction(vp, VertexPoly.one(m)),
        "DiffPoly": DiffPoly(m, 1, {x: t}),
        "order": order_standard("lex", m),
        "weight": BooleanWeight.full(m),
    }


A, B = values(2), values(3)

# each builds one operation from a value at m = 2 (a) and one at m = 3 (b)
MIXED = {
    "QPoly +": lambda a, b: a["QPoly"] + b["QPoly"],
    "QPoly -": lambda a, b: a["QPoly"] - b["QPoly"],
    "QPoly *": lambda a, b: a["QPoly"] * b["QPoly"],
    "QPoly.product": lambda a, b: QPoly.product(a["m"], [a["QPoly"], b["QPoly"]]),
    "QPoly.sum_of_products": lambda a, b: QPoly.sum_of_products(a["m"], [(a["QPoly"], b["QPoly"])]),
    "RationalFunction(num, den)": lambda a, b: RationalFunction(a["QPoly"], b["QPoly"]),
    "RationalFunction +": lambda a, b: a["RationalFunction"] + b["RationalFunction"],
    "RationalFunction -": lambda a, b: a["RationalFunction"] - b["RationalFunction"],
    "RationalFunction *": lambda a, b: a["RationalFunction"] * b["RationalFunction"],
    "RationalFunction /": lambda a, b: a["RationalFunction"] / b["RationalFunction"],
    "RationalFunction + QPoly": lambda a, b: a["RationalFunction"] + b["QPoly"],
    "QPoly + RationalFunction": lambda a, b: a["QPoly"] + b["RationalFunction"],
    "RationalFunction * QPoly": lambda a, b: a["RationalFunction"] * b["QPoly"],
    "RationalFunction / QPoly": lambda a, b: a["RationalFunction"] / b["QPoly"],
    "VertexPoly +": lambda a, b: a["VertexPoly"] + b["VertexPoly"],
    "VertexPoly *": lambda a, b: a["VertexPoly"] * b["VertexPoly"],
    "VertexPoly <=": lambda a, b: a["VertexPoly"] <= b["VertexPoly"],
    "VertexPoly.sum_of_products": lambda a, b: VertexPoly.sum_of_products(a["m"], [(a["VertexPoly"], b["VertexPoly"])]),
    "VertexFraction(num, den)": lambda a, b: VertexFraction(a["VertexPoly"], b["VertexPoly"]),
    "VertexFraction +": lambda a, b: a["VertexFraction"] + b["VertexFraction"],
    "VertexFraction *": lambda a, b: a["VertexFraction"] * b["VertexFraction"],
    "VertexFraction <=": lambda a, b: a["VertexFraction"] <= b["VertexFraction"],
    "DiffPoly(m, n, terms)": lambda a, b: DiffPoly(a["m"], 1, {a["x"]: b["RationalFunction"]}),
    "DiffPoly +": lambda a, b: a["DiffPoly"] + b["DiffPoly"],
    "DiffPoly -": lambda a, b: a["DiffPoly"] - b["DiffPoly"],
    "DiffPoly *": lambda a, b: a["DiffPoly"] * b["DiffPoly"],
    "DiffPoly + QPoly": lambda a, b: a["DiffPoly"] + b["QPoly"],
    "DiffPoly * RationalFunction": lambda a, b: a["DiffPoly"] * b["RationalFunction"],
    "residue": lambda a, b: residue(a["RationalFunction"], b["order"]),
    "tropw": lambda a, b: tropw(a["DiffPoly"], [b["weight"]]),
    "translate": lambda a, b: translate(a["DiffPoly"], [b["weight"]]),
    "initial_form": lambda a, b: initial_form(a["DiffPoly"], [a["weight"]], b["order"]),
    "DiffPoly.evaluate": lambda a, b: a["DiffPoly"].evaluate([b["QPoly"]]),
}


@pytest.mark.parametrize("operation", MIXED.values(), ids=MIXED.keys())
def test_mixed_widths_are_refused_with_the_one_message(operation):
    # a reflected operator (QPoly + RationalFunction) names the right operand's m first
    for a, b in ((A, B), (B, A)):
        with pytest.raises(DimensionMismatch, match="^mixing m=(2 with m=3|3 with m=2)$"):
            operation(a, b)


# == of a value at m = 2 (a) and one at m = 3 (b), for each kind and across QPoly and RationalFunction
EQUALS = {
    "QPoly": lambda a, b: a["QPoly"] == b["QPoly"],
    "RationalFunction": lambda a, b: a["RationalFunction"] == b["RationalFunction"],
    "RationalFunction == QPoly": lambda a, b: a["RationalFunction"] == b["QPoly"],
    "QPoly == RationalFunction": lambda a, b: a["QPoly"] == b["RationalFunction"],
    "VertexPoly": lambda a, b: a["VertexPoly"] == b["VertexPoly"],
    "VertexFraction": lambda a, b: a["VertexFraction"] == b["VertexFraction"],
    "DiffPoly": lambda a, b: a["DiffPoly"] == b["DiffPoly"],
    "one RationalFunction": lambda a, b: RationalFunction(QPoly.one(a["m"])) == RationalFunction(QPoly.one(b["m"])),
    "one VertexFraction": lambda a, b: VertexFraction.one(a["m"]) == VertexFraction.one(b["m"]),
}


@pytest.mark.parametrize("operation", EQUALS.values(), ids=EQUALS.keys())
def test_values_of_two_widths_are_unequal(operation):
    for a, b in ((A, B), (B, A)):
        assert operation(a, b) is False


@pytest.mark.parametrize("kind", ["QPoly", "RationalFunction", "VertexPoly", "VertexFraction", "DiffPoly"])
def test_membership_and_list_comparison_across_widths_never_raise(kind):
    assert A[kind] not in [B[kind]] and [A[kind]] != [B[kind]]
    assert A[kind] in [B[kind], A[kind]]


# each asks same_width of a str where a value over m = 2 is due
NON_VALUES = {
    "RationalFunction(num, den)": lambda a: RationalFunction(a["QPoly"], "x"),
    "VertexFraction(num, den)": lambda a: VertexFraction(a["VertexPoly"], "x"),
    "residue": lambda a: residue(a["RationalFunction"], "lex"),
    "tropw": lambda a: tropw(a["DiffPoly"], ["x"]),
    "initial_form": lambda a: initial_form(a["DiffPoly"], [a["weight"]], "lex"),
    "QPoly.product": lambda a: QPoly.product(a["m"], ["x"]),
}


@pytest.mark.parametrize("operation", NON_VALUES.values(), ids=NON_VALUES.keys())
def test_a_non_value_where_a_value_is_due_is_a_type_error(operation):
    with pytest.raises(TypeError, match="^expected a value over m=2, got '(x|lex)'$"):
        operation(A)


def test_same_width_shows_a_huge_non_value_briefly():
    with pytest.raises(TypeError) as info:
        same_width(2, "x" * 100_000)
    assert str(info.value).endswith("... (str of length 100000)") and len(str(info.value)) < 1024


def test_mixed_n_is_refused_by_diffpoly():
    other = DiffPoly(2, 2, {A["x"]: 1})
    for operation in (A["DiffPoly"].__add__, A["DiffPoly"].__sub__, A["DiffPoly"].__mul__):
        with pytest.raises(DimensionMismatch, match=re.escape("mixing n=1 with n=2")):
            operation(other)


# each operator that a kind defines, applied with a str on either side
OPERATORS = {
    "QPoly": ("add", "sub", "mul", "truediv"),
    "RationalFunction": ("add", "sub", "mul", "truediv"),
    "VertexPoly": ("add", "mul", "le"),
    "VertexFraction": ("add", "mul", "le"),
    "DiffPoly": ("add", "sub", "mul"),
}
FOREIGN = [(kind, name, side) for kind, names in OPERATORS.items() for name in names for side in ("left", "right")]


@pytest.mark.parametrize("kind, name, side", FOREIGN, ids=str)
def test_a_foreign_operand_is_a_type_error(kind, name, side):
    operands = (A[kind], "x") if side == "left" else ("x", A[kind])
    with pytest.raises(TypeError):
        getattr(operator, name)(*operands)


@pytest.mark.parametrize("kind", [*OPERATORS, "weight"])
def test_a_foreign_operand_is_unequal(kind):
    value = A[kind]
    assert value.__eq__("x") is NotImplemented
    assert (value == "x") is False and (value != "x") is True


def test_equal_vertex_sets_hash_alike():
    assert hash(VertexPoly(2, [(1, 0), (2, 1)])) == hash(A["VertexPoly"])
    assert len({A["VertexPoly"], VertexPoly(2, [(1, 0)]), B["VertexPoly"]}) == 2


def test_same_width_returns_the_value_or_names_both_widths():
    assert same_width(2, A["VertexFraction"]) is A["VertexFraction"]
    assert A["VertexFraction"].m == 2
    with pytest.raises(DimensionMismatch, match="^mixing m=2 with m=3$"):
        same_width(2, B["VertexFraction"])
