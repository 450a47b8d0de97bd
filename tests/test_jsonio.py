import json
import random
from fractions import Fraction

import pytest

from helpers import (
    diff_monomial,
    diffpoly,
    json_tree,
    matrix_order,
    qpoly,
    qpoly_json,
    rational,
    rational_json,
    weight,
)
from tropdiff import (
    BooleanWeight,
    DiffMonomial,
    DiffPoly,
    MonomialOrder,
    QPoly,
    RationalFunction,
    SchemaError,
    SubstitutionKernel,
    VertexFraction,
    VertexPoly,
    order_standard,
    parse_poly,
    parse_rational,
)
from tropdiff import jsonio
from tropdiff.jsonio import (
    diffpoly_from,
    dumps,
    diffpoly_json,
    order_from,
    order_json,
    problem_from,
    qpoly_from,
    rational_from,
    vertexfraction_json,
    vertexpoly_json,
    weight_from,
    weight_json,
)


class TestVertexEncoding:
    def test_points_largest_first(self):
        vp = VertexPoly(2, [(3, 0), (1, 1), (0, 3)])
        assert vertexpoly_json(vp) == [[3, 0], [1, 1], [0, 3]]

    def test_zero(self):
        assert vertexpoly_json(VertexPoly.zero(2)) == []

    def test_fraction(self):
        vf = VertexFraction(VertexPoly(2, [(1, 0), (0, 1)]))
        assert vertexfraction_json(vf) == {
            "num": [[1, 0], [0, 1]],
            "den": [[0, 0]],
        }


class TestQPolyRoundTrip:
    def test_shape(self):
        f = parse_poly("t^2 - 1/2*u")
        assert qpoly_json(f) == {
            "terms": [
                {"exp": [0, 1], "coeff": "-1/2"},
                {"exp": [2, 0], "coeff": "1"},
            ]
        }

    def test_round_trip(self):
        rng = random.Random(131)
        for _ in range(100):
            f = qpoly(rng, 2)
            assert qpoly_from(qpoly_json(f), 2) == f

    def test_text_accepted(self):
        assert qpoly_from("t + u", 2) == parse_poly("t + u")

    def test_duplicate_exponents_accumulate(self):
        obj = {
            "terms": [
                {"exp": [1, 0], "coeff": "2"},
                {"exp": [1, 0], "coeff": "-2"},
            ]
        }
        assert qpoly_from(obj, 2).is_zero

    def test_rejects(self):
        with pytest.raises(SchemaError):
            qpoly_from(42, 2)
        with pytest.raises(SchemaError):
            qpoly_from({"terms": [{"exp": [1, "x"], "coeff": "1"}]}, 2)
        with pytest.raises(SchemaError):
            qpoly_from({"terms": [{"exp": [1, 0], "coeff": "one"}]}, 2)

    def test_zero_denominator_is_a_schema_error(self):
        with pytest.raises(SchemaError, match="1/0"):
            qpoly_from({"terms": [{"exp": [1, 0], "coeff": "1/0"}]}, 2)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_coefficient_text_is_str_of_fraction(self, m):
        # the text comes from series.fraction_text, never from a Fraction
        rng = random.Random(167 + m)
        for _ in range(60):
            terms = {
                tuple(rng.randrange(4) for _ in range(m)): Fraction(
                    rng.choice((-1, 1)) * rng.randint(0, 2**70), rng.choice((1, 2, 6, 2**65 + 3))
                )
                for _ in range(rng.randint(1, 4))
            }
            f = QPoly(m, terms)
            assert qpoly_json(f) == {
                "terms": [{"exp": list(e), "coeff": str(c)} for e, c in sorted(f.terms.items())]
            }

    def test_rejects_a_nested_exponent_entry(self):
        with pytest.raises(SchemaError):
            qpoly_from({"terms": [{"exp": [1, [0]], "coeff": "1"}]}, 2)


class TestRationalRoundTrip:
    def test_round_trip(self):
        rng = random.Random(132)
        for _ in range(100):
            q = rational(rng, 2)
            assert rational_from(rational_json(q), 2) == q

    def test_den_defaults_to_one(self):
        q = rational_from({"num": "t"}, 2)
        assert q == parse_rational("t", 2)

    def test_text(self):
        assert rational_from("t/(t+u)", 2) == parse_rational("t/(t+u)")

    def test_width_inferred_from_text(self):
        got = rational_from({"num": "t", "den": "t+u"})
        assert got == parse_rational("t/(t+u)")

    def test_width_inferred_from_exponents(self):
        got = rational_from({"num": {"terms": [{"exp": [1, 0, 0], "coeff": "1"}]}})
        assert got.m == 3

    def test_mixed_sides(self):
        got = rational_from({"num": {"terms": []}, "den": "t"})
        assert got.m == 2 and got.is_zero

    def test_width_unknowable(self):
        with pytest.raises(SchemaError):
            qpoly_from({"terms": []})
        with pytest.raises(SchemaError):
            rational_from({"num": {"terms": []}})

    def test_rejects(self):
        with pytest.raises(SchemaError):
            rational_from([], 2)


class TestWeightRoundTrip:
    def test_shapes(self):
        assert weight_json(BooleanWeight.full(2)) == {"type": "full"}
        assert weight_json(BooleanWeight.cofinite(2, [(1, 1)])) == {
            "type": "cofinite",
            "excluded": [[1, 1]],
        }
        assert weight_json(BooleanWeight.finite(2, [(1, 0), (0, 1)])) == {
            "type": "finite",
            "points": [[0, 1], [1, 0]],
        }

    def test_round_trip(self):
        rng = random.Random(133)
        for _ in range(100):
            w = weight(rng, 2)
            assert weight_from(weight_json(w), 2) == w

    def test_rejects(self):
        with pytest.raises(SchemaError):
            weight_from({"type": "half"}, 2)
        with pytest.raises(SchemaError):
            weight_from("full", 2)

    def test_point_width_is_a_schema_error(self):
        with pytest.raises(SchemaError, match="coordinates"):
            weight_from({"type": "finite", "points": [[1, 0, 0]]}, 2)


class TestOrderRoundTrip:
    def test_named(self):
        for kind in ("lex", "grlex", "grevlex"):
            order = order_standard(kind, 2)
            assert order_json(order) == {"type": kind}
            assert order_from(order_json(order), 2) == order

    def test_matrix(self):
        order = MonomialOrder([[1, 0], [0, 1]])
        blob = order_json(order)
        assert blob == {"type": "matrix", "rows": [[1, 0], [0, 1]]}
        assert order_from(blob, 2) == order

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_written_by_the_name_its_rows_give(self, m):
        # at m = 1 the three names are one matrix, written as lex
        rng = random.Random(146 + m)
        orders = [order_standard(kind, m) for kind in ("lex", "grlex", "grevlex")]
        orders += [MonomialOrder(order.rows) for order in orders]
        orders += [matrix_order(rng, m) for _ in range(20)]
        for order in orders:
            blob = order_json(order)
            assert blob["type"] == order.kind
            assert order_from(blob, m) == order
        assert order_json(order_standard("grlex", 1)) == {"type": "lex"}

    def test_rejects(self):
        with pytest.raises(SchemaError):
            order_from({"type": "matrix", "rows": []}, 2)
        with pytest.raises(SchemaError):
            order_from({"type": "matrix", "rows": [[1, 0, 0]]}, 2)
        with pytest.raises(SchemaError):
            order_from({"type": "alphabetical"}, 2)


class TestDiffPolyRoundTrip:
    def test_shape(self):
        P = DiffPoly(2, 1, {DiffMonomial.var(1, (1, 1)): 1})
        assert json_tree(diffpoly_json(P)) == [
            {
                "coeff": {
                    "num": {"terms": [{"exp": [0, 0], "coeff": "1"}]},
                    "den": {"terms": [{"exp": [0, 0], "coeff": "1"}]},
                },
                "monomial": [{"var": [1, [1, 1]], "pow": 1}],
            }
        ]

    def test_round_trip(self):
        rng = random.Random(134)
        for _ in range(100):
            n = rng.choice((1, 2))
            P = diffpoly(rng, 2, n)
            assert diffpoly_from(through_text(diffpoly_json(P)), 2, n) == P

    def test_pow_defaults_to_one(self):
        got = diffpoly_from(
            [{"coeff": "1", "monomial": [{"var": [1, [0, 0]]}]}], 2, 1
        )
        assert got == DiffPoly(2, 1, {DiffMonomial.var(1, (0, 0)): 1})

    def test_terms_accumulate(self):
        got = diffpoly_from(
            [
                {"coeff": "t", "monomial": [{"var": [1, [0, 0]]}]},
                {"coeff": "-t", "monomial": [{"var": [1, [0, 0]]}]},
            ],
            2,
            1,
        )
        assert got.is_zero

    def test_rejects(self):
        with pytest.raises(SchemaError):
            diffpoly_from({"coeff": "1"}, 2, 1)
        with pytest.raises(SchemaError):
            diffpoly_from([{"monomial": []}], 2, 1)
        with pytest.raises(SchemaError):
            diffpoly_from([{"coeff": "1", "monomial": [{"var": [2, [0, 0]]}]}], 2, 1)
        with pytest.raises(SchemaError):
            diffpoly_from([{"coeff": "1", "monomial": [{"var": [1, [0]]}]}], 2, 1)
        with pytest.raises(SchemaError):
            diffpoly_from(
                [{"coeff": "1", "monomial": [{"var": [1, [0, 0]], "pow": 0}]}], 2, 1
            )


class TestProblemFile:
    def test_example_file(self):
        with open("tests/data/exp_problem.json") as fh:
            problem = problem_from(json.load(fh))
        assert problem.m == 2 and problem.n == 1
        assert problem.polynomials[0][0] == "P"
        assert problem.weights == [BooleanWeight.cofinite(2, [(1, 1)])]
        assert problem.order == order_standard("lex", 2)
        assert problem.kernel is SubstitutionKernel.INDICATOR
        assert problem.prolong_bound == 2
        assert problem.pairs[0] == ((1, 0), (0, 1))

    def test_defaults(self):
        problem = problem_from({"m": 2})
        assert problem.n == 1
        assert problem.polynomials == []
        assert problem.weights is None
        assert problem.order is None
        assert problem.prolong_bound == 0
        assert problem.pairs == []

    def test_rejects(self):
        with pytest.raises(SchemaError):
            problem_from([])
        with pytest.raises(SchemaError):
            problem_from({})
        with pytest.raises(SchemaError):
            problem_from({"m": 2, "n": 2, "weight": [{"type": "full"}]})
        with pytest.raises(SchemaError):
            problem_from({"m": 2, "kernel": "binomial"})
        with pytest.raises(SchemaError):
            problem_from({"m": 2, "prolong_bound": -1})
        with pytest.raises(SchemaError):
            problem_from({"m": 2, "pairs": [[[1, 0]]]})
        with pytest.raises(SchemaError):
            problem_from({"m": 2, "pairs": [[[1, 0], [0, 1, 0]]]})
        with pytest.raises(SchemaError):
            problem_from({"m": 2, "polynomials": [{"name": "P"}]})


# -- the canonical writer ----------------------------------------------------

STRINGS = ("", "x", "é", "日本", "😀", 'say "hi"', "back\\slash", "tab\t", "\x00\x1f", "\u2028", "/")


def _json_value(rng, depth):
    """A random value of the four written types, nested up to depth."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        if rng.random() < 0.5:
            return rng.choice(STRINGS) + rng.choice(STRINGS)
        return rng.choice((0, -1, rng.randint(-10**6, 10**6), 2**64 + 1, -(3**50)))
    width = rng.randint(0, 4)
    if roll < 0.5:
        return [rng.randint(-99, 2**70) for _ in range(width)]
    if roll < 0.75:
        return [_json_value(rng, depth - 1) for _ in range(width)]
    keys = rng.sample(STRINGS + ("b", "a", "B", "aa", "10", "9"), width)
    return {key: _json_value(rng, depth - 1) for key in keys}


def through_text(value):
    """value as the CLI writes it and a JSON reader reads it back."""
    return json.loads(dumps(value))


@pytest.mark.parametrize("m", [3, 4], ids=["m3", "m4"])
class TestRoundTripThroughText:
    def test_polynomials_and_fractions(self, m):
        rng = random.Random(141 + m)
        for _ in range(40):
            f = qpoly(rng, m)
            assert qpoly_from(through_text(f), m).terms == f.terms
            q = rational(rng, m)
            back = rational_from(through_text(q), m)
            assert (back.num.terms, back.den.terms) == (q.num.terms, q.den.terms)
            back = rational_from(through_text(q))  # width read off the exponents
            assert (back.num.terms, back.den.terms) == (q.num.terms, q.den.terms)

    def test_differential_polynomials(self, m):
        rng = random.Random(143 + m)
        for _ in range(20):
            n = rng.choice((1, 2))
            P = diffpoly(rng, m, n)
            back = diffpoly_from(through_text(diffpoly_json(P)), m, n)
            assert back == P
            assert json_tree(diffpoly_json(back)) == json_tree(diffpoly_json(P))

    def test_weights_and_orders(self, m):
        rng = random.Random(145 + m)
        for _ in range(40):
            w = weight(rng, m)
            assert weight_from(through_text(weight_json(w)), m) == w
            order = matrix_order(rng, m)
            assert order_from(through_text(order_json(order)), m) == order
        for kind in ("lex", "grlex", "grevlex"):
            order = order_standard(kind, m)
            assert order_from(through_text(order_json(order)), m) == order


class TestDumps:
    def test_matches_json_dumps(self):
        rng = random.Random(20231)
        values = [[], {}, [[]], [{}], {"b": 1, "a": [], "c": {}}, -(2**64) - 5]
        values += [_json_value(rng, 4) for _ in range(400)]
        for value in values:
            assert dumps(value) == json.dumps(value, sort_keys=True, indent=2)

    def test_library_encodings_match_json_dumps(self):
        rng = random.Random(20232)
        for m in (2, 3):
            value = [diffpoly_json(diffpoly(rng, m, 2)) for _ in range(10)]
            assert dumps(value) == json.dumps(json_tree(value), sort_keys=True, indent=2)

    @pytest.mark.parametrize(
        "value",
        [1.5, True, None, (1, 2), [1, False], {"a": None}, [[0.0]], {1: 2}],
        ids=["float", "bool", "none", "tuple", "bool-in-list", "none-in-dict", "nested-float", "int-key"],
    )
    def test_other_types_are_type_errors(self, value):
        with pytest.raises(TypeError):
            dumps(value)


def as_json_dumps(value):
    """The bytes dumps(value) must write: the oracle tree through json.dumps."""
    return json.dumps(json_tree(value), sort_keys=True, indent=2)


def _library_value(rng, m):
    kind = rng.randrange(4)
    if kind == 0:
        return qpoly(rng, m)
    if kind == 1:
        return rational(rng, m)
    if kind == 2:
        return diff_monomial(rng, m, 2)
    return diffpoly_json(diffpoly(rng, m, 2))


def _nested(rng, value, depth):
    """value inside depth lists and dicts, with plain siblings at each level."""
    for _ in range(depth):
        if rng.random() < 0.5:
            value = [rng.randint(-5, 5), value, "x"][rng.randrange(2):]
        else:
            value = {"coeff": value, "a": [], "terms": 7}
    return value


@pytest.mark.parametrize("m", [1, 2, 3], ids=["m1", "m2", "m3"])
class TestLibraryValuesWritten:
    """dumps writes QPoly, RationalFunction and DiffMonomial without a tree."""

    def test_match_json_dumps_of_the_tree(self, m):
        rng = random.Random(301 + m)
        for depth in range(4):
            for _ in range(60):
                value = _nested(rng, _library_value(rng, m), depth)
                assert dumps(value) == as_json_dumps(value)
        mixed = [[_library_value(rng, m) for _ in range(3)], {"b": _library_value(rng, m)}]
        assert dumps(mixed) == as_json_dumps(mixed)

    def test_zero_polynomial(self, m):
        zero = QPoly.zero(m)
        assert dumps(zero) == '{\n  "terms": []\n}'
        for value in (zero, [zero], {"a": [zero]}, RationalFunction(zero)):
            assert dumps(value) == as_json_dumps(value)
        assert json.loads(dumps(RationalFunction(zero)))["num"] == {"terms": []}

    def test_signs_denominators_and_large_integers(self, m):
        rng = random.Random(311 + m)
        big = 2**64
        for _ in range(40):
            terms = {
                tuple(rng.choice((0, 1, 3, big + 7)) for _ in range(m)): Fraction(
                    rng.choice((-1, 1)) * rng.choice((1, 5, big + 1, 3**50)),
                    rng.choice((1, 1, 2, big + 3)),
                )
                for _ in range(rng.randint(1, 4))
            }
            f = QPoly(m, terms)
            integral = QPoly(m, {e: c.numerator for e, c in terms.items()})  # denominator 1
            for value in (f, -f, integral, RationalFunction(integral, f), [f, {"x": -integral}]):
                assert dumps(value) == as_json_dumps(value)
            assert json.loads(dumps(f)) == qpoly_json(f)

    def test_constant_monomial_and_powers(self, m):
        J = tuple(range(1, m + 1))
        one = DiffMonomial()
        assert dumps(one) == "[]"
        monomials = (
            one,
            DiffMonomial.var(1, J, 3),
            DiffMonomial.var(2, J, 2**65) * DiffMonomial.var(1, (0,) * m),
            DiffMonomial.var(2**64 + 1, (2**70,) * m),
            DiffMonomial.var(1, ()),  # no DiffPoly holds it, but the monomial is legal
        )
        for mono in monomials:
            for value in (mono, [mono], {"monomial": mono}, [{"m": [mono]}]):
                assert dumps(value) == as_json_dumps(value)
        P = DiffPoly(m, 2, {one: parse_rational("-1/2", m), monomials[1]: 1})
        value = diffpoly_json(P)
        assert dumps(value) == as_json_dumps(value)
        assert json.loads(dumps(value))[-1]["monomial"] == []

    def test_encoding_holds_the_values(self, m):
        rng = random.Random(321 + m)
        P = diffpoly(rng, m, 2)
        value = diffpoly_json(P)
        assert [entry["monomial"] for entry in value] == sorted(
            P.terms, key=lambda E: (E.total_degree, E.factors), reverse=True
        )
        assert all(entry["coeff"] is P.terms[entry["monomial"]] for entry in value)
        assert through_text(value) == json_tree(value)


class TestWriterWork:
    def test_write_calls_do_not_grow_with_coefficient_terms(self, monkeypatch):
        calls = []
        write = jsonio._write

        def counted(value, newline):
            calls.append(type(value))
            return write(value, newline)

        monkeypatch.setattr(jsonio, "_write", counted)
        monomials = [DiffMonomial(), DiffMonomial.var(1, (1, 0), 2), DiffMonomial.var(2, (0, 3))]
        wide = QPoly(2, {(i, j): i - j or 1 for i in range(10) for j in range(5)})
        counts = []
        for coefficient in (RationalFunction(QPoly.monomial((1, 0), 3)), RationalFunction(wide, wide + 1)):
            P = DiffPoly(2, 2, {mono: coefficient for mono in monomials})
            calls.clear()
            text = dumps(diffpoly_json(P))
            assert text.count('"exp"') == len(monomials) * (len(coefficient.num.terms) + len(coefficient.den.terms))
            counts.append(len(calls))
        # the list, and per term its dict, its coefficient and its monomial
        assert counts == [1 + 3 * len(monomials)] * 2

    @pytest.mark.parametrize(
        "value",
        [DiffPoly.zero(2, 1), VertexPoly.zero(2), Fraction(1, 2), [QPoly.one(2), 0.5]],
        ids=["diffpoly", "vertexpoly", "fraction", "float-beside-a-qpoly"],
    )
    def test_other_library_values_are_type_errors(self, value):
        with pytest.raises(TypeError):
            dumps(value)
