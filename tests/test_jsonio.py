import json
import random
import re
from fractions import Fraction

import pytest

from helpers import (
    diff_monomial,
    diffmonomial_json,
    diffpoly,
    diffpoly_entries,
    diffpoly_by_fold,
    exponent,
    json_tree,
    matrix_order,
    order_json,
    qpoly,
    qpoly_json,
    rational,
    rational_json,
    weight,
    weight_json,
)
from tropdiff import (
    BooleanWeight,
    DiffMonomial,
    DiffPoly,
    DimensionMismatch,
    MonomialOrder,
    PolyParseError,
    QPoly,
    RationalFunction,
    SchemaError,
    SubstitutionKernel,
    VertexFraction,
    VertexPoly,
    order_standard,
    parse_poly,
    parse_rational,
    prolong,
)
from tropdiff import jsonio
from tropdiff.jsonio import (
    diffpoly_from,
    dumps,
    diffpoly_json,
    order_from,
    problem_from,
    qpoly_from,
    rational_from,
    vertexfraction_json,
    vertexpoly_json,
    weight_from,
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

    @pytest.mark.parametrize(
        "coeff, value", [("-3/4", Fraction(-3, 4)), ("12", 12), (7, 7), ("6/4", Fraction(3, 2))]
    )
    def test_a_coefficient_in_the_written_form_is_read(self, coeff, value):
        assert qpoly_from({"terms": [{"exp": [1, 0], "coeff": coeff}]}, 2).terms == {(1, 0): value}

    @pytest.mark.parametrize(
        "coeff",
        [
            "0.1", "1e3", "1_000", " 3/4", "3/4\n", "+5", "１", "٣",
            "1/0", "1/-2", "-", "", "1e30000000", 0.5, True, None,
        ],
    )
    def test_any_other_coefficient_is_a_schema_error_that_names_it(self, coeff):
        # Fraction's own grammar reads each text before "1/0", and "1e30000000" as
        # an int of thirty million digits
        with pytest.raises(SchemaError, match=re.escape(repr(coeff))):
            qpoly_from({"terms": [{"exp": [1, 0], "coeff": coeff}]}, 2)

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
        # one rule, and one refusal, for both decoders
        for decode, obj in [(qpoly_from, {"terms": []}), (rational_from, {"num": {"terms": []}})]:
            with pytest.raises(SchemaError, match="^cannot infer the exponent width; pass m$"):
                decode(obj)

    def test_exponent_lists_take_precedence_over_text(self):
        got = rational_from({"num": "t", "den": {"terms": [{"exp": [0, 0, 0, 1], "coeff": "1"}]}})
        assert got == rational_from("t/t4") and got.m == 4
        with pytest.raises(PolyParseError, match="^variable t3 exceeds m=2"):
            rational_from({"num": "t3", "den": {"terms": [{"exp": [0, 1], "coeff": "1"}]}})

    def test_width_is_read_from_the_first_exponent_list_of_a_side(self):
        terms = [{"coeff": "1"}, {"exp": [1, 0, 0], "coeff": "1"}]
        with pytest.raises(SchemaError, match="^exponent must be a list, got None$"):
            rational_from({"num": {"terms": terms}})

    def test_a_deep_terms_list_is_a_schema_error(self):
        deep = []
        for _ in range(5000):
            deep = [deep]
        with pytest.raises(SchemaError, match="^cannot infer the exponent width; pass m$"):
            rational_from({"num": {"terms": deep}})

    def test_a_deep_terms_list_at_a_given_width_is_a_schema_error(self):
        deep = []
        for _ in range(5000):
            deep = [deep]
        shown = r", got \(list of length 1\)$"
        with pytest.raises(SchemaError, match="^term must be an object with exp and coeff" + shown):
            rational_from({"num": {"terms": deep}}, 2)
        with pytest.raises(SchemaError, match="^expected polynomial text or a terms object" + shown):
            qpoly_from(deep, 2)

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

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_round_trip_through_the_bytes(self, m):
        rng = random.Random(134 + m)
        for _ in range(60):
            w = weight(rng, m)
            for v in (w, w.shift(exponent(rng, m, 3))):
                back = weight_from(through_text(weight_json(v)), m)
                assert back == v and hash(back) == hash(v) and back.kind == v.kind

    def test_rejects(self):
        with pytest.raises(SchemaError):
            weight_from({"type": "half"}, 2)
        with pytest.raises(SchemaError):
            weight_from("full", 2)

    @pytest.mark.parametrize(
        "obj, named",
        [
            ({"type": "full", "excluded": []}, "'excluded'"),
            ({"type": "finite", "excluded": [[1, 1]]}, "'excluded'"),
            ({"type": "cofinite", "points": [[0, 0]], "note": 1}, "'points', 'note'"),
        ],
        ids=["full", "finite", "cofinite"],
    )
    def test_a_key_of_another_type_is_named(self, obj, named):
        with pytest.raises(SchemaError, match=f"^{obj['type']} weight takes no key {named}$"):
            weight_from(obj, 2)

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

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"type": "grlex", "rows": [[1, 1], [1, 0]]}, "grlex order takes no key 'rows'"),
            ({"type": "matrix", "rows": [[1, 0], [0, 1]], "kind": "lex"}, "matrix order takes no key 'kind'"),
        ],
        ids=["named", "matrix"],
    )
    def test_a_key_of_another_type_is_named(self, obj, message):
        with pytest.raises(SchemaError, match=f"^{message}$"):
            order_from(obj, 2)

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


X = [{"var": [1, [0, 0]]}]
# spelt in several ways: the last two entries are one monomial, x1_(1,0)^2
MONOMIALS = [
    [],
    X,
    [{"var": [2, [0, 1]]}, {"var": [1, [0, 0]], "pow": 1}],
    [{"var": [1, [1, 0]], "pow": 2}],
    [{"var": [1, [1, 0]]}, {"var": [1, [1, 0]]}],
]
# an index past n = 2, an index 0, a short and a negative multi-index, a zero power;
# then two faults of different kinds in different factors, where the first faulty
# factor in file order is the one reported (TWO_FAULTS pins each message)
BAD_MONOMIALS = [
    [{"var": [3, [0, 0]]}],
    [{"var": [0, [1, 0]]}],
    [{"var": [1, [0]]}],
    [{"var": [2, [0, -1]]}, {"var": [1, [0, 0]]}],
    [{"var": [1, [0, 0]], "pow": 0}],
    [{"var": [1, [0]]}, {"var": [1, [0, 0]], "pow": 0}],
    [{"var": [3, [0, 0]]}, {"var": [True, [0, 0]]}],
    [{"var": [1, [0, 0]], "pow": 0}, {"var": [3, [0, 0]]}],
    [{"var": [3, [0, 0]]}, {"var": [2, [0]]}],
    [{"var": [1, [0, -1]]}, {"var": [0, [0, 0]]}],
    [{"var": [1, [0]]}, 5],
]
BAD_IDS = [
    "index-past-n", "index-0", "short", "negative", "pow-0",
    "short-then-pow-0", "past-n-then-bool", "pow-0-then-past-n", "past-n-then-short-of-a-lower-index",
    "negative-then-index-0", "short-then-no-object",
]
# (class of the cause, message) of each two-fault monomial above
TWO_FAULTS = {
    "short-then-pow-0": (DimensionMismatch, "multi-index: (0,) does not have 2 coordinates"),
    "past-n-then-bool": (DimensionMismatch, "unknown index 3 out of range for n=2"),
    "pow-0-then-past-n": (type(None), "pow must be a positive integer, got 0"),
    "past-n-then-short-of-a-lower-index": (DimensionMismatch, "unknown index 3 out of range for n=2"),
    "negative-then-index-0": (ValueError, "multi-index must be nonnegative, got (0, -1)"),
    "short-then-no-object": (DimensionMismatch, "multi-index: (0,) does not have 2 coordinates"),
}
# a zero over a denominator other than 1 would widen the denominator it is added to
ZEROS = ("0", "0/(t+u)", "0/t")
COEFFS = [*ZEROS, "1", "-1", "t", "-t", "2/3", "-2/3", "1/(t+u)", "-1/(t+u)", "t/(t+u)", "u/(t+u)", "(t-u)/(t*u)"]


def _negated(text):
    return text[1:] if text.startswith("-") else "-" + text


def _term_list(rng):
    """Terms over a few monomials, so that they repeat, cancel and come back;
    one list in eight hides a bad monomial behind a cancelling pair."""
    terms = []
    for _ in range(rng.randint(1, 8)):
        mono, coeff = rng.choice(MONOMIALS), rng.choice(COEFFS)
        terms.append({"coeff": coeff, "monomial": mono})
        if rng.random() < 0.3:
            terms.append({"coeff": _negated(coeff), "monomial": mono})
    if rng.random() < 0.125:
        at = rng.randint(0, len(terms))
        mono = rng.choice(MONOMIALS)
        pair = [{"coeff": "t", "monomial": mono}, {"coeff": "-t", "monomial": mono}]
        bad = {"coeff": rng.choice(COEFFS), "monomial": rng.choice(BAD_MONOMIALS)}
        terms[at:at] = [*pair, bad] if rng.random() < 0.5 else [bad, *pair]
    return terms


def _decoded(decode, terms):
    """What a decoder gives: the keys in order and the bytes, or the error."""
    try:
        P = decode(terms, 2, 2)
    except SchemaError as exc:
        return type(exc), str(exc), type(exc.__cause__)
    return list(P.terms), dumps(diffpoly_json(P)), dumps([P.terms[mono] for mono in P.terms])


class TestDecodeOracle:
    """diffpoly_from sums its terms in one pass; a fold of + over them is the oracle."""

    def test_seeded_term_lists_match_the_fold(self):
        rng = random.Random(3101)
        errors = repeats = zeros = 0
        for _ in range(600):
            terms = _term_list(rng)
            expected = _decoded(diffpoly_by_fold, terms)
            assert _decoded(diffpoly_from, terms) == expected, terms
            errors += expected[0] is SchemaError
            monos = [json.dumps(t["monomial"]) for t in terms]
            repeats += len(set(monos)) < len(monos)
            zeros += any(t["coeff"].lstrip("-") in ZEROS for t in terms)
        assert errors > 40 and repeats > 300 and zeros > 100

    def test_a_monomial_that_cancels_and_comes_back_moves_to_the_end(self):
        terms = [
            {"coeff": "t", "monomial": X},
            {"coeff": "1", "monomial": []},
            {"coeff": "-t", "monomial": X},
            {"coeff": "u/(t+u)", "monomial": X},
        ]
        got = diffpoly_from(terms, 2, 2)
        assert list(got.terms) == [DiffMonomial(), DiffMonomial.var(1, (0, 0))]
        assert dumps(got.terms[DiffMonomial.var(1, (0, 0))]) == dumps(parse_rational("u/(t+u)", 2))
        assert _decoded(diffpoly_from, terms) == _decoded(diffpoly_by_fold, terms)

    @pytest.mark.parametrize("bad", BAD_MONOMIALS, ids=BAD_IDS)
    def test_a_bad_monomial_behind_a_cancelling_pair_is_refused(self, bad):
        pair = [{"coeff": "t", "monomial": X}, {"coeff": "-t", "monomial": X}]
        for terms in (
            [*pair, {"coeff": "1", "monomial": bad}],
            [*pair, {"coeff": "0", "monomial": bad}],
            [{"coeff": "t", "monomial": bad}, {"coeff": "-t", "monomial": bad}],
        ):
            expected = _decoded(diffpoly_by_fold, terms)
            assert expected[0] is SchemaError
            assert _decoded(diffpoly_from, terms) == expected

    def test_no_sum_of_differential_polynomials_while_decoding(self, monkeypatch):
        added = []
        add = DiffPoly.__add__

        def counted_add(self, other):
            added.append(other)
            return add(self, other)

        rng = random.Random(3102)
        lists = [terms for terms in (_term_list(rng) for _ in range(100)) if len(terms) > 3]
        monkeypatch.setattr(DiffPoly, "__add__", counted_add)
        monkeypatch.setattr(DiffPoly, "__radd__", counted_add)
        diffpoly_by_fold([{"coeff": "t", "monomial": X}, {"coeff": "u", "monomial": X}], 2, 2)
        assert added, "the counter must see the fold's sums"
        added.clear()
        for terms in lists:
            try:
                diffpoly_from(terms, 2, 2)
            except SchemaError:
                pass
        assert added == []

    def test_no_diffpoly_is_built_per_term(self, monkeypatch):
        built = []
        init = DiffPoly.__init__

        def counted_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        rng = random.Random(3103)
        lists = [_term_list(rng) for _ in range(100)]
        monkeypatch.setattr(DiffPoly, "__init__", counted_init)
        DiffPoly(2, 2, {DiffMonomial(): 1})
        assert built, "the counter must see a constructor call"
        built.clear()
        decoded = 0
        for terms in lists:
            try:
                diffpoly_from(terms, 2, 2)
                decoded += 1
            except SchemaError:
                pass
        assert decoded > 50 and sum(map(len, lists)) > 300
        assert built == []

    @pytest.mark.parametrize("name", TWO_FAULTS)
    def test_the_first_faulty_factor_in_file_order_is_reported(self, name):
        bad = BAD_MONOMIALS[BAD_IDS.index(name)]
        cause, message = TWO_FAULTS[name]
        terms = [{"coeff": "1", "monomial": bad}]
        assert _decoded(diffpoly_from, terms) == (SchemaError, message, cause)
        # the factors in the other order report the other fault
        swapped = [{"coeff": "1", "monomial": bad[::-1]}]
        assert _decoded(diffpoly_from, swapped)[1] != message

    def test_the_first_malformed_term_is_the_one_reported(self):
        terms = [
            {"coeff": "1", "monomial": [{"var": [3, [0, 0]]}]},
            {"coeff": "t +", "monomial": X},
        ]
        with pytest.raises(SchemaError) as info:
            diffpoly_from(terms, 2, 2)
        assert str(info.value) == "unknown index 3 out of range for n=2"
        assert _decoded(diffpoly_from, terms) == _decoded(diffpoly_by_fold, terms)
        with pytest.raises(PolyParseError):
            diffpoly_from(terms[1:], 2, 2)


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


class TestUnknownKeys:
    """Every decoder object takes its documented keys only, so a misspelt key
    is a SchemaError that names it, not an absent key read as its default."""

    @pytest.mark.parametrize(
        "decode, args, message",
        [
            (problem_from, ({"m": 2, "prolong-bound": 2},), "problem file takes no key 'prolong-bound'"),
            (
                problem_from,
                ({"m": 2, "polynomials": [{"name": "P", "poly": [], "note": "x"}]},),
                "polynomial entry takes no key 'note'",
            ),
            (
                diffpoly_from,
                ([{"coeff": "1", "monomial": [], "kernal": "factorial"}], 2, 1),
                "differential polynomial term takes no key 'kernal'",
            ),
            (
                diffpoly_from,
                ([{"coeff": "1", "monomial": [{"var": [1, [1, 1]], "power": 3}]}], 2, 1),
                "monomial factor takes no key 'power'",
            ),
            (rational_from, ({"num": "t", "denom": "u"}, 2), "rational function object takes no key 'denom'"),
            (qpoly_from, ({"terms": [], "m": 2}, 2), "polynomial object takes no key 'm'"),
            (
                qpoly_from,
                ({"terms": [{"exp": [1, 0], "coeff": "1", "pow": 2}]}, 2),
                "polynomial term takes no key 'pow'",
            ),
        ],
        ids=["problem-file", "polynomial-entry", "diffpoly-term", "factor", "num-den", "terms", "term"],
    )
    def test_an_unknown_key_is_named(self, decode, args, message):
        with pytest.raises(SchemaError, match=f"^{message}$"):
            decode(*args)

    def test_many_unknown_keys_are_counted_past_the_first_three(self):
        obj = {"m": 2, "a": 1, "b": 2, "c": 3, "d": 4, "e": 5}
        message = "^problem file takes no key 'a', 'b', 'c' and 2 more$"
        with pytest.raises(SchemaError, match=message):
            problem_from(obj)


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

    def test_equal_polynomials_at_several_indents(self, m):
        # dumps writes each distinct (polynomial, indent) once and reuses the text
        rng = random.Random(331 + m)
        pool = [qpoly(rng, m), QPoly.zero(m), QPoly.one(m)]
        pool += [QPoly(m, dict(reversed(f.terms.items()))) for f in pool]  # equal, other objects
        dens = [f for f in pool if not f.is_zero]
        pool += [RationalFunction(rng.choice(pool), rng.choice(dens)) for _ in range(4)]
        for _ in range(40):
            value = [_nested(rng, rng.choice(pool), rng.randrange(4)) for _ in range(6)]
            assert dumps(value) == as_json_dumps(value)
        f = pool[0]
        value = [f, {"a": [pool[3]], "b": RationalFunction(f, f)}, [[f]]]
        assert dumps(value) == as_json_dumps(value) and dumps(f) == as_json_dumps(f)

    def test_shared_and_equal_coefficients_and_monomials(self, m):
        # dumps keeps a coefficient's text by object and a monomial's by value,
        # once per indent; an equal coefficient that is another object, a
        # constant QPoly equal to a coefficient's id, and the shared objects of
        # a prolongation must all still give the oracle's bytes
        rng = random.Random(341 + m)
        c = rational(rng, m)
        mono = diff_monomial(rng, m, 2)
        pool = [
            c,
            RationalFunction(c.num, c.den),  # equal, another object
            RationalFunction(c.num * 2, c.den * 2),  # equal value, other representative
            QPoly.constant(m, id(c)),
            mono,
            DiffMonomial(mono.factors),
        ]
        for _ in range(40):
            value = [_nested(rng, rng.choice(pool), rng.randrange(4)) for _ in range(6)]
            assert dumps(value) == as_json_dumps(value)
        P = DiffPoly(m, 2, {mono: c, DiffMonomial(): c})
        value = prolong(P, 2)
        coefficients = [id(entry["coeff"]) for q in value for entry in diffpoly_entries(q)]
        assert coefficients == [id(q.terms[E]) for q in value for E in q.display_order()]
        assert len(set(coefficients)) < len(coefficients)  # derive carries objects along
        assert dumps(value) == as_json_dumps(value)
        assert dumps(value) == dumps([diffpoly_entries(q) for q in value])

    def test_encoding_holds_the_values(self, m):
        rng = random.Random(321 + m)
        P = diffpoly(rng, m, 2)
        assert diffpoly_json(P) is P  # dumps writes the polynomial itself
        entries = diffpoly_entries(P)
        order = sorted(P.terms, key=lambda E: (E.total_degree, E.factors), reverse=True)
        assert [entry["monomial"] for entry in entries] == order == P.display_order()
        assert all(entry["coeff"] is P.terms[entry["monomial"]] for entry in entries)
        assert through_text(P) == json_tree(entries) == json_tree(P)
        assert [entry["monomial"] for entry in through_text(P)] == list(map(diffmonomial_json, order))


def _entries_route(value):
    """value with each DiffPoly in it as the writer first took it: a dict per term."""
    if isinstance(value, DiffPoly):
        return diffpoly_entries(value)
    if isinstance(value, list):
        return [_entries_route(item) for item in value]
    if isinstance(value, dict):
        return {key: _entries_route(item) for key, item in value.items()}
    return value


@pytest.mark.parametrize("m", [1, 2, 3, 4], ids=["m1", "m2", "m3", "m4"])
class TestDiffPolyWritten:
    """dumps writes a DiffPoly term by term, in place: the bytes of the oracle
    tree, and those of the dict per term that it replaced."""

    @staticmethod
    def assert_written(value):
        text = dumps(value)
        assert text == as_json_dumps(value)
        assert text == dumps(_entries_route(value))

    def test_seeded_polynomials_nested_at_several_indents(self, m):
        rng = random.Random(351 + m)
        for depth in range(4):
            for _ in range(25):
                P = diffpoly(rng, m, rng.choice((1, 2)), max_terms=rng.randint(1, 5))
                self.assert_written(_nested(rng, P, depth))
        polys = [diffpoly(rng, m, 2) for _ in range(4)]
        self.assert_written([polys[:2], {"b": polys[2], "a": [{"poly": polys[3]}]}, polys[0]])

    def test_the_zero_polynomial_and_the_constant_monomial(self, m):
        zero = DiffPoly.zero(m, 2)
        constant = DiffPoly(m, 1, {DiffMonomial(): QPoly.monomial((1,) + (0,) * (m - 1), 3)})
        assert dumps(zero) == "[]"
        for value in (zero, [zero], {"poly": zero}, constant, [zero, constant], {"a": [{"poly": constant}]}):
            self.assert_written(value)
        assert json.loads(dumps({"poly": zero})) == {"poly": []}
        (entry,) = json.loads(dumps(constant))
        assert entry["monomial"] == []

    def test_shared_and_equal_coefficients(self, m):
        # a prolongation repeats coefficient objects; an equal coefficient that
        # is another object, or another representative, is written by its own data
        rng = random.Random(361 + m)
        c = rational(rng, m)
        x = DiffMonomial.var(1, (1,) + (0,) * (m - 1))
        y = DiffMonomial.var(2, (0,) * m, 2)
        equal = RationalFunction(c.num * 2, c.den * 2)
        P = DiffPoly(m, 2, {x: c, y: RationalFunction(c.num, c.den), DiffMonomial(): equal})
        assert P.terms[x] is c and P.terms[y] is not c
        value = prolong(P, 2)
        coefficients = [id(q.terms[E]) for q in value for E in q.terms]
        assert len(set(coefficients)) < len(coefficients)
        for nested in (value, [value, {"p": value[-1]}], {"a": value[:2], "b": [[value[0], c]]}):
            self.assert_written(nested)


class TestWriterWork:
    def test_write_calls_do_not_grow_with_coefficient_terms(self, monkeypatch):
        calls = []
        write = jsonio._write

        def counted(value, *rest):
            calls.append(type(value))
            return write(value, *rest)

        monkeypatch.setattr(jsonio, "_write", counted)
        few = [DiffMonomial(), DiffMonomial.var(1, (1, 0), 2), DiffMonomial.var(2, (0, 3))]
        many = few + [DiffMonomial.var(1, (i, j)) for i in range(5) for j in range(1, 5)]
        wide = QPoly(2, {(i, j): i - j or 1 for i in range(10) for j in range(5)})
        for coefficient in (RationalFunction(QPoly.monomial((1, 0), 3)), RationalFunction(wide, wide + 1)):
            for monomials in (few, many):
                P = DiffPoly(2, 2, {mono: coefficient for mono in monomials})
                calls.clear()
                text = dumps(diffpoly_json(P))
                assert text.count('"exp"') == len(monomials) * (
                    len(coefficient.num.terms) + len(coefficient.den.terms)
                )
                # one call for the polynomial, whatever its size: no term recurses
                assert calls == [DiffPoly]

    @pytest.mark.parametrize(
        "value",
        [VertexFraction.one(2), VertexPoly.zero(2), Fraction(1, 2), [QPoly.one(2), 0.5]],
        ids=["vertexfraction", "vertexpoly", "fraction", "float-beside-a-qpoly"],
    )
    def test_other_library_values_are_type_errors(self, value):
        with pytest.raises(TypeError):
            dumps(value)
