import random
import sys
from fractions import Fraction

import pytest

from helpers import descent_parse, qpoly, rational
from tropdiff import (
    NegativeExponent,
    PolyParseError,
    QPoly,
    RationalFunction,
    UnknownVariable,
    ZeroDenominator,
    parse_poly,
    parse_rational,
)
from tropdiff import parsing
from tropdiff.errors import MAX_WIDTH
from tropdiff.parsing import MAX_NESTING, inferred_width


class TestGrammar:
    def test_precedence(self):
        assert parse_poly("t + u*t^2") == QPoly(2, {(1, 0): 1, (2, 1): 1})
        assert parse_poly("-t^2") == QPoly(2, {(2, 0): -1})
        assert parse_poly("2*t + 3") == QPoly(2, {(1, 0): 2, (0, 0): 3})

    def test_unary_chains(self):
        assert parse_poly("--t") == parse_poly("t")
        assert parse_poly("+-+t") == parse_poly("-t")

    def test_parentheses(self):
        assert parse_poly("(t+u)^2") == QPoly(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
        assert parse_poly("t*(u+1)") == QPoly(2, {(1, 1): 1, (1, 0): 1})

    def test_omega_denominator(self):
        f = parse_poly("t1^3 + t1*t2 + t2^3")
        assert f.terms == {
            (3, 0): Fraction(1),
            (1, 1): Fraction(1),
            (0, 3): Fraction(1),
        }

    def test_rational_literals_in_poly(self):
        assert parse_poly("3/4*t") == QPoly(2, {(1, 0): Fraction(3, 4)})
        assert parse_poly("t/2") == QPoly(2, {(1, 0): Fraction(1, 2)})


class TestVariables:
    def test_aliases(self):
        assert parse_poly("t") == parse_poly("t1")
        assert parse_poly("u") == parse_poly("t2")

    def test_higher_indices(self):
        f = parse_poly("t3", 3)
        assert f.m == 3
        assert f.terms == {(0, 0, 1): Fraction(1)}

    def test_inferred_m_floor(self):
        assert parse_poly("t").m == 2
        assert parse_poly("5").m == 2
        assert parse_poly("t3 + t1").m == 3

    def test_inferred_width_spans_all_texts(self):
        assert inferred_width() == inferred_width("5") == inferred_width("t") == 2
        assert inferred_width("t", "t3 - u") == inferred_width("t3", "t") == 3
        assert inferred_width(f"t{MAX_WIDTH}") == MAX_WIDTH

    def test_inferred_width_refuses_a_variable_above_the_cap_at_that_variable(self):
        message = f"^variable index above MAX_WIDTH = {MAX_WIDTH} "
        with pytest.raises(PolyParseError, match=message) as info:
            inferred_width("t", f"u + t{MAX_WIDTH + 1}")
        assert info.value.position == 4

    def test_out_of_range_with_explicit_m(self):
        with pytest.raises(UnknownVariable) as info:
            parse_poly("t + t3", 2)
        assert info.value.position == 4

    def test_unknown_name(self):
        with pytest.raises(UnknownVariable):
            parse_poly("x + 1")
        with pytest.raises(UnknownVariable):
            parse_poly("t0")


class TestErrors:
    def test_negative_exponent(self):
        with pytest.raises(NegativeExponent) as info:
            parse_poly("t^-1")
        assert info.value.position == 2

    def test_non_integer_exponent(self):
        with pytest.raises(PolyParseError):
            parse_poly("t^u")

    def test_poly_mode_division(self):
        with pytest.raises(PolyParseError):
            parse_poly("t/u")
        with pytest.raises(PolyParseError):
            parse_poly("1/(t+u)")
        # same text is fine as a rational function
        parse_rational("t/u")

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            parse_rational("t/0")
        with pytest.raises(ZeroDenominator):
            parse_poly("1/0")
        with pytest.raises(ZeroDenominator):
            parse_rational("t/(u-u)")

    def test_empty_input(self):
        with pytest.raises(PolyParseError):
            parse_poly("")
        with pytest.raises(PolyParseError):
            parse_rational("   ")

    def test_trailing_input(self):
        with pytest.raises(PolyParseError):
            parse_poly("t )")
        with pytest.raises(PolyParseError):
            parse_poly("t t")

    def test_unexpected_character(self):
        with pytest.raises(PolyParseError) as info:
            parse_poly("t$u")
        assert info.value.position == 1

    def test_unclosed_parenthesis(self):
        with pytest.raises(PolyParseError):
            parse_poly("(t+u")


class TestLimits:
    def test_nesting_at_the_cap_parses(self):
        text = "(" * MAX_NESTING + "t" + ")" * MAX_NESTING
        assert parse_poly(text) == parse_poly("t")

    def test_nesting_above_the_cap_is_refused_where_it_passes_the_cap(self):
        text = "(" * (MAX_NESTING + 1) + "t" + ")" * (MAX_NESTING + 1)
        with pytest.raises(PolyParseError) as info:
            parse_rational(text)
        assert info.value.position == MAX_NESTING

    def test_the_cap_bounds_depth_not_the_number_of_parentheses(self):
        text = "+".join(["(t)"] * (3 * MAX_NESTING))
        assert parse_poly(text) == 3 * MAX_NESTING * parse_poly("t")

    @pytest.mark.parametrize("template, position", [("{}", 0), ("t + {}", 4), ("t{}", 1)])
    def test_digits_that_int_refuses_are_a_parse_error(self, template, position):
        digits = "1" * (sys.int_info.default_max_str_digits + 1)
        with pytest.raises(PolyParseError) as info:
            parse_rational(template.format(digits))
        assert info.value.position == position
        assert f"integer of {len(digits)} digits is too long" in str(info.value)

    def test_digit_characters_that_are_no_decimal_digits(self):
        # '²' counts as a digit to str.isdigit, but int() refuses it
        with pytest.raises(PolyParseError) as info:
            parse_poly("2²")
        assert "unexpected character" in str(info.value) and info.value.position == 1
        with pytest.raises(UnknownVariable):
            parse_poly("t²")


class TestRoundTrip:
    def test_poly_str_reparses(self):
        rng = random.Random(81)
        for _ in range(200):
            f = qpoly(rng, rng.choice((1, 2, 3)))
            assert parse_poly(str(f), f.m) == f

    def test_rational_str_reparses(self):
        rng = random.Random(82)
        for _ in range(200):
            q = rational(rng, rng.choice((1, 2, 3)))
            assert parse_rational(str(q), q.m) == q


def grammar_text(rng, m, depth=0):
    """A random text of the grammar over t1..tm, with some t_(m+1) and zeros."""

    def atom():
        roll = rng.random()
        if roll < 0.3:
            return str(rng.choice((0, 1, 2, 3, 12)))
        if roll < 0.85 or depth >= 2:
            index = rng.randint(1, m + 1) if rng.random() < 0.05 else rng.randint(1, m)
            return rng.choice({1: ("t", "t1"), 2: ("u", "t2")}.get(index, (f"t{index}",)))
        return f"({grammar_text(rng, m, depth + 1)})"

    def unary():
        text = rng.choice(("", "", "", "-", "+", "--")) + atom()
        return text + f"^{rng.randint(0, 3)}" if rng.random() < 0.25 else text

    def term():
        text = unary()
        for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
            text += rng.choice(("*", "*", "/", " * ", " / ")) + unary()
        return text

    text = term()
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        text += rng.choice((" + ", " - ", "+", "-")) + term()
    return text


def mutated(rng, text):
    """text with one character deleted, inserted or replaced."""
    i = rng.randrange(len(text) + 1)
    bit = rng.choice("+-*/^()t0 u2$")
    head, rest = text[:i], text[i + 1 :]
    return rng.choice((head + rest, head + bit + text[i:], head + bit + rest))


def outcome(parse, text, m):
    try:
        value = parse(text, m)
    except Exception as exc:  # the oracle must fail the same way
        return "error", type(exc), str(exc), getattr(exc, "position", None)
    return "value", (value.num, value.den) if isinstance(value, RationalFunction) else value


def read_as_the_oracle_reads(text, m, poly_mode):
    """Assert that text gives the oracle's num and den, or its error; return which."""
    got = outcome(parse_poly if poly_mode else parse_rational, text, m)
    assert got == outcome(lambda t, w: descent_parse(t, w, poly_mode), text, m), text
    return got[0]


class TestAgainstTheDescentOracle:
    """The folded descent gives what the all-RationalFunction descent gives."""

    @pytest.mark.parametrize("poly_mode", [False, True], ids=["rational", "poly"])
    @pytest.mark.parametrize("m", [2, 3, 4], ids=["m2", "m3", "m4"])
    def test_seeded_grammar_texts(self, m, poly_mode):
        rng = random.Random(97 * m + poly_mode)
        kinds = set()
        for _ in range(600):
            text = grammar_text(rng, m)
            if rng.random() < 0.2:
                text = mutated(rng, text)
            kinds.add(read_as_the_oracle_reads(text, rng.choice((None, m)), poly_mode))
        assert kinds == {"value", "error"}

    def test_every_arithmetic_case(self):
        texts = [
            "0", "0*t", "t*0", "0^0", "(t-t)^0", "(t-t)^2", "t^0", "(2*t/3)^3", "(t+u)^0",
            "(t+u)^1", "(t+u)^2", "-(t+u)^2", "--t/-u", "t/u/2", "t/(2*u)*3", "1/t + 1/t",
            "t - t + u", "(1/t - 1/t) + u", "(t+u)*(t-u)", "(t+u)*2*t", "2*t*(t+u)", "(t+u)/(t*u)",
            "(t+u)/(t-u)", "t/(t+u) + 1", "(t+u)/(2*t) - (u+1)/(3*u)", "3/4*t", "(t^2+u)/(-2)",
            "1/(1/t)", "t/(u/u)", "1/(2/3)", "t/(t-t)", "1/(0*t)", "t/(1/t - 1/t)", "u/(t^0)",
            # a denominator of 1 on either side of each operator, or made by a division
            "(t)/(1)", "1/t", "t/1/1", "2/3*t", "(1)^3", "(t+1)/(1)", "-(1/(t-u))^2",
            "(2*t*u - 3*t)/(u)", "(1)/(-3/2)", "t + 1/u", "1 - u/(t+1)", "t*(1/u)", "(t+1)*(u/2)",
        ]
        for text in texts:
            for m in (None, 2, 3, 4):
                for poly_mode in (False, True):
                    read_as_the_oracle_reads(text, m, poly_mode)


RING_ARITHMETIC = [
    (QPoly, name) for name in ("__mul__", "__rmul__", "__pow__")
] + [
    (RationalFunction, name)
    for name in (
        "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
        "__mul__", "__rmul__", "__truediv__", "__pow__",
    )
]


class TestWork:
    @pytest.mark.parametrize(
        "text, num, den",
        [
            ("(3*t^2 - u + 1)/(t*u + 2*u^2)", "3*t^2 - u + 1", "t*u + 2*u^2"),
            ("(3*t^2 - u + 1)/(2*t*u^3)", "3*t^2 - u + 1", "2*t*u^3"),
            ("(t+u)^2", "t^2 + 2*t*u + u^2", "1"),
            ("(t+u)/(t-u)", "t + u", "t - u"),
            ("0^0", "1", "1"),
        ],
        ids=["sum-over-sum", "sum-over-monomial", "sum-power", "sum-quotient", "zero-power-zero"],
    )
    def test_the_descent_does_no_ring_arithmetic(self, monkeypatch, text, num, den):
        expected = parse_poly(num), parse_poly(den)
        calls = []

        def counted(cls, name):
            method = getattr(cls, name)

            def counting(*args, **kwargs):
                calls.append(f"{cls.__name__}.{name}")
                return method(*args, **kwargs)

            monkeypatch.setattr(cls, name, counting)

        for cls, name in RING_ARITHMETIC + [(QPoly, "__init__")]:
            counted(cls, name)
        q = parse_rational(text)
        assert calls == ["QPoly.__init__"] * 2
        assert (q.num, q.den) == expected

    def test_each_text_is_lexed_once(self, monkeypatch):
        calls = []
        lex = parsing._lex

        def counting(text):
            calls.append(text)
            return lex(text)

        monkeypatch.setattr(parsing, "_lex", counting)
        assert parse_rational("t3/(t + u)").m == 3
        assert parse_poly("t + 1").m == 2
        assert parse_rational("t", 4).m == 4
        assert calls == ["t3/(t + u)", "t + 1", "t"]
        assert inferred_width("t", "t5") == 5 and calls[3:] == ["t", "t5"]
