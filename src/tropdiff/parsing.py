"""Text input for polynomials and rational functions.

Grammar, in decreasing precedence:

    atom  := INT | VAR | '(' expr ')'
    power := atom ['^' INT]
    unary := ('+'|'-')* power
    term  := unary ( ('*'|'/') unary )*
    expr  := term ( ('+'|'-') term )*

Variables are written t1, t2, ...; for convenience t is t1 and u is t2,
matching the pretty-printer for m <= 2.  Exponents are nonnegative integers.
parse_rational accepts arbitrary division; parse_poly only allows dividing by
nonzero constants (so rational literals like 3/4 still work).  When m is not
given it is inferred_width(text), the one width rule for expression text: the
largest variable index over the texts, at least 2.  A variable whose index is
above errors.MAX_WIDTH is a PolyParseError at its position.

Parentheses nest at most MAX_NESTING deep, checked over the tokens before
parsing starts, so the recursive descent never runs out of stack.  A run of
digits that int() refuses (longer than the interpreter's limit on the digits of
an int) is a PolyParseError at its position.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    MAX_WIDTH,
    NegativeExponent,
    PolyParseError,
    UnknownVariable,
    ZeroDenominator,
    shown,
    width,
)
from .series import QPoly, RationalFunction

# Each level of parentheses costs the parser five stack frames; at this depth
# an expression stays far below the interpreter's recursion limit.
MAX_NESTING = 100


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value: object, pos: int):
        self.kind = kind  # int, var, op, end
        self.value = value
        self.pos = pos


def _int(digits: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:  # the interpreter's limit on the digits of an int
        raise PolyParseError(f"integer of {len(digits)} digits is too long", pos) from None


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(_Token("int", _int(text[i:j], i), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            if name == "t":
                idx = 1
            elif name == "u":
                idx = 2
            elif name.startswith("t") and name[1:].isdecimal():
                idx = _int(name[1:], i + 1)
            else:
                idx = 0
            if idx < 1:
                raise UnknownVariable(f"unknown variable {shown(name)}", i)
            tokens.append(_Token("var", idx, i))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        raise PolyParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", None, n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], m: int, poly_mode: bool):
        self.tokens = tokens
        self.i = 0
        self.m = m
        self.poly_mode = poly_mode

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.value in ops

    def expr(self) -> RationalFunction:
        value = self.term()
        while self.at_op("+", "-"):
            op = self.take()
            rhs = self.term()
            value = value + rhs if op.value == "+" else value - rhs
        return value

    def term(self) -> RationalFunction:
        value = self.unary()
        while self.at_op("*", "/"):
            op = self.take()
            rhs = self.unary()
            if op.value == "*":
                value = value * rhs
                continue
            if self.poly_mode and not (rhs.num.is_constant and rhs.den.is_constant):
                raise PolyParseError(
                    "division by a non-constant is not allowed in a polynomial", op.pos
                )
            if rhs.is_zero:
                raise ZeroDenominator(f"division by zero at position {op.pos}")
            value = value / rhs
        return value

    def unary(self) -> RationalFunction:
        sign = 1
        while self.at_op("+", "-"):
            if self.take().value == "-":
                sign = -sign
        value = self.power()
        return value if sign > 0 else -value

    def power(self) -> RationalFunction:
        value = self.atom()
        if self.at_op("^"):
            self.take()
            tok = self.peek()
            if tok.kind == "op" and tok.value == "-":
                raise NegativeExponent("exponents must be nonnegative", tok.pos)
            if tok.kind != "int":
                raise PolyParseError("exponent must be a nonnegative integer", tok.pos)
            self.take()
            value = value ** tok.value
        return value

    def atom(self) -> RationalFunction:
        tok = self.take()
        if tok.kind == "int":
            return RationalFunction.constant(self.m, Fraction(tok.value))
        if tok.kind == "var":
            if tok.value > self.m:
                raise UnknownVariable(f"variable t{tok.value} exceeds m={self.m}", tok.pos)
            return RationalFunction(QPoly.variable(self.m, tok.value))
        if tok.kind == "op" and tok.value == "(":
            value = self.expr()
            closing = self.take()
            if not (closing.kind == "op" and closing.value == ")"):
                raise PolyParseError("expected closing parenthesis", closing.pos)
            return value
        raise PolyParseError(
            "expected a number, variable or parenthesized expression", tok.pos
        )


def inferred_width(*texts: str) -> int:
    """The width that texts are read at: their largest variable index, at least 2."""
    m = 2
    for text in texts:
        for tok in _lex(text):
            if tok.kind == "var" and tok.value > m:
                if tok.value > MAX_WIDTH:
                    raise PolyParseError(f"variable index above MAX_WIDTH = {MAX_WIDTH}", tok.pos)
                m = tok.value
    return m


def _parse(text: str, m: int | None, poly_mode: bool) -> RationalFunction:
    tokens = _lex(text)
    if tokens[0].kind == "end":
        raise PolyParseError("empty input", 0)
    depth = 0
    for tok in tokens:
        if tok.kind == "op":
            if tok.value == "(":
                depth += 1
                if depth > MAX_NESTING:
                    raise PolyParseError(f"parentheses nest deeper than {MAX_NESTING}", tok.pos)
            elif tok.value == ")":
                depth -= 1
    parser = _Parser(tokens, inferred_width(text) if m is None else width(m), poly_mode)
    value = parser.expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise PolyParseError("unexpected trailing input", tail.pos)
    return value


def parse_rational(text: str, m: int | None = None) -> RationalFunction:
    """Parse a rational function; m is inferred from the variables if absent."""
    return _parse(text, m, poly_mode=False)


def parse_poly(text: str, m: int | None = None) -> QPoly:
    """Parse a polynomial; division is restricted to nonzero constants."""
    return _parse(text, m, poly_mode=True).as_qpoly()
