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
largest variable index over the texts, at least 2, read from the tokens the
parse lexes anyway, so each text is lexed once.  A variable whose index is
above errors.MAX_WIDTH is a PolyParseError at its position.

The descent reads coefficient text in one pass, with no ring arithmetic.  Every
value is a pair (num, den) of int polynomials (exponent -> nonzero int, den not
zero), combined by RationalFunction's own formulas: '+' and '-' give
n1*d2 +- n2*d1 over d1*d2, '*' gives n1*n2 over d1*d2, '/' gives n1*d2 over
d1*n2, and '^k' powers both sides, by series._product and series._power, the
one product and power of int polynomials, which QPoly uses too (its power is in
lowest terms with no gcd, by Gauss's lemma).  A den of 1, that of every atom
and of every subexpression with no division, is carried as None, and a formula
skips each product by it: n1 + n2 over None when neither side divides, n1*d2
+- n2 over d2 when only the right one does, and so on.  So a text that divides
once, such as (2*t*u - 3*t)/(u), takes no product at all.  The RationalFunction
is built once, at the end, with the public QPoly(m, terms), den None becoming
the polynomial 1.  QPoly is canonical, so num and den are the polynomials that
RationalFunction arithmetic on every atom gives.

An operand (its signs, its atom and any '^k': the unary, power and atom of
the grammar) is read in one method, one stack frame, and '(' recurses through
expr and term back into it.

A token is a plain tuple (kind, value, pos).  kind is "int" or "var", with the
integer or the variable index as value, an operator or parenthesis character
itself, with value None, or "end", which closes every token list; pos is the
offset in the text.  The descent reads kind straight from tokens[i][0].

Parentheses nest at most MAX_NESTING deep, so the recursive descent never runs
out of stack.  Each '(' is a token of its own, so depth never exceeds their
count: the tokens are scanned for depth before parsing starts only when the
text holds more than MAX_NESTING of them, after the lexer's errors.  A run of
digits that int() refuses (longer than the interpreter's limit on the digits of
an int) is a PolyParseError at its position.
"""

from __future__ import annotations

from .errors import (
    MAX_WIDTH,
    NegativeExponent,
    PolyParseError,
    UnknownVariable,
    ZeroDenominator,
    shown,
    width,
)
from .series import QPoly, RationalFunction, _power, _product, _summed

# Each level of parentheses costs the parser three stack frames (operand, expr
# and term); at this depth an expression stays far below the interpreter's
# recursion limit.
MAX_NESTING = 100


def _int(digits: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:  # the interpreter's limit on the digits of an int
        raise PolyParseError(f"integer of {len(digits)} digits is too long", pos) from None


def _lex(text: str) -> list[tuple]:
    tokens: list[tuple] = []
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
            tokens.append(("int", _int(text[i:j], i), i))
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
            tokens.append(("var", idx, i))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append((ch, None, i))
            i += 1
            continue
        raise PolyParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    """The descent.  A value is a pair (num, den) of int polynomials, exactly the
    num and den that RationalFunction arithmetic would give; den is None where
    it is 1, for an atom and every subexpression with no division."""

    def __init__(self, tokens: list[tuple], m: int, poly_mode: bool):
        self.tokens = tokens
        self.i = 0
        self.m = m
        self.poly_mode = poly_mode
        self.one = (0,) * m  # the exponent of 1

    def expr(self):
        tokens = self.tokens
        n1, d1 = self.term()
        while (op := tokens[self.i][0]) in ("+", "-"):
            self.i += 1
            n2, d2 = self.term()
            # n1*d2 +- n2*d1 over d1*d2
            if op == "-":
                n2 = {e: -c for e, c in n2.items()}
            if d2 is not None:
                n1 = _product(n1, d2)
            if d1 is not None:
                n2 = _product(n2, d1)
                d1 = d1 if d2 is None else _product(d1, d2)
            else:
                d1 = d2
            n1 = _summed([*n1.items(), *n2.items()])
        return n1, d1

    def term(self):
        tokens = self.tokens
        n1, d1 = self.operand()
        while (tok := tokens[self.i])[0] in ("*", "/"):
            op, _, pos = tok
            self.i += 1
            n2, d2 = self.operand()
            if op == "*":
                n1 = _product(n1, n2)
            else:
                if self.poly_mode and not (
                    n2.keys() <= {self.one} and (d2 is None or d2.keys() <= {self.one})
                ):
                    raise PolyParseError(
                        "division by a non-constant is not allowed in a polynomial", pos
                    )
                if not n2:
                    raise ZeroDenominator(f"division by zero at position {pos}")
                # n1/d1 over n2/d2 is n1*d2 over d1*n2
                if d2 is not None:
                    n1 = _product(n1, d2)
                d2 = n2
            if d2 is not None:
                d1 = d2 if d1 is None else _product(d1, d2)
        return n1, d1

    def operand(self):
        """An operand, read in one frame: its signs, an atom and any '^k'."""
        tokens, i = self.tokens, self.i
        negative = False
        while (kind := tokens[i][0]) in ("+", "-"):
            i += 1
            negative ^= kind == "-"
        kind, value, pos = tokens[i]
        i += 1
        if kind == "int":
            num = {self.one: value} if value else {}
            den = None
        elif kind == "var":
            if value > self.m:
                raise UnknownVariable(f"variable t{shown(value)} exceeds m={self.m}", pos)
            num = {self.one[: value - 1] + (1,) + self.one[value:]: 1}
            den = None
        elif kind == "(":
            self.i = i
            num, den = self.expr()
            kind, _, pos = tokens[self.i]
            i = self.i + 1
            if kind != ")":
                raise PolyParseError("expected closing parenthesis", pos)
        else:
            raise PolyParseError(
                "expected a number, variable or parenthesized expression", pos
            )
        if tokens[i][0] == "^":
            kind, k, pos = tokens[i + 1]  # '^' is never the last token
            if kind == "-":
                raise NegativeExponent("exponents must be nonnegative", pos)
            if kind != "int":
                raise PolyParseError("exponent must be a nonnegative integer", pos)
            i += 2
            num = _power(num, k, self.one)
            if den is not None:
                den = _power(den, k, self.one)
        self.i = i
        if negative:
            num = {e: -c for e, c in num.items()}
        return num, den


def _widest(tokens: list[tuple], m: int = 2) -> int:
    """The largest of m and the variable indices among the tokens."""
    for kind, value, pos in tokens:
        if kind == "var" and value > m:
            if value > MAX_WIDTH:
                raise PolyParseError(f"variable index above MAX_WIDTH = {MAX_WIDTH}", pos)
            m = value
    return m


def inferred_width(*texts: str) -> int:
    """The width that texts are read at: their largest variable index, at least 2."""
    m = 2
    for text in texts:
        m = _widest(_lex(text), m)
    return m


def _parse(text: str, m: int | None, poly_mode: bool) -> RationalFunction:
    tokens = _lex(text)
    if tokens[0][0] == "end":
        raise PolyParseError("empty input", 0)
    # every '(' of text is a token, so the depth never exceeds their count
    if text.count("(") > MAX_NESTING:
        depth = 0
        for kind, _, pos in tokens:
            if kind == "(":
                depth += 1
                if depth > MAX_NESTING:
                    raise PolyParseError(f"parentheses nest deeper than {MAX_NESTING}", pos)
            elif kind == ")":
                depth -= 1
    parser = _Parser(tokens, _widest(tokens) if m is None else width(m), poly_mode)
    value = parser.expr()
    kind, _, pos = tokens[parser.i]
    if kind != "end":
        raise PolyParseError("unexpected trailing input", pos)
    num, den = value
    if den is None:
        den = {parser.one: 1}
    return RationalFunction(QPoly(parser.m, num), QPoly(parser.m, den))


def parse_rational(text: str, m: int | None = None) -> RationalFunction:
    """Parse a rational function; m is inferred from the variables if absent."""
    return _parse(text, m, poly_mode=False)


def parse_poly(text: str, m: int | None = None) -> QPoly:
    """Parse a polynomial; division is restricted to nonzero constants."""
    return _parse(text, m, poly_mode=True).as_qpoly()
