"""Shared random generators and brute-force oracles for the test suite.

Everything takes an explicit random.Random so failures reproduce; the
acceptance suite fixes its own seeds.
"""

import argparse
import itertools
import json
import math
import operator
import re
from fractions import Fraction

from tropdiff import (
    BooleanWeight,
    DiffMonomial,
    DiffPoly,
    MonomialOrder,
    NotAMonomialOrder,
    QPoly,
    RationalFunction,
    VertexFraction,
    VertexPoly,
    normalizer,
    substitution_poly,
    trop_frac,
    trop_poly,
    tropw,
)
from tropdiff import cli, jsonio, parsing
from tropdiff.diffpoly import _rf_constant
from tropdiff.errors import (
    NegativeExponent,
    PolyParseError,
    SchemaError,
    UnknownVariable,
    ZeroDenominator,
    shown,
    width,
)
from tropdiff.errors import exponent as checked_exponent
from tropdiff.series import _summed, _var_names, fraction_text

NONZERO = (-3, -2, -1, 1, 2, 3)


def exponent(rng, m, hi=6):
    return tuple(rng.randrange(hi + 1) for _ in range(m))


def qpoly(rng, m, max_terms=4, hi=6):
    """Random nonzero polynomial with small integer coefficients."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            e = exponent(rng, m, hi)
            terms[e] = terms.get(e, Fraction(0)) + rng.choice(NONZERO)
        f = QPoly(m, terms)
        if not f.is_zero:
            return f


def rational(rng, m, max_terms=3, hi=4):
    return RationalFunction(qpoly(rng, m, max_terms, hi), qpoly(rng, m, max_terms, hi))


def unit_ball_fraction(rng, m, max_terms=4, hi=4, nonzero=False):
    """Random f/g with trop(f) <= trop(g).

    Every numerator exponent sits above some denominator vertex, which pins
    the numerator's polyhedron inside the denominator's.
    """
    g = qpoly(rng, m, max_terms, hi)
    vertices = trop_poly(g).points
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            base = rng.choice(vertices)
            e = tuple(b + rng.randrange(3) for b in base)
            terms[e] = terms.get(e, Fraction(0)) + rng.choice(NONZERO)
        f = QPoly(m, terms)
        if not (nonzero and f.is_zero):
            return RationalFunction(f, g)


def same_as_public(x) -> bool:
    """Does x hold what the public constructors build from its own data?

    Library results skip those constructors' checks, so they must already be
    canonical: polynomials in lowest terms, nonzero denominators.
    """
    if isinstance(x, DiffPoly):
        public = DiffPoly(x.m, x.n, x.terms)
        return public.terms.keys() == x.terms.keys() and all(
            isinstance(c, RationalFunction) and same_as_public(c) for c in x.terms.values()
        )
    if isinstance(x, RationalFunction):
        return (
            x.num.m == x.den.m
            and not x.den.is_zero
            and same_as_public(x.num)
            and same_as_public(x.den)
        )
    return canonical(x) and x.terms == QPoly(x.m, x.terms).terms


def canonical(q: QPoly) -> bool:
    """Is q in lowest terms?  Nonzero int coefficients over a positive int
    denominator that shares no factor with all of them; 1 for the zero
    polynomial, where the gcd is the denominator itself."""
    ints, den = q._ints, q._den
    return (
        type(den) is int
        and den > 0
        and all(type(c) is int and c != 0 for c in ints.values())
        and math.gcd(den, *ints.values()) == 1
    )


def quotient_partial(q: RationalFunction, k: int) -> RationalFunction:
    """(num' den - num den') / den^2, worked out afresh: RationalFunction.partial before it kept its results."""
    return RationalFunction(q.num.partial(k) * q.den - q.num * q.den.partial(k), q.den * q.den)


def exponent_sum(a, b):
    """The exponent sum a + b spelled as every product spelled it before
    vertexpoly._adder: the oracle for the adder."""
    return tuple(map(operator.add, a, b))


class FractionQPoly:
    """QPoly as it was with Fraction coefficients: exponent -> Fraction in terms.

    The oracle for QPoly's int arithmetic: the same operation on the same
    values must give the same terms.  RationalFunction._trusted accepts two of
    these, so RationalFunction arithmetic runs on them unchanged.
    """

    __slots__ = ("m", "terms")

    def __init__(self, m, terms):
        self.m = m
        self.terms = _summed((checked_exponent(e, m), Fraction(c)) for e, c in terms.items())

    @classmethod
    def of(cls, q: QPoly) -> "FractionQPoly":
        return cls(q.m, q.terms)

    @property
    def is_zero(self):
        return not self.terms

    def _coerce(self, other):
        if isinstance(other, FractionQPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return FractionQPoly(self.m, {(0,) * self.m: other})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        pairs = itertools.chain(self.terms.items(), other.terms.items())
        return FractionQPoly(self.m, _summed(pairs))

    __radd__ = __add__

    def __neg__(self):
        return FractionQPoly(self.m, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            scaled = {e: c * other for e, c in self.terms.items()} if other else {}
            return FractionQPoly(self.m, scaled)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        products = (
            (exponent_sum(e1, e2), c1 * c2)
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items()
        )
        return FractionQPoly(self.m, _summed(products))

    __rmul__ = __mul__

    @classmethod
    def sum_of_products(cls, m, pairs):
        """QPoly.sum_of_products spelled as the fold of * and +."""
        out = cls(m, {})
        for a, b in pairs:
            out = out + a * b
        return out

    def __pow__(self, k):
        out = FractionQPoly(self.m, {(0,) * self.m: 1})
        for _ in range(k):
            out = out * self
        return out

    def __truediv__(self, other):
        return FractionQPoly(self.m, {e: c / other for e, c in self.terms.items()})

    def partial(self, k):
        return self.deriv(tuple(1 if j == k else 0 for j in range(self.m)))

    def deriv(self, J):
        """d^J in closed form, falling factorials; QPoly.deriv iterates partial instead."""
        return FractionQPoly(
            self.m,
            {
                tuple(map(operator.sub, e, J)): c * math.prod(map(math.perm, e, J))
                for e, c in self.terms.items()
                if all(map(operator.ge, e, J))
            },
        )


def covered_by_bases(points, target) -> bool:
    """Is target in conv(points) + R^m_{>=0}?  By brute force over bases.

    The system [Q I; 1 0] x = [target; 1], x >= 0 (the columns of Q are the
    points, I carries the slacks) has full row rank once there is a point, so
    it is feasible iff some basic solution is nonnegative.  A basis takes the
    point columns J and the slack columns of the rows outside some R, with
    |R| = |J| - 1.  Those slacks only absorb their own rows, so the basis is
    the |J| x |J| system of rows R and the convexity row, solved by Fraction
    elimination; the slacks are then target - sum lambda_j q_j off R.  No
    simplex is involved.
    """
    m = len(target)
    for size in range(1, m + 2):
        for J in itertools.combinations(points, size):
            for R in itertools.combinations(range(m), size - 1):
                lam = _solve(
                    [[q[k] for q in J] for k in R] + [[1] * size],
                    [target[k] for k in R] + [1],
                )
                if lam is not None and all(v >= 0 for v in lam) and all(
                    sum(x * q[k] for x, q in zip(lam, J)) <= target[k] for k in range(m)
                ):
                    return True
    return False


def _solve(matrix, rhs):
    """The unique solution of a square system, or None when it is singular."""
    size = len(rhs)
    aug = [[Fraction(v) for v in row] + [Fraction(r)] for row, r in zip(matrix, rhs)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(col + 1, size):
            if aug[r][col] != 0:
                f = aug[r][col] / aug[col][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    x = [Fraction(0)] * size
    for r in reversed(range(size)):
        x[r] = (aug[r][size] - sum(aug[r][c] * x[c] for c in range(r + 1, size))) / aug[r][r]
    return x


def tropw_by_sums(P, weights):
    """tropw(P, weights) by the first route: term by term, with VertexFraction's +.

    Each term's value is its coefficient's numerator times its factors'
    vertex sets, extracted after every product, over its coefficient's
    denominator; a vanished term is skipped, and the terms are added one at a
    time, each + extracting its own products and sum.
    """
    total = VertexFraction.zero(P.m)
    for mono, c in P.terms.items():
        value = trop_frac(c)
        num = value.num
        for (i, J), p in mono.factors:
            num = num * weights[i - 1].shift(J).vertices() ** p
        if num:
            total = total + VertexFraction(num, value.den)
    return total


def vertices_by_candidates(w):
    """w.vertices() by the first route: every candidate through the public constructor.

    A finite weight's candidates are its points.  A cofinite weight's are 0
    and every q + e_k for an excluded q, minus the excluded set, with no
    shortcut for a set that holds the origin.
    """
    m = w.m
    if not w.is_cofinite:
        return VertexPoly(m, w.data)
    out = {(0,) * m}
    for q in w.data:
        for k in range(m):
            out.add(tuple(v + (j == k) for j, v in enumerate(q)))
    return VertexPoly(m, out - w.data)


def bump_by_rebuild(mono, position, k):
    """mono.bump(position, k) through the public constructor, which merges the factors."""
    factors = list(mono.factors)
    (i, J), p = factors[position]
    factors[position] = ((i, J), p - 1)  # a zero power drops the factor
    lifted = tuple(v + 1 if j == k else v for j, v in enumerate(J))
    return DiffMonomial([*factors, ((i, lifted), 1)])


def json_by_scan(text):
    """cli._json by its first route: a Python loop over the strings and brackets
    that a regular expression finds, counting the depth as it goes."""
    if text.count("[") + text.count("{") > cli.MAX_JSON_NESTING:
        depth = 0
        for match in re.finditer(r'"(?:[^"\\]|\\.)*"|([\[{])|([\]}])', text):
            if match.group(1):
                depth += 1
                if depth > cli.MAX_JSON_NESTING:
                    raise SchemaError(f"JSON input nests deeper than {cli.MAX_JSON_NESTING}")
            elif match.group(2):
                depth -= 1
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:  # the interpreter's limit on the digits of an int
        raise SchemaError("JSON input holds an integer with too many digits") from None


@jsonio._decoder
def diffpoly_by_fold(obj, m, n):
    """jsonio.diffpoly_from by the first route: a fold of DiffPoly's + over the terms.

    Each factor is checked as it is read, as the one-factor monomial of a
    DiffPoly, so the first faulty factor in file order is the one reported.
    """
    total = DiffPoly.zero(m, n)
    for entry in jsonio._listed(obj, "differential polynomial"):
        if not isinstance(entry, dict) or "coeff" not in entry:
            raise SchemaError(f"term must be an object with coeff, got {shown(entry)}")
        jsonio._own_keys(entry, "differential polynomial term", "coeff", "monomial")
        coeff = jsonio.rational_from(entry["coeff"], m)
        factors = []
        for fac in jsonio._listed(entry.get("monomial", []), "monomial"):
            if not isinstance(fac, dict) or "var" not in fac:
                raise SchemaError(f"monomial factor must name a var, got {shown(fac)}")
            jsonio._own_keys(fac, "monomial factor", "var", "pow")
            var = fac["var"]
            if not isinstance(var, (list, tuple)) or len(var) != 2:
                raise SchemaError(f"var must be [index, multi-index], got {shown(var)}")
            power = fac.get("pow", 1)
            if not jsonio._is_int(power) or power < 1:
                raise SchemaError(f"pow must be a positive integer, got {shown(power)}")
            DiffPoly(m, n, {DiffMonomial([(var, power)]): 1})
            factors.append((var, power))
        total = total + DiffPoly(m, n, {DiffMonomial(factors): coeff})
    return total


def translate_by_plug(P, weights, kernel):
    """Coefficients of translate(P, weights, kernel), by the first route taken.

    Each monomial's substitution polynomials are multiplied into one plug,
    starting from the constant 1 and one factor at a time, and the
    coefficient is pref * c * plug with the plug as a rational function over 1.
    Returns {monomial: coefficient}, without the monomials whose plug is zero.
    """
    value = tropw(P, weights)
    if value.is_zero:
        return {}
    pref = normalizer(value)
    out = {}
    for mono, c in P.terms.items():
        plug = QPoly.one(P.m)
        for (i, J), p in mono.factors:
            piece = substitution_poly(weights[i - 1], J, kernel)
            for _ in range(p):
                plug = plug * piece
        if not plug.is_zero:
            out[mono] = pref * c * RationalFunction(plug)
    return out


def distinct_nonzero_pairwise(images):
    """The nonzero images, each value once in first-seen order, by the first route
    taken: each image is compared with every image kept before it."""
    kept = []
    for image in images:
        if not image.is_zero and not any(image == k for k in kept):
            kept.append(image)
    return kept


# -- the trees jsonio.dumps writes library values as --------------------------


def qpoly_json(f):
    return {"terms": [{"exp": list(e), "coeff": text} for e, text in f.text_terms()]}


def rational_json(q):
    return {"num": qpoly_json(q.num), "den": qpoly_json(q.den)}


def diffmonomial_json(mono):
    return [{"var": [i, list(J)], "pow": p} for (i, J), p in mono.factors]


def weight_json(w):
    """The weight object that jsonio.weight_from reads back as w."""
    if w.kind == "full":
        return {"type": "full"}
    pts = [list(p) for p in sorted(w.data)]
    if w.kind == "finite":
        return {"type": "finite", "points": pts}
    return {"type": "cofinite", "excluded": pts}


def order_json(order):
    """The order object that jsonio.order_from reads back as order."""
    kind = order.kind
    if kind == "matrix":
        return {"type": "matrix", "rows": [list(r) for r in order.rows]}
    return {"type": kind}


def diffpoly_entries(P):
    """P as the writer first took it: a dict per term, holding the coefficient and the monomial."""
    return [{"coeff": P.terms[mono], "monomial": mono} for mono in P.display_order()]


def json_tree(value):
    """value with every QPoly, RationalFunction, DiffMonomial and DiffPoly in it
    as plain dicts and lists.

    json.dumps(json_tree(v), sort_keys=True, indent=2) is what jsonio.dumps(v)
    must write, and json_tree(v) is what json.loads(jsonio.dumps(v)) must read.
    """
    if isinstance(value, QPoly):
        return qpoly_json(value)
    if isinstance(value, RationalFunction):
        return rational_json(value)
    if isinstance(value, DiffMonomial):
        return diffmonomial_json(value)
    if isinstance(value, DiffPoly):
        return json_tree(diffpoly_entries(value))
    if isinstance(value, list):
        return [json_tree(item) for item in value]
    if isinstance(value, dict):
        return {key: json_tree(item) for key, item in value.items()}
    return value


def matrix_order(rng, m):
    """Random validated full-rank matrix order (first row positive)."""
    while True:
        rows = [[rng.randint(1, 3) for _ in range(m)]]
        for _ in range(m - 1):
            rows.append([rng.randint(-3, 3) for _ in range(m)])
        try:
            order = MonomialOrder(rows)
        except NotAMonomialOrder:
            continue
        if _solve(rows, [0] * m) is not None:  # nonsingular, so of full rank
            return order


def weight(rng, m, hi=3):
    kind = rng.randrange(3)
    if kind == 0:
        return BooleanWeight.full(m)
    points = [exponent(rng, m, hi) for _ in range(rng.randint(1, 4))]
    if kind == 1:
        return BooleanWeight.finite(m, points)
    return BooleanWeight.cofinite(m, points)


def finite_weight(rng, m, hi=3):
    points = [exponent(rng, m, hi) for _ in range(rng.randint(1, 4))]
    return BooleanWeight.finite(m, points)


def diff_monomial(rng, m, n, hi=2):
    mono = DiffMonomial.var(rng.randint(1, n), exponent(rng, m, hi), rng.randint(1, 2))
    if rng.random() < 0.5:
        mono = mono * DiffMonomial.var(rng.randint(1, n), exponent(rng, m, hi))
    return mono


def diffpoly(rng, m, n, max_terms=2, coeff_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        coeff = RationalFunction(
            qpoly(rng, m, coeff_terms, 3), qpoly(rng, m, coeff_terms, 3)
        )
        terms[diff_monomial(rng, m, n)] = coeff
    return DiffPoly(m, n, terms)


# -- str, one sum at a time: the signed-sum rule written out per class ----------


def qpoly_text(f):
    """str(f), each term's sign and coefficient worked out in place."""
    if not f._ints:
        return "0"
    names = _var_names(f.m)
    den = f._den
    bits = []
    for exp in sorted(f._ints, reverse=True):
        c = f._ints[exp]
        mono = "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(names, exp) if e)
        if not mono:
            body = fraction_text(abs(c), den)
        elif abs(c) == den:
            body = mono
        else:
            body = f"{fraction_text(abs(c), den)}*{mono}"
        if not bits:
            bits.append(body if c > 0 else f"-{body}")
        else:
            bits.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(bits)


def rational_text(q):
    """str(q), with qpoly_text for the num and den."""
    num = qpoly_text(q.num)
    if q.den == QPoly.one(q.m):
        return num
    if len(q.num._ints) > 1:
        num = f"({num})"
    den = qpoly_text(q.den)
    if any(ch in den for ch in "+-*/"):
        den = f"({den})"
    return f"{num}/{den}"


def diffpoly_text(P):
    """str(P), each term's sign and coefficient worked out in place, and
    rational_text for a coefficient that is not constant."""
    if not P.terms:
        return "0"
    bits = []
    for mono in P.display_order():
        c = P.terms[mono]
        const = _rf_constant(c)
        ms = mono.render(indexed=P.n > 1)
        if const is not None:
            mag = abs(const)
            text = fraction_text(mag.numerator, mag.denominator)
            if mono.is_one:
                body = text
            elif mag == 1:
                body = ms
            else:
                body = f"{text}*{ms}"
            negative = const < 0
        else:
            body = f"({rational_text(c)})" if mono.is_one else f"({rational_text(c)})*{ms}"
            negative = False
        if not bits:
            bits.append(f"-{body}" if negative else body)
        else:
            bits.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(bits)


def texted_qpoly(rng, m):
    """A polynomial with up to four terms, zero included, whose coefficients
    are signed, often 1 or -1, and often fractions, and which often has a
    constant term."""
    terms = {}
    for _ in range(rng.randrange(5)):
        e = (0,) * m if rng.random() < 0.25 else exponent(rng, m, 3)
        terms[e] = Fraction(rng.choice(NONZERO), rng.choice((1, 1, 2, 3)))
    return QPoly(m, terms)


def texted_rational(rng, m):
    """A quotient of texted_qpoly polynomials, often over 1 or a constant."""
    den = QPoly.one(m) if rng.random() < 0.25 else texted_qpoly(rng, m)
    while den.is_zero:
        den = texted_qpoly(rng, m)
    return RationalFunction(texted_qpoly(rng, m), den)


def texted_diffpoly(rng, m, n):
    """A differential polynomial of up to four terms, the constant monomial
    often among them, with constant and texted_rational coefficients."""
    terms = {}
    for _ in range(rng.randrange(5)):
        mono = DiffMonomial.one() if rng.random() < 0.25 else diff_monomial(rng, m, n)
        if rng.random() < 0.5:
            terms[mono] = Fraction(rng.choice(NONZERO), rng.choice((1, 1, 2, 3)))
        else:
            terms[mono] = texted_rational(rng, m)
    return DiffPoly(m, n, terms)


# -- brute-force order comparators, written straight from the definitions ----


def lex_expected(a, b):
    """t1 smallest: the highest-numbered variable decides first."""
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return -1 if x < y else 1
    return 0


def grlex_expected(a, b):
    if sum(a) != sum(b):
        return -1 if sum(a) < sum(b) else 1
    return lex_expected(a, b)


def grevlex_expected(a, b):
    if sum(a) != sum(b):
        return -1 if sum(a) < sum(b) else 1
    for x, y in zip(a, b):
        if x != y:
            return -1 if x > y else 1
    return 0


# -- the command line ---------------------------------------------------------


def full_parser():
    """The two-level parser that tropdiff's CLI once built for every call.

    The top level picks the command, whose subparser declares all of that
    command's arguments from cli._COMMANDS, read when this is called.  Each
    call builds a fresh parser, so main, which keeps each command's parser
    across calls, must exit, print and parse exactly as this parser does.
    """
    parser = argparse.ArgumentParser(
        prog="tropdiff",
        description="Exact tropical computations for differential polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func, arguments in cli._COMMANDS:
        command = sub.add_parser(name, help=help_text)
        for flags, options in arguments:
            command.add_argument(*flags, **options)
        command.set_defaults(func=func)
    return parser


# -- expression text ------------------------------------------------------------


class RationalDescent:
    """The parser as it first was: every atom a RationalFunction, every operator ring arithmetic.

    The oracle for parsing's folded descent: the same text at the same width
    must give the same num and den, or the same error at the same position.
    """

    def __init__(self, tokens, m, poly_mode):
        self.tokens = tokens
        self.i = 0
        self.m = m
        self.poly_mode = poly_mode

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def at_op(self, *ops):
        return self.peek()[0] in ops

    def expr(self):
        value = self.term()
        while self.at_op("+", "-"):
            op, _, _ = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.unary()
        while self.at_op("*", "/"):
            op, _, pos = self.take()
            rhs = self.unary()
            if op == "*":
                value = value * rhs
                continue
            if self.poly_mode and not (rhs.num.is_constant and rhs.den.is_constant):
                raise PolyParseError(
                    "division by a non-constant is not allowed in a polynomial", pos
                )
            if rhs.is_zero:
                raise ZeroDenominator(f"division by zero at position {pos}")
            value = value / rhs
        return value

    def unary(self):
        sign = 1
        while self.at_op("+", "-"):
            if self.take()[0] == "-":
                sign = -sign
        value = self.power()
        return value if sign > 0 else -value

    def power(self):
        value = self.atom()
        if self.at_op("^"):
            self.take()
            kind, k, pos = self.peek()
            if kind == "-":
                raise NegativeExponent("exponents must be nonnegative", pos)
            if kind != "int":
                raise PolyParseError("exponent must be a nonnegative integer", pos)
            self.take()
            value = value ** k
        return value

    def atom(self):
        kind, value, pos = self.take()
        if kind == "int":
            return RationalFunction.constant(self.m, Fraction(value))
        if kind == "var":
            if value > self.m:
                raise UnknownVariable(f"variable t{value} exceeds m={self.m}", pos)
            return RationalFunction(QPoly.variable(self.m, value))
        if kind == "(":
            inner = self.expr()
            closing, _, pos = self.take()
            if closing != ")":
                raise PolyParseError("expected closing parenthesis", pos)
            return inner
        raise PolyParseError(
            "expected a number, variable or parenthesized expression", pos
        )


def descent_parse(text, m=None, poly_mode=False):
    """parse_rational (or parse_poly, with poly_mode) by RationalDescent, with the same checks."""
    tokens = parsing._lex(text)
    if tokens[0][0] == "end":
        raise PolyParseError("empty input", 0)
    depth = 0
    for kind, _, pos in tokens:
        if kind in ("(", ")"):
            depth += 1 if kind == "(" else -1
            if depth > parsing.MAX_NESTING:
                raise PolyParseError(f"parentheses nest deeper than {parsing.MAX_NESTING}", pos)
    m = parsing.inferred_width(text) if m is None else width(m)
    parser = RationalDescent(tokens, m, poly_mode)
    value = parser.expr()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise PolyParseError("unexpected trailing input", pos)
    return value.as_qpoly() if poly_mode else value
