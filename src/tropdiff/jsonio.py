"""JSON encoding and decoding for every value the CLI speaks.

Encodings are canonical: points and terms are emitted in sorted order, so a
value always serializes to the same bytes and re-parses to an equal value.
dumps is the one writer of those bytes: it writes exactly what
json.dumps(value, sort_keys=True, indent=2) writes, without the pure-Python
encoder that json.dumps falls back to when it indents.  Besides str, int,
list and dict it writes three library values in place, straight from their
data, so no dict is built per term of a coefficient:

    VertexPoly        sorted list of exponent lists, zero is []
    VertexFraction    {"num": ..., "den": ...}
    QPoly             {"terms": [{"exp": [...], "coeff": "p/q"}, ...]}
    RationalFunction  {"num": <qpoly>, "den": <qpoly>}
    DiffMonomial      [{"var": [i, [J]], "pow": p}, ...]
    BooleanWeight     {"type": "full"} | {"type": "finite", "points": ...}
                      | {"type": "cofinite", "excluded": ...}
    MonomialOrder     {"type": "lex"|"grlex"|"grevlex"} | {"type": "matrix", "rows": ...}
    DiffPoly          [{"coeff": <rational>, "monomial": <monomial>}, ...]

The encoders return values that dumps writes: diffpoly_json's entries hold
the RationalFunction and the DiffMonomial themselves, the other encoders
plain lists and dicts.  json.loads(dumps(v)) gives plain objects in every
case, and those are what the decoders read.

Wherever a QPoly or RationalFunction is expected on input, expression text
like "t^2 - 1/2*u" is accepted too.

Decoders check shape only: that a list, an object or a key is where the
schema puts one.  The values inside go to the constructors, which check
them (errors.exponent for every exponent and multi-index, errors.width for
m and n); a public decoder reports a constructor's ValueError or
DimensionMismatch as a SchemaError.  Three value checks stay here, because
they concern what json.loads returns.  A coefficient must be text or an int:
json.loads reads 0.1 as a binary float, which is not 1/10.  pow and
prolong_bound must be ints, and json.loads reads true and false as bools,
which Python counts as ints.  And
qpoly_from checks each exponent before it merges repeated exponents in a
dict, where [true, 0] would otherwise merge into the key [1, 0].
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Sequence

from .diffpoly import DiffMonomial, DiffPoly
from .errors import DimensionMismatch, NotAMonomialOrder, SchemaError, exponent, width
from .orders import MonomialOrder, order_standard
from .parsing import parse_poly, parse_rational
from .series import QPoly, RationalFunction
from .vertexpoly import VertexFraction, VertexPoly
from .weights import BooleanWeight, SubstitutionKernel


# -- writer ------------------------------------------------------------------


def dumps(value: Any) -> str:
    """value as the bytes of json.dumps(value, sort_keys=True, indent=2).

    Written are str, int, list and dict (with str keys), and QPoly,
    RationalFunction and DiffMonomial as the module docstring encodes them;
    any other type, bool, None, float and tuple included, is a TypeError.
    """
    return _write(value, "\n")


def _write(value: Any, newline: str) -> str:
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    inner = newline + "  "
    if kind is list:
        for item in value:
            if type(item) is not int:
                body = [_write(item, inner) for item in value]
                return "[" + inner + ("," + inner).join(body) + newline + "]"
        # a list of plain ints, the common leaf, skips the recursion
        return _int_list(value, newline)
    if kind is dict:
        if not value:
            return "{}"
        # a key that is not a str is a TypeError in encode_basestring_ascii
        body = [
            encode_basestring_ascii(key) + ": " + _write(value[key], inner)
            for key in sorted(value)
        ]
        return "{" + inner + ("," + inner).join(body) + newline + "}"
    if kind is QPoly:
        return _qpoly_text(value, newline)
    if kind is RationalFunction:
        den = _qpoly_text(value.den, inner)
        num = _qpoly_text(value.num, inner)
        return "{" + inner + '"den": ' + den + "," + inner + '"num": ' + num + newline + "}"
    if kind is DiffMonomial:
        return _monomial_text(value, newline)
    raise TypeError(f"cannot write {kind.__name__} as JSON: {value!r}")


def _qpoly_text(f: QPoly, newline: str) -> str:
    """{"terms": [{"coeff": ..., "exp": [...]}, ...]} at this indent."""
    inner = newline + "  "
    if f.is_zero:
        return "{" + inner + '"terms": []' + newline + "}"
    item = inner + "  "
    key = item + "  "
    # a coefficient's text has only digits, "-" and "/", which JSON writes as they are
    body = ("," + item).join(
        f'{{{key}"coeff": "{text}",{key}"exp": {_int_list(e, key)}{item}}}'
        for e, text in f.text_terms()
    )
    return "{" + inner + '"terms": [' + item + body + inner + "]" + newline + "}"


def _monomial_text(mono: DiffMonomial, newline: str) -> str:
    """[{"pow": p, "var": [i, [J]]}, ...] at this indent; the constant monomial is []."""
    if not mono.factors:
        return "[]"
    item = newline + "  "
    key = item + "  "
    entry = key + "  "
    body = ("," + item).join(
        f'{{{key}"pow": {p!r},{key}"var": [{entry}{i!r},{entry}{_int_list(J, entry)}{key}]{item}}}'
        for (i, J), p in mono.factors
    )
    return "[" + item + body + newline + "]"


def _int_list(values: Sequence[int], newline: str) -> str:
    """Plain ints, checked by the caller or built by the library, at this indent."""
    if not values:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(map(int.__repr__, values)) + newline + "]"


# -- encoders ----------------------------------------------------------------


def vertexpoly_json(vp: VertexPoly) -> list:
    # largest point first, matching the printed form
    return [list(p) for p in reversed(vp.points)]


def vertexfraction_json(vf: VertexFraction) -> dict:
    return {"num": vertexpoly_json(vf.num), "den": vertexpoly_json(vf.den)}


def weight_json(w: BooleanWeight) -> dict:
    if w.kind == "full":
        return {"type": "full"}
    pts = [list(p) for p in sorted(w.data)]
    if w.kind == "finite":
        return {"type": "finite", "points": pts}
    return {"type": "cofinite", "excluded": pts}


def order_json(order: MonomialOrder) -> dict:
    kind = order.kind
    if kind == "matrix":
        return {"type": "matrix", "rows": [list(r) for r in order.rows]}
    return {"type": kind}


def diffpoly_json(P: DiffPoly) -> list:
    ordered = sorted(P.terms, key=lambda E: (E.total_degree, E.factors), reverse=True)
    return [{"coeff": P.terms[mono], "monomial": mono} for mono in ordered]


# -- decoders ----------------------------------------------------------------


def _decoder(decode: Callable) -> Callable:
    """decode, with a constructor's refusal of a value reported as a SchemaError."""

    @functools.wraps(decode)
    def wrapper(*args, **kwargs):
        try:
            return decode(*args, **kwargs)
        except (ValueError, DimensionMismatch) as exc:
            raise SchemaError(str(exc)) from exc

    return wrapper


def _is_int(obj: Any) -> bool:
    """An int as json.loads gives one; true and false are bools, not ints."""
    return isinstance(obj, int) and not isinstance(obj, bool)


def _listed(obj: Any, what: str) -> list:
    if not isinstance(obj, list):
        raise SchemaError(f"{what} must be a list, got {obj!r}")
    return obj


def _explicit_m(obj: Any) -> int | None:
    """Exponent width written out somewhere in a serialized value, if any."""
    if isinstance(obj, dict):
        exp = obj.get("exp")
        if isinstance(exp, (list, tuple)):
            if not exp:
                raise SchemaError("an exponent list needs at least one coordinate, got []")
            return len(exp)
        for value in obj.values():
            got = _explicit_m(value)
            if got is not None:
                return got
    if isinstance(obj, (list, tuple)):
        for value in obj:
            got = _explicit_m(value)
            if got is not None:
                return got
    return None


@_decoder
def qpoly_from(obj: Any, m: int | None = None) -> QPoly:
    if isinstance(obj, str):
        return parse_poly(obj, m)
    if isinstance(obj, dict) and "terms" in obj:
        if m is None:
            m = _explicit_m(obj)
            if m is None:
                raise SchemaError("cannot infer the exponent width of {\"terms\": []}")
        terms: dict[tuple, Fraction] = {}
        for entry in _listed(obj["terms"], "terms"):
            if not isinstance(entry, dict):
                raise SchemaError(f"term must be an object with exp and coeff, got {entry!r}")
            exp = exponent(_listed(entry.get("exp"), "exponent"), m)
            coeff = entry.get("coeff")
            if not _is_int(coeff) and not isinstance(coeff, str):
                raise SchemaError(f"coefficient must be text or an integer, got {coeff!r}")
            try:
                terms[exp] = terms.get(exp, 0) + Fraction(coeff)
            except (ValueError, ZeroDivisionError) as exc:
                # a coefficient such as "1/0" is a ZeroDivisionError
                raise SchemaError(f"bad term {entry!r}") from exc
        return QPoly(m, terms)
    raise SchemaError(f"expected polynomial text or a terms object, got {obj!r}")


@_decoder
def rational_from(obj: Any, m: int | None = None) -> RationalFunction:
    if isinstance(obj, str):
        return parse_rational(obj, m)
    if isinstance(obj, dict) and "num" in obj:
        if m is None:
            m = _explicit_m(obj)
        if m is None:
            # no exponent lists anywhere; parse the text sides to learn the width
            widths = [
                parse_poly(obj[side], None).m
                for side in ("num", "den")
                if isinstance(obj.get(side), str)
            ]
            if not widths:
                raise SchemaError("cannot infer the exponent width; pass m")
            m = max(widths)
        num = qpoly_from(obj["num"], m)
        den = qpoly_from(obj["den"], m) if "den" in obj else QPoly.one(m)
        return RationalFunction(num, den)
    raise SchemaError(f"expected rational text or a num/den object, got {obj!r}")


@_decoder
def weight_from(obj: Any, m: int) -> BooleanWeight:
    if not isinstance(obj, dict) or "type" not in obj:
        raise SchemaError(f"weight must be an object with a type, got {obj!r}")
    kind = obj["type"]
    if kind == "full":
        return BooleanWeight.full(m)
    if kind == "finite":
        return BooleanWeight.finite(m, _listed(obj.get("points", []), "weight points"))
    if kind == "cofinite":
        return BooleanWeight.cofinite(m, _listed(obj.get("excluded", []), "excluded points"))
    raise SchemaError(f"unknown weight type {kind!r}")


@_decoder
def order_from(obj: Any, m: int) -> MonomialOrder:
    if not isinstance(obj, dict) or "type" not in obj:
        raise SchemaError(f"order must be an object with a type, got {obj!r}")
    kind = obj["type"]
    if kind == "matrix":
        rows = obj.get("rows")
        if not isinstance(rows, list) or not rows:
            raise SchemaError("matrix order needs nonempty rows")
        order = MonomialOrder(rows)
        if order.m != m:
            raise SchemaError(f"order matrix has {order.m} columns, expected {m}")
        return order
    try:
        return order_standard(kind, m)
    except NotAMonomialOrder as exc:
        raise SchemaError(str(exc)) from exc


@_decoder
def diffpoly_from(obj: Any, m: int, n: int) -> DiffPoly:
    total = DiffPoly.zero(m, n)
    for entry in _listed(obj, "differential polynomial"):
        if not isinstance(entry, dict) or "coeff" not in entry:
            raise SchemaError(f"term must be an object with coeff, got {entry!r}")
        coeff = rational_from(entry["coeff"], m)
        factors = []
        for fac in _listed(entry.get("monomial", []), "monomial"):
            if not isinstance(fac, dict) or "var" not in fac:
                raise SchemaError(f"monomial factor must name a var, got {fac!r}")
            var = fac["var"]
            if not isinstance(var, (list, tuple)) or len(var) != 2:
                raise SchemaError(f"var must be [index, multi-index], got {var!r}")
            power = fac.get("pow", 1)
            if not _is_int(power) or power < 1:
                raise SchemaError(f"pow must be a positive integer, got {power!r}")
            factors.append((var, power))
        total = total + DiffPoly(m, n, {DiffMonomial(factors): coeff})
    return total


@_decoder
def pairs_from(obj: Any, m: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Exponent pairs [[I, J], ...] for order recovery."""
    pairs = []
    for pair in _listed(obj, "pairs"):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"pair must be [I, J], got {pair!r}")
        I, J = (exponent(side, m, "pair exponents") for side in pair)
        pairs.append((I, J))
    return pairs


# -- problem files -----------------------------------------------------------


@dataclass
class ProblemFile:
    """Decoded problem description shared by the CLI subcommands."""

    m: int
    n: int
    polynomials: list[tuple[str, DiffPoly]]
    weights: list[BooleanWeight] | None
    order: MonomialOrder | None
    kernel: SubstitutionKernel
    prolong_bound: int
    pairs: list[tuple[tuple[int, ...], tuple[int, ...]]]


@_decoder
def problem_from(obj: Any) -> ProblemFile:
    if not isinstance(obj, dict):
        raise SchemaError("problem file must be a JSON object")
    m = width(obj.get("m"))
    n = width(obj.get("n", 1), "n")

    polynomials: list[tuple[str, DiffPoly]] = []
    for entry in _listed(obj.get("polynomials", []), "polynomials"):
        if not isinstance(entry, dict) or "name" not in entry or "poly" not in entry:
            raise SchemaError(f"polynomial entry needs name and poly, got {entry!r}")
        polynomials.append((str(entry["name"]), diffpoly_from(entry["poly"], m, n)))

    weights = None
    if "weight" in obj:
        raw = obj["weight"]
        if not isinstance(raw, list) or len(raw) != n:
            raise SchemaError(f"weight must be a list of {n} entries")
        weights = [weight_from(w, m) for w in raw]

    order = order_from(obj["order"], m) if "order" in obj else None

    kernel = SubstitutionKernel(obj.get("kernel", "indicator"))

    bound = obj.get("prolong_bound", 0)
    if not _is_int(bound) or bound < 0:
        raise SchemaError(f"prolong_bound must be a nonnegative integer, got {bound!r}")

    pairs = pairs_from(obj.get("pairs", []), m)
    return ProblemFile(m, n, polynomials, weights, order, kernel, bound, pairs)
