"""JSON encoding and decoding for every value the CLI speaks.

The JSON schema, one encoding per library value:

    VertexPoly        sorted list of exponent lists, zero is []
    VertexFraction    {"num": ..., "den": ...}
    QPoly             {"terms": [{"exp": [...], "coeff": "p/q"}, ...]}
    RationalFunction  {"num": <qpoly>, "den": <qpoly>}
    DiffMonomial      [{"var": [i, [J]], "pow": p}, ...]
    BooleanWeight     {"type": "full"} | {"type": "finite", "points": ...}
                      | {"type": "cofinite", "excluded": ...}
    MonomialOrder     {"type": "lex"|"grlex"|"grevlex"} | {"type": "matrix", "rows": ...}
    DiffPoly          [{"coeff": <rational>, "monomial": <monomial>}, ...]

Encodings are canonical: points and terms are emitted in sorted order, so a
value always serializes to the same bytes and re-parses to an equal value.
dumps is the one writer of those bytes: it writes exactly what
json.dumps(value, sort_keys=True, indent=2) writes, without the pure-Python
encoder that json.dumps falls back to when it indents.  Besides str, int,
list and dict it writes four library values in place, by their encodings
above: QPoly, RationalFunction, DiffMonomial and DiffPoly.  They are written
straight from their data, so no dict is built per term of a coefficient or
of a differential polynomial.  A DiffPoly's terms come in display_order(),
each written from the pieces that _rational_pieces and _monomial_text give
for its coefficient and its monomial: the same pieces that a RationalFunction
or a DiffMonomial is written as anywhere else.  Each encoding has one writer,
which keeps its text in written: _qpoly_text, _rational_pieces and
_monomial_text.

Within one dumps call each distinct polynomial is written once per indent:
a dict made for that call, and passed down through _write, maps a (QPoly,
indent) pair to its text.  QPoly hashes as it compares, and keeps its hash,
so equal polynomials that are distinct objects share one entry, and each
polynomial works its hash out once however often it is looked up.  The same dict keeps each
coefficient object's pieces and each monomial's text, once per indent: a
RationalFunction under (RationalFunction, id, indent), since it does not
hash and the value being written keeps it alive until the call ends, and a
DiffMonomial under (DiffMonomial, monomial, indent).  Those keys have three
items, so none equals a (QPoly, indent) key.  DiffPoly.derive carries a
coefficient by identity, so a prolongation repeats the same object in many
derivatives.  _write appends pieces to one list that dumps joins once, so a
kept text is referenced, not copied into each enclosing value's text.
Nothing outlives the call.

The encoders return values that dumps writes: diffpoly_json returns P
itself, the other encoders plain lists and dicts.  json.loads(dumps(v))
gives plain objects in every case, and those are what the decoders read.

Wherever a QPoly or RationalFunction is expected on input, expression text
like "t^2 - 1/2*u" is accepted too.  Without m, the width is the length of the
first exponent list in a side's terms, else inferred_width of the text sides:
one rule, _width_of, for qpoly_from and rational_from alike.

Decoders check shape only: that a list, an object or a key is where the
schema puts one.  Every object takes its documented keys only, and a weight
or order object only its type and its own key (points, excluded or rows;
none for full or a named order): any other key is a SchemaError that names
it, so a misspelt key is not read as an absent one.  The values inside go
to the constructors, which check them (errors.exponent for every exponent
and multi-index, errors.width for m and n); a public decoder reports a
constructor's ValueError, DimensionMismatch or NotAMonomialOrder as a
SchemaError.  Four value checks stay here, because they concern what
json.loads returns.  A terms coefficient must be an int or text in the one
form dumps writes, -?[0-9]+(/[0-9]+)?, matched before Fraction reads it:
json.loads reads 0.1 as a binary float, which is not 1/10, and Fraction's
own grammar (decimals, exponents, underscores, spaces, a plus sign, digits
outside ASCII) is no input format; "1e30000000" alone would build an int of
thirty million digits.  pow and prolong_bound must be ints, and json.loads
reads true and false as bools, which Python counts as ints.  qpoly_from
checks each exponent before series._summed, the one sparse sum, merges
repeated exponents, where [true, 0] would otherwise merge into the key
[1, 0].  And the CLI selects polynomials by name, so problem_from refuses a
name that is not a string or that the file uses twice.

diffpoly_from decodes and checks every term first, in file order, so the
first malformed term is the one reported.  Each term's coefficient comes from
rational_from at the problem's m.  Its monomial's factors are read in file
order, and each is checked once, whole, before the next: its shape and its
pow here, then its index against n and its multi-index against m by
diffpoly.checked_variable, the check that DiffMonomial and DiffPoly make too.
So the first faulty factor is the one reported, even when the coefficient is
zero or later cancels.  DiffMonomial._checked then merges and sorts the
checked factors, with no second check; no one-term DiffPoly is built.  It
then sums the nonzero terms in one pass, which keeps the keys, order and
coefficient objects that adding the terms one at a time gives, in time
linear in the number of terms.
"""

from __future__ import annotations

import collections
import functools
import re
from collections.abc import Callable, Sequence
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .diffpoly import DiffMonomial, DiffPoly, checked_variable
from .errors import DimensionMismatch, NotAMonomialOrder, SchemaError, exponent, shown, width
from .orders import MonomialOrder, order_standard
from .parsing import inferred_width, parse_poly, parse_rational
from .series import QPoly, RationalFunction, _summed
from .vertexpoly import VertexFraction, VertexPoly
from .weights import BooleanWeight, SubstitutionKernel

_NAMED_KEYS = 3  # an unknown-key refusal names this many keys and counts the rest
# a coefficient's text in a terms object: the form that dumps writes, in ASCII digits
_COEFF_TEXT = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


# -- writer ------------------------------------------------------------------


def dumps(value: object) -> str:
    """value as the bytes of json.dumps(value, sort_keys=True, indent=2).

    Written are str, int, list and dict (with str keys), and QPoly,
    RationalFunction, DiffMonomial and DiffPoly as the module docstring
    encodes them; any other type, bool, None, float and tuple included, is a
    TypeError.
    """
    out: list[str] = []
    _write(value, "\n", out, {})
    return "".join(out)


def _write(value: object, newline: str, out: list, written: dict) -> None:
    """Append value's text at this indent to out."""
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
        return
    if kind is int:
        out.append(int.__repr__(value))
        return
    inner = newline + "  "
    if kind is list:
        for item in value:
            if type(item) is not int:
                separator = "[" + inner
                for item in value:
                    out.append(separator)
                    _write(item, inner, out, written)
                    separator = "," + inner
                out.append(newline + "]")
                return
        # a list of plain ints, the common leaf, skips the recursion
        out.append(_int_list(value, newline))
        return
    if kind is dict:
        if not value:
            out.append("{}")
            return
        separator = "{" + inner
        for key in sorted(value):
            # a key that is not a str is a TypeError in encode_basestring_ascii
            out.append(separator + encode_basestring_ascii(key) + ": ")
            _write(value[key], inner, out, written)
            separator = "," + inner
        out.append(newline + "}")
        return
    if kind is QPoly:
        out.append(_qpoly_text(value, newline, written))
        return
    if kind is RationalFunction:
        out += _rational_pieces(value, newline, written)
        return
    if kind is DiffMonomial:
        out.append(_monomial_text(value, newline, written))
        return
    if kind is DiffPoly:
        if not value.terms:
            out.append("[]")
            return
        # each term is {"coeff": ..., "monomial": ...}, written from its pieces
        key = inner + "  "
        opening = "[" + inner + "{" + key + '"coeff": '
        following = "," + inner + "{" + key + '"coeff": '
        monomial = "," + key + '"monomial": '
        close = inner + "}"
        terms = value.terms
        for mono in value.display_order():
            out.append(opening)
            out += _rational_pieces(terms[mono], key, written)
            out.append(monomial)
            out.append(_monomial_text(mono, key, written))
            out.append(close)
            opening = following
        out.append(newline + "]")
        return
    raise TypeError(f"cannot write {kind.__name__} as JSON: {value!r}")


def _rational_pieces(q: RationalFunction, newline: str, written: dict) -> tuple[str, ...]:
    """{"den": ..., "num": ...} at this indent, as pieces kept in written."""
    # by identity: a RationalFunction does not hash, and the value written keeps it alive
    key = (RationalFunction, id(q), newline)
    pieces = written.get(key)
    if pieces is None:
        inner = newline + "  "
        den = _qpoly_text(q.den, inner, written)
        num = _qpoly_text(q.num, inner, written)
        pieces = ("{" + inner + '"den": ', den, "," + inner + '"num": ', num, newline + "}")
        written[key] = pieces
    return pieces


def _qpoly_text(f: QPoly, newline: str, written: dict) -> str:
    """{"terms": [{"coeff": ..., "exp": [...]}, ...]} at this indent, kept in written."""
    text = written.get((f, newline))
    if text is not None:
        return text
    inner = newline + "  "
    if f.is_zero:
        text = "{" + inner + '"terms": []' + newline + "}"
    else:
        item = inner + "  "
        key = item + "  "
        entry = key + "  "
        comma = "," + entry
        # a coefficient's text has only digits, "-" and "/", which JSON writes as they
        # are; an exponent is never empty, and is written inline as _int_list writes it
        body = ("," + item).join(
            f'{{{key}"coeff": "{coeff}",{key}"exp": [{entry}{comma.join(map(int.__repr__, e))}'
            f"{key}]{item}}}"
            for e, coeff in f.text_terms()
        )
        text = "{" + inner + '"terms": [' + item + body + inner + "]" + newline + "}"
    written[f, newline] = text
    return text


def _monomial_text(mono: DiffMonomial, newline: str, written: dict) -> str:
    """[{"pow": p, "var": [i, [J]]}, ...] at this indent, kept in written; the
    constant monomial is []."""
    if not mono.factors:
        return "[]"
    memo = (DiffMonomial, mono, newline)
    text = written.get(memo)
    if text is None:
        item = newline + "  "
        key = item + "  "
        entry = key + "  "
        body = ("," + item).join(
            f'{{{key}"pow": {p!r},{key}"var": [{entry}{i!r},{entry}{_int_list(J, entry)}{key}]{item}}}'
            for (i, J), p in mono.factors
        )
        text = written[memo] = "[" + item + body + newline + "]"
    return text


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


def diffpoly_json(P: DiffPoly) -> DiffPoly:
    # dumps writes a DiffPoly itself, term by term
    return P


# -- decoders ----------------------------------------------------------------


def _decoder(decode: Callable) -> Callable:
    """decode, with a constructor's refusal of a value reported as a SchemaError."""

    @functools.wraps(decode)
    def wrapper(*args, **kwargs):
        try:
            return decode(*args, **kwargs)
        except (ValueError, DimensionMismatch, NotAMonomialOrder) as exc:
            raise SchemaError(str(exc)) from exc

    return wrapper


def _is_int(obj: object) -> bool:
    """An int as json.loads gives one; true and false are bools, not ints."""
    return isinstance(obj, int) and not isinstance(obj, bool)


def _listed(obj: object, what: str) -> list:
    if not isinstance(obj, list):
        raise SchemaError(f"{what} must be a list, got {shown(obj)}")
    return obj


def _own_keys(obj: dict, what: str, *keys: str) -> None:
    """Refuse any key of obj but keys, naming the first _NAMED_KEYS of them."""
    extra = [key for key in obj if key not in keys]
    if extra:
        named = ", ".join(map(shown, extra[:_NAMED_KEYS]))
        if len(extra) > _NAMED_KEYS:
            named += f" and {len(extra) - _NAMED_KEYS} more"
        raise SchemaError(f"{what} takes no key {named}")


def _width_of(sides: Sequence) -> int:
    """The width of polynomial sides decoded without m: the length of the first
    exponent list in a terms side, else inferred_width of the text sides."""
    for side in sides:
        if isinstance(side, dict) and isinstance(side.get("terms"), list):
            for entry in side["terms"]:
                exp = entry.get("exp") if isinstance(entry, dict) else None
                if isinstance(exp, list):
                    if not exp:
                        raise SchemaError("an exponent list needs at least one coordinate, got []")
                    return len(exp)
    texts = [side for side in sides if isinstance(side, str)]
    if not texts:
        raise SchemaError("cannot infer the exponent width; pass m")
    return inferred_width(*texts)


@_decoder
def qpoly_from(obj: object, m: int | None = None) -> QPoly:
    if isinstance(obj, str):
        return parse_poly(obj, m)
    if isinstance(obj, dict) and "terms" in obj:
        _own_keys(obj, "polynomial object", "terms")
        if m is None:
            m = _width_of([obj])
        pairs: list[tuple[tuple, Fraction]] = []
        for entry in _listed(obj["terms"], "terms"):
            if not isinstance(entry, dict):
                raise SchemaError(f"term must be an object with exp and coeff, got {shown(entry)}")
            _own_keys(entry, "polynomial term", "exp", "coeff")
            exp = exponent(_listed(entry.get("exp"), "exponent"), m)
            coeff = entry.get("coeff")
            if not (_is_int(coeff) or isinstance(coeff, str) and _COEFF_TEXT.fullmatch(coeff)):
                raise SchemaError(f'coefficient must be an integer or "[-]p[/q]", got {shown(coeff)}')
            try:
                pairs.append((exp, Fraction(coeff)))
            except (ValueError, ZeroDivisionError) as exc:
                # "1/0" is a ZeroDivisionError, and more digits than int() reads a ValueError
                raise SchemaError(f"bad term {shown(entry)}") from exc
        return QPoly(m, _summed(pairs))
    raise SchemaError(f"expected polynomial text or a terms object, got {shown(obj)}")


@_decoder
def rational_from(obj: object, m: int | None = None) -> RationalFunction:
    if isinstance(obj, str):
        return parse_rational(obj, m)
    if isinstance(obj, dict) and "num" in obj:
        _own_keys(obj, "rational function object", "num", "den")
        if m is None:
            m = _width_of([obj[side] for side in ("num", "den") if side in obj])
        num = qpoly_from(obj["num"], m)
        den = qpoly_from(obj["den"], m) if "den" in obj else QPoly.one(m)
        return RationalFunction(num, den)
    raise SchemaError(f"expected rational text or a num/den object, got {shown(obj)}")


@_decoder
def weight_from(obj: object, m: int) -> BooleanWeight:
    if not isinstance(obj, dict) or "type" not in obj:
        raise SchemaError(f"weight must be an object with a type, got {shown(obj)}")
    kind = obj["type"]
    if kind == "full":
        _own_keys(obj, "full weight", "type")
        return BooleanWeight.full(m)
    if kind == "finite":
        _own_keys(obj, "finite weight", "type", "points")
        return BooleanWeight.finite(m, _listed(obj.get("points", []), "weight points"))
    if kind == "cofinite":
        _own_keys(obj, "cofinite weight", "type", "excluded")
        return BooleanWeight.cofinite(m, _listed(obj.get("excluded", []), "excluded points"))
    raise SchemaError(f"unknown weight type {shown(kind)}")


@_decoder
def order_from(obj: object, m: int) -> MonomialOrder:
    if not isinstance(obj, dict) or "type" not in obj:
        raise SchemaError(f"order must be an object with a type, got {shown(obj)}")
    kind = obj["type"]
    if kind == "matrix":
        _own_keys(obj, "matrix order", "type", "rows")
        rows = obj.get("rows")
        if not isinstance(rows, list) or not rows:
            raise SchemaError("matrix order needs nonempty rows")
        order = MonomialOrder(rows)
        if order.m != m:
            raise SchemaError(f"order matrix has {order.m} columns, expected {m}")
        return order
    order = order_standard(kind, m)
    _own_keys(obj, f"{kind} order", "type")
    return order


@_decoder
def diffpoly_from(obj: object, m: int, n: int) -> DiffPoly:
    m, n = width(m), width(n, "n")
    terms: list[tuple[DiffMonomial, RationalFunction]] = []
    for entry in _listed(obj, "differential polynomial"):
        if not isinstance(entry, dict) or "coeff" not in entry:
            raise SchemaError(f"term must be an object with coeff, got {shown(entry)}")
        _own_keys(entry, "differential polynomial term", "coeff", "monomial")
        coeff = rational_from(entry["coeff"], m)
        factors = []
        for fac in _listed(entry.get("monomial", []), "monomial"):
            if not isinstance(fac, dict) or "var" not in fac:
                raise SchemaError(f"monomial factor must name a var, got {shown(fac)}")
            _own_keys(fac, "monomial factor", "var", "pow")
            var = fac["var"]
            if not isinstance(var, (list, tuple)) or len(var) != 2:
                raise SchemaError(f"var must be [index, multi-index], got {shown(var)}")
            power = fac.get("pow", 1)
            if not _is_int(power) or power < 1:
                raise SchemaError(f"pow must be a positive integer, got {shown(power)}")
            i, J = var
            factors.append((checked_variable(i, J, m, n), power))
        mono = DiffMonomial._checked(factors)
        if coeff:
            terms.append((mono, coeff))
    return DiffPoly._trusted(m, n, _summed(terms))


@_decoder
def pairs_from(obj: object, m: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Exponent pairs [[I, J], ...] for order recovery."""
    pairs = []
    for pair in _listed(obj, "pairs"):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"pair must be [I, J], got {shown(pair)}")
        I, J = (exponent(side, m, "pair exponents") for side in pair)
        pairs.append((I, J))
    return pairs


# -- problem files -----------------------------------------------------------


# The decoded problem description that the CLI subcommands share: polynomials
# is a list of (name, DiffPoly), weights a list of BooleanWeight or None, order
# a MonomialOrder or None, kernel a SubstitutionKernel, and pairs a list of
# exponent pairs (I, J).
ProblemFile = collections.namedtuple(
    "ProblemFile", ("m", "n", "polynomials", "weights", "order", "kernel", "prolong_bound", "pairs")
)


@_decoder
def problem_from(obj: object) -> ProblemFile:
    if not isinstance(obj, dict):
        raise SchemaError("problem file must be a JSON object")
    _own_keys(
        obj, "problem file", "m", "n", "polynomials", "weight", "order", "kernel", "prolong_bound", "pairs"
    )
    m = width(obj.get("m"))
    n = width(obj.get("n", 1), "n")

    polynomials: list[tuple[str, DiffPoly]] = []
    names: set[str] = set()
    for entry in _listed(obj.get("polynomials", []), "polynomials"):
        if not isinstance(entry, dict) or "name" not in entry or "poly" not in entry:
            raise SchemaError(f"polynomial entry needs name and poly, got {shown(entry)}")
        _own_keys(entry, "polynomial entry", "name", "poly")
        name = entry["name"]
        if not isinstance(name, str) or name in names:
            raise SchemaError(f"polynomial names must be distinct strings, got {shown(name)}")
        names.add(name)
        polynomials.append((name, diffpoly_from(entry["poly"], m, n)))

    weights = None
    if "weight" in obj:
        raw = obj["weight"]
        if not isinstance(raw, list) or len(raw) != n:
            raise SchemaError(f"weight must be a list of {n} entries")
        weights = [weight_from(w, m) for w in raw]

    order = order_from(obj["order"], m) if "order" in obj else None

    kind = obj.get("kernel", "indicator")
    try:
        kernel = SubstitutionKernel(kind)
    except ValueError:
        raise SchemaError(f"{shown(kind)} is not a valid SubstitutionKernel") from None

    bound = obj.get("prolong_bound", 0)
    if not _is_int(bound) or bound < 0:
        raise SchemaError(f"prolong_bound must be a nonnegative integer, got {shown(bound)}")

    pairs = pairs_from(obj.get("pairs", []), m)
    return ProblemFile(m, n, polynomials, weights, order, kernel, bound, pairs)
