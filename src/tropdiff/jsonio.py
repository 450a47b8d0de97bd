"""JSON encoding and decoding for every value the CLI speaks.

Encodings are canonical: points and terms are emitted in sorted order, so a
value always serializes to the same bytes and re-parses to an equal value.

    VertexPoly        sorted list of exponent lists, zero is []
    VertexFraction    {"num": ..., "den": ...}
    QPoly             {"terms": [{"exp": [...], "coeff": "p/q"}, ...]}
    RationalFunction  {"num": <qpoly>, "den": <qpoly>}
    BooleanWeight     {"type": "full"} | {"type": "finite", "points": ...}
                      | {"type": "cofinite", "excluded": ...}
    MonomialOrder     {"type": "lex"|"grlex"|"grevlex"} | {"type": "matrix", "rows": ...}
    DiffPoly          [{"coeff": ..., "monomial": [{"var": [i, [J]], "pow": p}, ...]}, ...]

Wherever a QPoly or RationalFunction is expected on input, expression text
like "t^2 - 1/2*u" is accepted too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .diffpoly import DiffMonomial, DiffPoly
from .errors import SchemaError
from .orders import MonomialOrder, order_standard, order_validate
from .parsing import parse_poly, parse_rational
from .series import QPoly, RationalFunction
from .vertexpoly import VertexFraction, VertexPoly
from .weights import BooleanWeight, SubstitutionKernel


# -- encoders ----------------------------------------------------------------


def vertexpoly_json(vp: VertexPoly) -> list:
    # largest point first, matching the printed form
    return [list(p) for p in reversed(vp.points)]


def vertexfraction_json(vf: VertexFraction) -> dict:
    return {"num": vertexpoly_json(vf.num), "den": vertexpoly_json(vf.den)}


def qpoly_json(f: QPoly) -> dict:
    return {
        "terms": [
            {"exp": list(e), "coeff": str(f.terms[e])} for e in sorted(f.terms)
        ]
    }


def rational_json(q: RationalFunction) -> dict:
    return {"num": qpoly_json(q.num), "den": qpoly_json(q.den)}


def weight_json(w: BooleanWeight) -> dict:
    if w.kind == "full":
        return {"type": "full"}
    pts = [list(p) for p in sorted(w.data)]
    if w.kind == "finite":
        return {"type": "finite", "points": pts}
    return {"type": "cofinite", "excluded": pts}


def order_json(order: MonomialOrder) -> dict:
    if order.kind in ("lex", "grlex", "grevlex"):
        return {"type": order.kind}
    return {"type": "matrix", "rows": [list(r) for r in order.rows]}


def diffmonomial_json(mono: DiffMonomial) -> list:
    return [{"var": [i, list(J)], "pow": p} for (i, J), p in mono.factors]


def diffpoly_json(P: DiffPoly) -> list:
    ordered = sorted(P.terms, key=lambda E: (E.total_degree, E.factors), reverse=True)
    return [
        {"coeff": rational_json(P.terms[mono]), "monomial": diffmonomial_json(mono)}
        for mono in ordered
    ]


# -- decoders ----------------------------------------------------------------


def _int_list(obj: Any, what: str) -> tuple[int, ...]:
    if not isinstance(obj, (list, tuple)) or not all(isinstance(v, int) for v in obj):
        raise SchemaError(f"{what} must be a list of integers, got {obj!r}")
    return tuple(obj)


def _index_list(obj: Any, what: str) -> tuple[int, ...]:
    """An exponent or multi-index: integers, none negative."""
    out = _int_list(obj, what)
    if any(v < 0 for v in out):
        raise SchemaError(f"{what} must be nonnegative, got {list(out)}")
    return out


def _explicit_m(obj: Any) -> int | None:
    """Exponent width written out somewhere in a serialized value, if any."""
    if isinstance(obj, dict):
        exp = obj.get("exp")
        if isinstance(exp, (list, tuple)):
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


def qpoly_from(obj: Any, m: int | None = None) -> QPoly:
    if isinstance(obj, str):
        return parse_poly(obj, m)
    if isinstance(obj, dict) and "terms" in obj:
        if m is None:
            m = _explicit_m(obj)
            if m is None:
                raise SchemaError("cannot infer the exponent width of {\"terms\": []}")
        terms: dict[tuple[int, ...], Fraction] = {}
        for entry in obj["terms"]:
            exp = _index_list(entry.get("exp"), "exponent")
            try:
                coeff = Fraction(entry.get("coeff"))
            except (TypeError, ValueError) as exc:
                raise SchemaError(f"bad coefficient {entry.get('coeff')!r}") from exc
            terms[exp] = terms.get(exp, Fraction(0)) + coeff
        return QPoly(m, terms)
    raise SchemaError(f"expected polynomial text or a terms object, got {obj!r}")


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


def weight_from(obj: Any, m: int) -> BooleanWeight:
    if not isinstance(obj, dict) or "type" not in obj:
        raise SchemaError(f"weight must be an object with a type, got {obj!r}")
    kind = obj["type"]
    if kind == "full":
        return BooleanWeight.full(m)
    if kind == "finite":
        return BooleanWeight.finite(
            m, [_index_list(p, "weight point") for p in obj.get("points", [])]
        )
    if kind == "cofinite":
        return BooleanWeight.cofinite(
            m, [_index_list(p, "excluded point") for p in obj.get("excluded", [])]
        )
    raise SchemaError(f"unknown weight type {kind!r}")


def order_from(obj: Any, m: int) -> MonomialOrder:
    if not isinstance(obj, dict) or "type" not in obj:
        raise SchemaError(f"order must be an object with a type, got {obj!r}")
    kind = obj["type"]
    if kind in ("lex", "grlex", "grevlex"):
        return order_standard(kind, m)
    if kind == "matrix":
        rows = obj.get("rows")
        if not isinstance(rows, list) or not rows:
            raise SchemaError("matrix order needs nonempty rows")
        order = order_validate([_int_list(r, "matrix row") for r in rows])
        if order.m != m:
            raise SchemaError(f"order matrix has {order.m} columns, expected {m}")
        return order
    raise SchemaError(f"unknown order type {kind!r}")


def diffpoly_from(obj: Any, m: int, n: int) -> DiffPoly:
    if not isinstance(obj, list):
        raise SchemaError(f"differential polynomial must be a list of terms, got {obj!r}")
    total = DiffPoly.zero(m, n)
    for entry in obj:
        if not isinstance(entry, dict) or "coeff" not in entry:
            raise SchemaError(f"term must be an object with coeff, got {entry!r}")
        coeff = rational_from(entry["coeff"], m)
        factors = []
        for fac in entry.get("monomial", []):
            if not isinstance(fac, dict) or "var" not in fac:
                raise SchemaError(f"monomial factor must name a var, got {fac!r}")
            var = fac["var"]
            if not isinstance(var, (list, tuple)) or len(var) != 2:
                raise SchemaError(f"var must be [index, multi-index], got {var!r}")
            i = var[0]
            if not isinstance(i, int) or not 1 <= i <= n:
                raise SchemaError(f"unknown index {i!r} out of range for n={n}")
            J = _index_list(var[1], "derivative multi-index")
            if len(J) != m:
                raise SchemaError(f"multi-index {J} does not have {m} coordinates")
            power = fac.get("pow", 1)
            if not isinstance(power, int) or power < 1:
                raise SchemaError(f"pow must be a positive integer, got {power!r}")
            factors.append(((i, J), power))
        total = total + DiffPoly(m, n, {DiffMonomial(factors): coeff})
    return total


def pairs_from(obj: Any, m: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Exponent pairs [[I, J], ...] for order recovery."""
    if not isinstance(obj, list):
        raise SchemaError(f"pairs must be a list of [I, J] pairs, got {obj!r}")
    pairs = []
    for pair in obj:
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"pair must be [I, J], got {pair!r}")
        I, J = (_index_list(side, "pair exponent") for side in pair)
        if len(I) != m or len(J) != m:
            raise SchemaError(f"pair {pair!r} does not match m={m}")
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


def problem_from(obj: Any) -> ProblemFile:
    if not isinstance(obj, dict):
        raise SchemaError("problem file must be a JSON object")
    m = obj.get("m")
    n = obj.get("n", 1)
    if not isinstance(m, int) or m < 1:
        raise SchemaError(f"m must be a positive integer, got {m!r}")
    if not isinstance(n, int) or n < 1:
        raise SchemaError(f"n must be a positive integer, got {n!r}")

    polynomials: list[tuple[str, DiffPoly]] = []
    for entry in obj.get("polynomials", []):
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

    kernel_name = obj.get("kernel", "indicator")
    if kernel_name not in ("indicator", "factorial"):
        raise SchemaError(f"unknown kernel {kernel_name!r}")
    kernel = SubstitutionKernel(kernel_name)

    bound = obj.get("prolong_bound", 0)
    if not isinstance(bound, int) or bound < 0:
        raise SchemaError(f"prolong_bound must be a nonnegative integer, got {bound!r}")

    pairs = pairs_from(obj.get("pairs", []), m)
    return ProblemFile(m, n, polynomials, weights, order, kernel, bound, pairs)
