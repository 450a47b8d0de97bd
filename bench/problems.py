"""Seeded problem files for the benchmark workloads.

A workload is a CLI subcommand plus a generator of problem files.  One pass
of a workload runs SLOTS problems.  A slot fixes what sets a problem's cost:
the number of unknowns, the monomials and the supports of their coefficients,
the weights, the order and the kernel.  A variant of the slot draws what
leaves the cost about the same: the coefficient values (and, for far
cofinite weights, where the far points sit inside a fixed bounding box).  So
every pass has the same mix of costs whatever the seed, and seeds differ in
the numbers the program computes with and prints.

Each slot has VARIANTS problems.  The stdout of every one was digested at the
reference commit (reference_digests.json); the seed picks which variants a run
visits, and in which order.

Problems are built from plain integers and fractions, without the code under
test.  A coefficient whose terms cancel to zero is redrawn, so every problem
is valid and no operation fails.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

SLOTS = 100
VARIANTS = 16

Exp = tuple[int, ...]


class Draw:
    """The slot's generator for structure and the variant's for values."""

    def __init__(self, workload: str, slot: int, variant: int):
        self.shape = random.Random(f"{workload}/{slot}")
        self.value = random.Random(f"{workload}/{slot}/{variant}")


# -- coefficients ------------------------------------------------------------


def _names(m: int) -> list[str]:
    return ["t", "u"] if m == 2 else [f"t{k}" for k in range(1, m + 1)]


def _exponent(rng: random.Random, m: int, degree: int) -> Exp:
    exp = [0] * m
    for _ in range(rng.randint(0, degree)):
        exp[rng.randrange(m)] += 1
    return tuple(exp)


def _poly(draw: Draw, m: int, terms: int, degree: int) -> dict[Exp, Fraction]:
    """Random sparse polynomial, redrawn until its terms do not cancel to zero."""
    exps = [_exponent(draw.shape, m, degree) for _ in range(terms)]
    while True:
        out: dict[Exp, Fraction] = {}
        for e in exps:
            c = Fraction(
                draw.value.choice((-3, -2, -1, 1, 2, 3)), draw.value.choice((1, 1, 1, 2, 3))
            )
            out[e] = out.get(e, Fraction(0)) + c
        out = {e: c for e, c in out.items() if c != 0}
        if out:
            return out


def _text(poly: dict[Exp, Fraction], m: int) -> str:
    names = _names(m)
    bits = []
    for exp in sorted(poly, reverse=True):
        c = poly[exp]
        mono = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exp) if e)
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        if not bits:
            bits.append(f"-{body}" if c < 0 else body)
        else:
            bits.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(bits)


def _coefficient(draw: Draw, m: int, num_terms: int, den_terms: int) -> str:
    """Coefficient text: a polynomial when den_terms is 0, else a quotient."""
    num = _poly(draw, m, draw.shape.randint(1, num_terms), 2)
    if not den_terms:
        return _text(num, m)
    den = _poly(draw, m, draw.shape.randint(1, den_terms), 1)
    return f"({_text(num, m)})/({_text(den, m)})"


# -- differential polynomials ------------------------------------------------


def _multi_index(rng: random.Random, m: int) -> Exp:
    """Zero or one unit step: x_{i,0} or a first derivative."""
    J = [0] * m
    if rng.random() < 0.5:
        J[rng.randrange(m)] += 1
    return tuple(J)


def _diffpoly(draw: Draw, m: int, n: int, terms: int, coeff: tuple[int, int], max_factors: int):
    out = []
    seen = set()
    while len(out) < terms:
        factors: dict[tuple[int, Exp], int] = {}
        for _ in range(draw.shape.randint(1, max_factors)):
            var = (draw.shape.randint(1, n), _multi_index(draw.shape, m))
            factors[var] = factors.get(var, 0) + 1
        key = tuple(sorted(factors.items()))
        if key in seen:
            continue
        seen.add(key)
        out.append(
            {
                "coeff": _coefficient(draw, m, *coeff),
                "monomial": [{"var": [i, list(J)], "pow": p} for (i, J), p in key],
            }
        )
    return out


def _polynomials(draw, m, n, count, terms, coeff, max_factors=2) -> list[dict]:
    return [
        {"name": f"P{k + 1}", "poly": _diffpoly(draw, m, n, terms, coeff, max_factors)}
        for k in range(count)
    ]


# -- weights -----------------------------------------------------------------


def _points(rng: random.Random, m: int, count: int, top: int) -> list[list[int]]:
    found = {tuple(rng.randint(0, top) for _ in range(m)) for _ in range(count)}
    return [list(p) for p in sorted(found)]


def _weight(rng: random.Random, m: int, kind: str) -> dict:
    """A weight whose points lie near the origin."""
    if kind == "full":
        return {"type": "full"}
    if kind == "finite":
        return {"type": "finite", "points": _points(rng, m, rng.randint(2, 5), 3)}
    return {"type": "cofinite", "excluded": _points(rng, m, rng.randint(1, 4), 2)}


def _far_weight(draw: Draw, m: int) -> dict:
    """Cofinite weight whose excluded points lie far from the origin.

    The slot fixes the bounding box, max_k + 2 values per coordinate, that the
    cofinite vertex computation enumerates; the variant places the other far
    points inside it.  Half the weights also exclude the origin, so their
    vertex set is the unit vectors rather than {0}.
    """
    box = [draw.shape.randint(3, 7) for _ in range(m)]
    excluded = {tuple(box)}
    for _ in range(draw.shape.randint(0, 2)):
        excluded.add(tuple(draw.value.randint(1, top) for top in box))
    if draw.shape.random() < 0.5:
        excluded.add((0,) * m)
    return {"type": "cofinite", "excluded": [list(p) for p in sorted(excluded)]}


# -- workloads ---------------------------------------------------------------

_KINDS = ("full", "finite", "cofinite")
_ORDERS = ("lex", "grlex", "grevlex")
_KERNELS = ("indicator", "factorial")


def _initial_m2(draw: Draw, slot: int) -> dict:
    m, n = 2, 1 + slot % 2
    kinds = [_KINDS[(slot // 2 + k) % 3] for k in range(n)]
    # A two-term denominator in a quarter of the slots.  It is squared at each
    # derivative and never reduced, which makes these the slow problems; their
    # monomials keep to one factor, so that a product of two derivatives does
    # not multiply that growth.
    two_term = int(slot // 2 % 4 == 1)
    return {
        "m": m,
        "n": n,
        "polynomials": _polynomials(draw, m, n, 1, 2, (2, 1 + two_term), 2 - two_term),
        "weight": [_weight(draw.shape, m, kind) for kind in kinds],
        "order": {"type": _ORDERS[(slot // 6) % 3]},
        "kernel": _KERNELS[(slot // 18) % 2],
        "prolong_bound": 2,
    }


def _translate_m3(draw: Draw, slot: int) -> dict:
    m, n = 3, 1 + slot % 2
    kinds = [("finite", "cofinite")[(slot // 2 + k) % 2] for k in range(n)]
    return {
        "m": m,
        "n": n,
        "polynomials": _polynomials(draw, m, n, 1, 2, (2, 1), max_factors=1 + slot // 8 % 2),
        "weight": [_weight(draw.shape, m, kind) for kind in kinds],
        "kernel": _KERNELS[(slot // 4) % 2],
        "prolong_bound": 1,
    }


def _prolong_m2(draw: Draw, slot: int) -> dict:
    m, n = 2, 1 + slot % 2
    return {
        "m": m,
        "n": n,
        "polynomials": _polynomials(draw, m, n, 1, 2, (2, 2)),
        "prolong_bound": 3,
    }


def _tropw_far_m4(draw: Draw, slot: int) -> dict:
    m, n = 4, 1 + slot % 2
    return {
        "m": m,
        "n": n,
        "polynomials": _polynomials(draw, m, n, 1 + slot // 2 % 2, 2, (1, 1), max_factors=1),
        "weight": [_far_weight(draw, m) for _ in range(n)],
    }


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    shape: str
    make: Callable[[Draw, int], dict]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "initial-m2",
            "initial",
            "m=2, n in {1,2}, rational coefficients, full/finite/cofinite weights near 0, "
            "lex/grlex/grevlex, both kernels, bound 2",
            _initial_m2,
        ),
        Workload(
            "translate-m3",
            "translate",
            "m=3, n in {1,2}, rational coefficients, finite/cofinite weights near 0, "
            "both kernels, bound 1",
            _translate_m3,
        ),
        Workload(
            "prolong-m2",
            "prolong",
            "m=2, n in {1,2}, rational coefficients, bound 3, no weights",
            _prolong_m2,
        ),
        Workload(
            "tropw-far-m4",
            "tropw",
            "m=4, n in {1,2}, cofinite weights with excluded points far from 0",
            _tropw_far_m4,
        ),
    )
}


def problem(workload: str, slot: int, variant: int) -> dict:
    """Problem file contents for one slot and variant; the same every time."""
    return WORKLOADS[workload].make(Draw(workload, slot, variant), slot)


def variant_order(seed: int) -> list[list[int]]:
    """Per slot, the order in which a run with this seed visits the variants."""
    rng = random.Random(seed)
    return [rng.sample(range(VARIANTS), VARIANTS) for _ in range(SLOTS)]
