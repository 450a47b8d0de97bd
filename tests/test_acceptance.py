"""End-to-end checks, one per advertised guarantee.

Each test prints a single PASS line; a failure anywhere keeps the line from
printing and surfaces through pytest as usual.  Criteria 1 and 3 also carry
a wall-clock budget.
"""

import itertools
import random
import time

from helpers import (
    diff_monomial,
    matrix_order,
    qpoly,
    rational,
    unit_ball_fraction,
    weight,
)
from tropdiff import (
    BooleanWeight,
    DiffMonomial,
    DiffPoly,
    InconsistentOracle,
    MonomialOrder,
    QPoly,
    RationalFunction,
    SubstitutionKernel,
    VertexFraction,
    VertexPoly,
    bezout_witness,
    in_unit_ball,
    initial_form,
    max_ideal_member,
    multi_indices,
    omega_chain,
    order_from_membership,
    order_standard,
    parse_poly,
    parse_rational,
    residue,
    separating_constants,
    staircase_vertices_2d,
    translate,
    trop_frac,
    trop_poly,
    tropw,
)

X = lambda J: DiffMonomial.var(1, J)
W = BooleanWeight.cofinite(2, [(1, 1)])
T = parse_poly("t", 2)
T_LEX = order_standard("lex", 2)
U_LEX = MonomialOrder([[1, 0], [0, 1]])
IND = SubstitutionKernel.INDICATOR
FACT = SubstitutionKernel.FACTORIAL


def running_example() -> DiffPoly:
    return DiffPoly(2, 1, {X((1, 1)): 1, X((0, 0)): -T})


def test_criterion_01_running_example_translations():
    start = time.perf_counter()
    P = running_example()

    assert tropw(P, [W]) == VertexFraction(VertexPoly(2, [(1, 0), (0, 1)]))
    assert translate(P, [W]) == DiffPoly(
        2, 1, {X((1, 1)): 1, X((0, 0)): parse_rational("-t/(t+u)")}
    )
    assert translate(P.deriv((1, 1)), [W]) == DiffPoly(
        2, 1, {X((2, 2)): 1, X((1, 1)): -T * parse_poly("t+u"), X((0, 1)): -1}
    )
    assert translate(P.deriv((2, 1)), [W]) == DiffPoly(
        2, 1, {X((3, 2)): 1, X((2, 1)): -T, X((1, 1)): -2 * parse_poly("t+u")}
    )
    for J in multi_indices(2, 4):
        j1, j2 = J
        derived = P.deriv(J)
        formula = {X((1 + j1, 1 + j2)): RationalFunction.constant(2, 1)}
        formula[X((j1, j2))] = -RationalFunction(T)
        if j1:
            formula[X((j1 - 1, j2))] = RationalFunction.constant(2, -j1)
        assert derived == DiffPoly(2, 1, formula)
        if J != (0, 0):
            assert tropw(derived, [W]) == VertexFraction.one(2)
        if J not in ((0, 0), (1, 1), (2, 1)):
            assert translate(derived, [W]) == derived

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS criterion 1: running-example translations, all |J| <= 4 ({elapsed:.3f}s)")


def test_criterion_02_initial_forms():
    P = running_example()
    assert initial_form(P, [W], U_LEX) == DiffPoly(2, 1, {X((1, 1)): 1})
    assert initial_form(P, [W], T_LEX) == DiffPoly(2, 1, {X((1, 1)): 1, X((0, 0)): -1})
    print("PASS criterion 2: initial forms under both lexicographic pickings")


def test_criterion_03_strictly_growing_chain():
    start = time.perf_counter()
    chain = omega_chain(20)
    assert len(chain) == 20
    for value in chain:
        assert value.in_unit_ball()
    for earlier, later in zip(chain, chain[1:]):
        assert earlier <= later and earlier != later
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS criterion 3: omega_1 < ... < omega_20 inside the unit ball ({elapsed:.3f}s)")


def test_criterion_04_order_recovery_bijection():
    rng = random.Random(401)
    inconsistencies = 0
    checked = 0
    for m in (2, 3):
        orders = [order_standard(kind, m) for kind in ("lex", "grlex", "grevlex")]
        orders += [matrix_order(rng, m) for _ in range(5)]
        points = [
            I for I in itertools.product(range(5), repeat=m) if sum(I) <= 4
        ]
        for order in orders:
            oracle = lambda q: max_ideal_member(q, order)
            for I in points:
                for J in points:
                    try:
                        got = order_from_membership(oracle, I, J)
                    except InconsistentOracle:
                        inconsistencies += 1
                        continue
                    assert got == order.compare(I, J)
                    checked += 1
    assert inconsistencies == 0
    print(f"PASS criterion 4: membership recovers 16 orders on {checked} pairs")


def test_criterion_05_residue_homomorphism():
    rng = random.Random(402)
    for order in (T_LEX, U_LEX, order_standard("grevlex", 2)):
        for _ in range(1000):
            p = unit_ball_fraction(rng, 2)
            q = unit_ball_fraction(rng, 2)
            assert residue(p + q, order) == residue(p, order) + residue(q, order)
            assert residue(p * q, order) == residue(p, order) * residue(q, order)
            h = qpoly(rng, 2, 2, 3)
            scaled = RationalFunction(p.num * h, p.den * h)
            assert residue(scaled, order) == residue(p, order)
    print("PASS criterion 5: residue is a ring map on 3000 unit-ball pairs")


def test_criterion_06_bezout_witness():
    rng = random.Random(403)
    for _ in range(500):
        phi, psi = rational(rng, 2), rational(rng, 2)
        target = trop_frac(phi) + trop_frac(psi)
        witness = bezout_witness(phi, psi)
        assert witness <= len(target.num.points) + 1
        assert trop_frac(phi + witness * psi) == target
    print("PASS criterion 6: bezout witness found and verified on 500 pairs")


def test_criterion_06_bezout_witness_at_m3():
    rng = random.Random(503)
    for _ in range(200):
        phi, psi = rational(rng, 3), rational(rng, 3)
        target = trop_frac(phi) + trop_frac(psi)
        witness = bezout_witness(phi, psi)
        assert witness <= len(target.num.points) + 1
        assert trop_frac(phi + witness * psi) == target
    print("PASS criterion 6 at m = 3: bezout witness found and verified on 200 pairs")


def test_criterion_07_separating_constants():
    rng = random.Random(404)
    one = VertexFraction.one(2)
    for _ in range(500):
        q = unit_ball_fraction(rng, 2)
        product = RationalFunction.constant(2, 1)
        for alpha in separating_constants(q):
            product = product * (q - alpha)
        assert trop_frac(product).absorbed_by(one)
    print("PASS criterion 7: product of differences drops below 1 on 500 fractions")


def test_criterion_07_separating_constants_at_m3():
    rng = random.Random(504)
    one = VertexFraction.one(3)
    for _ in range(300):
        q = unit_ball_fraction(rng, 3)
        product = RationalFunction.constant(3, 1)
        for alpha in separating_constants(q):
            product = product * (q - alpha)
        assert trop_frac(product).absorbed_by(one)
    print("PASS criterion 7 at m = 3: product of differences drops below 1 on 300 fractions")


def test_criterion_08_initial_form_multiplicativity():
    rng = random.Random(405)
    orders = (T_LEX, U_LEX, order_standard("grevlex", 2))
    from helpers import diffpoly

    for i in range(300):
        n = rng.choice((1, 2))
        ws = [weight(rng, 2) for _ in range(n)]
        P, Q = diffpoly(rng, 2, n), diffpoly(rng, 2, n)
        order = orders[i % 3]
        for kernel in (IND, FACT):
            lhs = initial_form(P * Q, ws, order, kernel)
            rhs = initial_form(P, ws, order, kernel) * initial_form(
                Q, ws, order, kernel
            )
            assert lhs == rhs
    print("PASS criterion 8: initial form multiplies over 300 pairs, both kernels")


def test_criterion_08_initial_form_multiplicativity_at_m3():
    rng = random.Random(505)
    named = [order_standard(kind, 3) for kind in ("lex", "grlex", "grevlex")]
    from helpers import diffpoly

    for i in range(96):
        n = rng.choice((1, 2))
        ws = [weight(rng, 3) for _ in range(n)]
        P, Q = diffpoly(rng, 3, n), diffpoly(rng, 3, n)
        order = named[i % 4] if i % 4 < 3 else matrix_order(rng, 3)
        for kernel in (IND, FACT):
            lhs = initial_form(P * Q, ws, order, kernel)
            rhs = initial_form(P, ws, order, kernel) * initial_form(
                Q, ws, order, kernel
            )
            assert lhs == rhs
    print("PASS criterion 8 at m = 3: initial form multiplies over 96 pairs, "
          "named and matrix orders, both kernels")


def test_criterion_09_vertex_extraction_oracle():
    rng = random.Random(406)
    for _ in range(1000):
        points = [
            (rng.randrange(21), rng.randrange(21))
            for _ in range(rng.randint(1, 12))
        ]
        got = VertexPoly(2, points)
        assert got.points == staircase_vertices_2d(points)
    print("PASS criterion 9: LP extraction equals the staircase oracle on 1000 sets")


def test_criterion_10_axioms_and_series_oracle():
    rng = random.Random(407)

    def random_vp():
        if rng.random() < 0.1:
            return VertexPoly.zero(2)
        return VertexPoly(
            2,
            [tuple(rng.randrange(7) for _ in range(2)) for _ in range(rng.randint(1, 5))],
        )

    zero, one = VertexPoly.zero(2), VertexPoly.one(2)
    for _ in range(300):
        a, b, c = random_vp(), random_vp(), random_vp()
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + a == a
        assert a + zero == a and a * one == a and a * zero == zero
        if not a.is_zero and a * b == a * c:
            assert b == c

    for _ in range(200):
        f, g = qpoly(rng, 2), qpoly(rng, 2)
        assert trop_poly(f * g) == trop_poly(f) * trop_poly(g)
        assert trop_poly(f + g) <= trop_poly(f) + trop_poly(g)

    for _ in range(200):
        n = rng.choice((1, 2))
        ws = [
            BooleanWeight.finite(
                2,
                [
                    (rng.randint(0, 3), rng.randint(0, 3))
                    for _ in range(rng.randint(1, 4))
                ],
            )
            for _ in range(n)
        ]
        coeff = RationalFunction(qpoly(rng, 2, 3, 3), qpoly(rng, 2, 3, 3))
        P = DiffPoly(2, n, {diff_monomial(rng, 2, n): coeff})
        assert tropw(P, ws) == trop_frac(P.evaluate([w.series() for w in ws]))

    print("PASS criterion 10: semiring axioms, valuation laws, series-side oracle")
