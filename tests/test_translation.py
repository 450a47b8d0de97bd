import random

import pytest

from helpers import (
    diff_monomial,
    diffpoly,
    finite_weight,
    qpoly,
    same_as_public,
    translate_by_plug,
    weight,
)
from tropdiff import (
    BooleanWeight,
    DiffMonomial,
    DiffPoly,
    DimensionMismatch,
    MonomialOrder,
    RationalFunction,
    SubstitutionKernel,
    VertexFraction,
    VertexPoly,
    ZeroTropicalValue,
    in_unit_ball,
    initial_form,
    initial_generators,
    multi_indices,
    normalizer,
    order_standard,
    parse_poly,
    parse_rational,
    substitution_poly,
    translate,
    translate_generators,
    trop_frac,
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


def derivative_formula(j1: int, j2: int) -> DiffPoly:
    terms = {X((1 + j1, 1 + j2)): RationalFunction.constant(2, 1)}
    terms[X((j1, j2))] = -RationalFunction(T)
    if j1:
        terms[X((j1 - 1, j2))] = RationalFunction.constant(2, -j1)
    return DiffPoly(2, 1, terms)


class TestTropw:
    def test_golden(self):
        got = tropw(running_example(), [W])
        assert got == VertexFraction(VertexPoly(2, [(1, 0), (0, 1)]))

    def test_derivatives_collapse_to_one(self):
        P = running_example()
        for J in multi_indices(2, 4):
            if J == (0, 0):
                continue
            assert tropw(P.deriv(J), [W]) == VertexFraction.one(2)

    def test_zero_poly(self):
        assert tropw(DiffPoly.zero(2, 1), [W]).is_zero

    def test_emptied_finite_weight(self):
        P = DiffPoly(2, 1, {X((2, 0)): 1})
        assert tropw(P, [BooleanWeight.finite(2, [(1, 0)])]).is_zero

    def test_vanished_term_leaves_the_denominator_alone(self):
        # the shift by (3,0) empties the weight, so the middle term's 1/u must
        # not reach the unreduced value that normalizer prints from
        w = BooleanWeight.finite(2, [(1, 0), (0, 1), (2, 2)])
        P = DiffPoly(
            2,
            1,
            {
                X((0, 0)): RationalFunction(T),
                X((3, 0)): parse_rational("1/u", 2),
                X((0, 1)): parse_rational("t*u + u^2", 2),
            },
        )
        got = tropw(P, [w])
        assert got.num.points == ((0, 2), (2, 0))
        assert got.den.points == ((0, 0),)

    def test_weight_validation(self):
        with pytest.raises(DimensionMismatch):
            tropw(running_example(), [W, W])
        with pytest.raises(DimensionMismatch):
            tropw(running_example(), [BooleanWeight.full(3)])

    def test_subadditive_and_multiplicative(self):
        rng = random.Random(121)
        for _ in range(100):
            n = rng.choice((1, 2))
            ws = [weight(rng, 2) for _ in range(n)]
            P, Q = diffpoly(rng, 2, n), diffpoly(rng, 2, n)
            assert tropw(P + Q, ws) <= tropw(P, ws) + tropw(Q, ws)
            assert tropw(P * Q, ws) == tropw(P, ws) * tropw(Q, ws)

    def test_cross_term_cancellation_harmless(self):
        # the cross term of PQ cancels, but its would-be contribution (1,1)
        # is the midpoint of (2,0) and (0,2), never a vertex anyway
        w1, w2 = BooleanWeight.finite(2, [(1, 0)]), BooleanWeight.finite(2, [(0, 1)])
        x1, x2 = DiffMonomial.var(1, (0, 0)), DiffMonomial.var(2, (0, 0))
        P = DiffPoly(2, 2, {x1: 1, x2: -1})
        Q = DiffPoly(2, 2, {x1: 1, x2: 1})
        assert (P * Q).coeff(x1 * x2).is_zero
        got = tropw(P * Q, [w1, w2])
        assert got == VertexFraction(VertexPoly(2, [(2, 0), (0, 2)]))
        assert got == tropw(P, [w1, w2]) * tropw(Q, [w1, w2])

    def test_monomial_evaluation_oracle(self):
        # single-term case: the value must match the honest series evaluation
        rng = random.Random(122)
        for _ in range(100):
            n = rng.choice((1, 2))
            ws = [finite_weight(rng, 2) for _ in range(n)]
            P = DiffPoly(2, n, {diff_monomial(rng, 2, n): rational_coeff(rng)})
            direct = trop_frac(P.evaluate([w.series() for w in ws]))
            assert tropw(P, ws) == direct


def rational_coeff(rng):
    return RationalFunction(qpoly(rng, 2, 3, 3), qpoly(rng, 2, 3, 3))


class TestNormalizer:
    def test_golden(self):
        got = normalizer(tropw(running_example(), [W]))
        assert got == parse_rational("1/(t+u)")

    def test_one(self):
        assert normalizer(VertexFraction.one(2)) == parse_rational("1", 2)

    def test_single_point(self):
        got = normalizer(VertexFraction(VertexPoly.point((1, 0))))
        assert got == parse_rational("1/t")

    def test_zero_value(self):
        with pytest.raises(ZeroTropicalValue):
            normalizer(VertexFraction.zero(2))


class TestTranslate:
    def test_golden(self):
        got = translate(running_example(), [W])
        want = DiffPoly(2, 1, {X((1, 1)): 1, X((0, 0)): parse_rational("-t/(t+u)")})
        assert got == want

    def test_golden_display(self):
        got = str(translate(running_example(), [W]))
        assert got == "((t + u)/(t + u))*x_(1,1) + (-t/(t + u))*x_(0,0)"

    def test_special_derivative_11(self):
        got = translate(running_example().deriv((1, 1)), [W])
        want = DiffPoly(
            2,
            1,
            {X((2, 2)): 1, X((1, 1)): -T * parse_poly("t+u"), X((0, 1)): -1},
        )
        assert got == want

    def test_special_derivative_21(self):
        got = translate(running_example().deriv((2, 1)), [W])
        want = DiffPoly(
            2,
            1,
            {X((3, 2)): 1, X((2, 1)): -T, X((1, 1)): -2 * parse_poly("t+u")},
        )
        assert got == want

    def test_generic_derivatives_fixed(self):
        P = running_example()
        for J in multi_indices(2, 4):
            derived = P.deriv(J)
            assert derived == derivative_formula(*J)
            if J in ((0, 0), (1, 1), (2, 1)):
                continue
            assert translate(derived, [W]) == derived

    def test_factorial_kernel_golden(self):
        got = translate(running_example(), [W], FACT)
        want = DiffPoly(
            2,
            1,
            {
                X((1, 1)): parse_rational("(2*t+2*u)/(t+u)"),
                X((0, 0)): parse_rational("-t/(t+u)"),
            },
        )
        assert got == want

    def test_zero_value_translates_to_zero(self):
        P = DiffPoly(2, 1, {X((1, 1)): 1})
        assert translate(P, [BooleanWeight.finite(2, [(0, 0)])]).is_zero

    def test_coefficients_in_unit_ball(self):
        rng = random.Random(123)
        for _ in range(100):
            n = rng.choice((1, 2))
            ws = [weight(rng, 2) for _ in range(n)]
            P = diffpoly(rng, 2, n)
            kernel = rng.choice((IND, FACT))
            moved = translate(P, ws, kernel)
            assert moved.monomials() <= P.monomials()
            for mono in moved.monomials():
                assert in_unit_ball(moved.coeff(mono))

    def test_monomials_survive_without_finite_weights(self):
        rng = random.Random(124)
        for _ in range(50):
            P = diffpoly(rng, 2, 1)
            w = rng.choice(
                (BooleanWeight.full(2), BooleanWeight.cofinite(2, [(1, 2), (2, 0)]))
            )
            assert translate(P, [w]).monomials() == P.monomials()

    def test_kernels_agree_tropically(self):
        # factorial weights are positive, so each coefficient keeps its value
        rng = random.Random(125)
        for _ in range(50):
            ws = [weight(rng, 2)]
            P = diffpoly(rng, 2, 1)
            a = translate(P, ws, IND)
            b = translate(P, ws, FACT)
            assert a.monomials() == b.monomials()
            for mono in a.monomials():
                assert trop_frac(a.coeff(mono)) == trop_frac(b.coeff(mono))


class TestInitialForm:
    def test_u_first(self):
        got = initial_form(running_example(), [W], U_LEX)
        assert got == DiffPoly(2, 1, {X((1, 1)): 1})

    def test_t_first(self):
        got = initial_form(running_example(), [W], T_LEX)
        assert got == DiffPoly(2, 1, {X((1, 1)): 1, X((0, 0)): -1})

    def test_factorial_t_first(self):
        got = initial_form(running_example(), [W], T_LEX, FACT)
        assert got == DiffPoly(2, 1, {X((1, 1)): 2, X((0, 0)): -1})

    def test_constant_coefficients(self):
        rng = random.Random(126)
        for _ in range(50):
            P = diffpoly(rng, 2, 1)
            form = initial_form(P, [weight(rng, 2)], T_LEX)
            for mono in form.monomials():
                c = form.coeff(mono)
                assert c.num.is_constant and c.den.is_constant

    def test_zero_value(self):
        P = DiffPoly(2, 1, {X((1, 1)): 1})
        got = initial_form(P, [BooleanWeight.finite(2, [(0, 0)])], T_LEX)
        assert got.is_zero

    def test_multiplicative(self):
        rng = random.Random(127)
        orders = [T_LEX, order_standard("grevlex", 2), matrix_order(rng)]
        for _ in range(60):
            n = rng.choice((1, 2))
            ws = [weight(rng, 2) for _ in range(n)]
            P, Q = diffpoly(rng, 2, n), diffpoly(rng, 2, n)
            kernel = rng.choice((IND, FACT))
            order = rng.choice(orders)
            lhs = initial_form(P * Q, ws, order, kernel)
            rhs = initial_form(P, ws, order, kernel) * initial_form(Q, ws, order, kernel)
            assert lhs == rhs

    def test_multiplicative_despite_value_drop(self):
        # companion to the vertex-drop example above: the forms still multiply
        w1, w2 = BooleanWeight.finite(2, [(1, 0)]), BooleanWeight.finite(2, [(0, 1)])
        x1, x2 = DiffMonomial.var(1, (0, 0)), DiffMonomial.var(2, (0, 0))
        P = DiffPoly(2, 2, {x1: 1, x2: -1})
        Q = DiffPoly(2, 2, {x1: 1, x2: 1})
        for order in (T_LEX, U_LEX):
            lhs = initial_form(P * Q, [w1, w2], order)
            rhs = initial_form(P, [w1, w2], order) * initial_form(Q, [w1, w2], order)
            assert lhs == rhs


def matrix_order(rng):
    from helpers import matrix_order as mk

    return mk(rng, 2)


class TestTrustedBuilds:
    # these results skip the public constructors, because every input was
    # checked on its way in; they must hold what those constructors would build
    @pytest.mark.parametrize("kernel", [IND, FACT], ids=["indicator", "factorial"])
    @pytest.mark.parametrize("m", [2, 3], ids=["m2", "m3"])
    def test_results_match_public_construction(self, m, kernel):
        rng = random.Random(101 + m)
        order = order_standard("grlex", m)
        for _ in range(8):
            n = rng.randint(1, 2)
            weights = [weight(rng, m) for _ in range(n)]
            P = diffpoly(rng, m, n)
            for w in weights:
                for J in multi_indices(m, 2):
                    assert same_as_public(substitution_poly(w, J, kernel))
            value = tropw(P, weights)
            if not value.is_zero:
                assert same_as_public(normalizer(value))
            assert same_as_public(translate(P, weights, kernel))
            assert same_as_public(initial_form(P, weights, order, kernel))


def random_translation_case(rng, m):
    n = rng.randint(1, 2)
    weights = [weight(rng, m) for _ in range(n)]
    return diffpoly(rng, m, n, max_terms=3), weights


class TestTranslateOracles:
    @pytest.mark.parametrize("kernel", [IND, FACT], ids=["indicator", "factorial"])
    @pytest.mark.parametrize("m", [2, 3], ids=["m2", "m3"])
    def test_same_coefficients_as_the_plugged_product(self, m, kernel):
        rng = random.Random(211 + m)
        dropped = raised = 0
        for _ in range(40):
            P, weights = random_translation_case(rng, m)
            got = translate(P, weights, kernel)
            want = translate_by_plug(P, weights, kernel)
            assert got.terms.keys() == want.keys()
            for mono, c in want.items():
                assert got.terms[mono].num.terms == c.num.terms
                assert got.terms[mono].den.terms == c.den.terms
            if want:
                dropped += len(P.terms) - len(want)
            raised += any(p > 1 for mono in want for _, p in mono.factors)
        assert dropped and raised

    @pytest.mark.parametrize("kernel", [IND, FACT], ids=["indicator", "factorial"])
    @pytest.mark.parametrize("m", [2, 3], ids=["m2", "m3"])
    def test_value_is_the_contribution_over_tropw(self, m, kernel):
        # trop is multiplicative, so the value of a translated coefficient is
        # trop(c) times the factors' shifted-weight vertex sets, over tropw(P)
        rng = random.Random(223 + m)
        checked = 0
        for _ in range(40):
            P, weights = random_translation_case(rng, m)
            value = tropw(P, weights)
            for mono, moved in translate(P, weights, kernel).terms.items():
                contribution = trop_frac(P.terms[mono])
                num = contribution.num
                for (i, J), p in mono.factors:
                    num = num * weights[i - 1].shift(J).vertices() ** p
                want = VertexFraction(num, contribution.den) * VertexFraction(value.den, value.num)
                assert trop_frac(moved) == want
                checked += 1
        assert checked


class TestGenerators:
    def test_translations_aligned_with_derivatives(self):
        P = running_example()
        got = translate_generators([P], [W], 2)
        want = [translate(P.deriv(J), [W]) for J in multi_indices(2, 2)]
        assert got == want

    def test_initial_set(self):
        P = running_example()
        got = initial_generators([P], [W], T_LEX, 2)
        want = [initial_form(P.deriv(J), [W], T_LEX) for J in multi_indices(2, 2)]
        assert got == want
        assert len(got) == 6

    def test_duplicates_collapse(self):
        P = running_example()
        once = translate_generators([P], [W], 1)
        twice = translate_generators([P, P], [W], 1)
        assert once == twice

    def test_zero_translations_dropped(self):
        P = DiffPoly(2, 1, {X((1, 1)): 1})
        w = BooleanWeight.finite(2, [(0, 0)])
        assert translate_generators([P], [w], 2) == []
        assert initial_generators([P], [w], T_LEX, 2) == []

    def test_empty_input(self):
        assert translate_generators([], [W], 3) == []
        assert initial_generators([], [W], T_LEX, 3) == []
