import itertools
import random

import pytest

from helpers import (
    diff_monomial,
    diffpoly,
    distinct_nonzero_pairwise,
    exponent,
    finite_weight,
    matrix_order as random_matrix_order,
    qpoly,
    same_as_public,
    translate_by_plug,
    tropw_by_sums,
    weight,
)
from tropdiff import translation, vertexpoly
from tropdiff import weights as weights_module
from tropdiff import (
    BooleanWeight,
    DiffMonomial,
    DiffPoly,
    DimensionMismatch,
    InternalInconsistency,
    MonomialOrder,
    QPoly,
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
    prolong,
    residue,
    substitution_poly,
    translate,
    translate_generators,
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

    def test_a_vanished_term_is_not_tropicalized(self, monkeypatch):
        # the shift by (3,0) empties the weight, so 1/u's value is never needed
        w = BooleanWeight.finite(2, [(1, 0), (0, 1), (2, 2)])
        vanished = parse_rational("1/u", 2)
        P = DiffPoly(2, 1, {X((0, 0)): RationalFunction(T), X((3, 0)): vanished})
        seen = []
        monkeypatch.setattr(translation, "trop_frac", lambda c: seen.append(c) or trop_frac(c))
        got = tropw(P, [w])
        assert len(seen) == 1 and seen[0] is not vanished
        assert got == tropw(DiffPoly(2, 1, {X((0, 0)): RationalFunction(T)}), [w])

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


def tropw_case(rng, m):
    """Up to four terms of up to three factors, over weights that shifts often empty."""
    n = rng.randint(1, 2)
    weights = [finite_weight(rng, m) if rng.random() < 0.7 else weight(rng, m) for _ in range(n)]
    terms = {}
    for _ in range(rng.randint(1, 4)):
        factors = [
            ((rng.randint(1, n), exponent(rng, m, 2)), rng.choice((1, 1, 2, 3)))
            for _ in range(rng.choice((0, 1, 2, 3, 3)))
        ]
        terms[DiffMonomial(factors)] = RationalFunction(qpoly(rng, m, 3, 3), qpoly(rng, m, 3, 3))
    return DiffPoly(m, n, terms), weights


class TestTropwOracles:
    """tropw extracts its numerator once; adding the terms one at a time is the oracle."""

    @pytest.mark.parametrize("m, draws", [(2, 150), (3, 60), (4, 25)], ids=["m2", "m3", "m4"])
    def test_same_representation_as_the_sum_of_terms(self, m, draws):
        # a vertex set is canonical, so num and den agree point for point
        rng = random.Random(331 + m)
        seen = dict.fromkeys(
            ["vanished first", "vanished middle", "vanished last", "all vanished", "power",
             "three factors", "multi-point denominator", "constant monomial", "several kept"], 0
        )
        for _ in range(draws):
            P, weights = tropw_case(rng, m)
            got, want = tropw(P, weights), tropw_by_sums(P, weights)
            assert got.num.points == want.num.points and got.den.points == want.den.points
            last = len(P.terms) - 1
            kept = 0
            for k, (mono, c) in enumerate(P.terms.items()):
                if not all(weights[i - 1].shift(J).vertices() for (i, J), _ in mono.factors):
                    seen["vanished first" if k == 0 else "vanished last" if k == last else "vanished middle"] += 1
                    continue
                kept += 1
                seen["power"] += any(p >= 2 for _, p in mono.factors)
                seen["three factors"] += len(mono.factors) == 3
                seen["multi-point denominator"] += len(trop_poly(c.den)) > 1
                seen["constant monomial"] += mono.is_one
            seen["all vanished"] += not kept
            seen["several kept"] += kept > 1
        assert all(seen.values()), seen
        zero = DiffPoly.zero(m, 1)
        got = tropw(zero, [BooleanWeight.full(m)])
        assert got.num.points == () and got.den.points == VertexFraction.zero(m).den.points

    def test_extraction_input_stays_bounded(self, monkeypatch):
        # six factors of 21, 20, 19, 20, 19 and 18 vertices: a route that did
        # not extract between factors would hand one extraction about 5.5e7 sums
        w = BooleanWeight.finite(2, [(i, (20 - i) ** 2) for i in range(21)])
        shifts = [(0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (3, 0)]
        P = DiffPoly(2, 1, {DiffMonomial([((1, J), 1) for J in shifts]): 1})
        sizes = []
        real = vertexpoly._vertices

        def recorded(points):
            sizes.append(len(points))
            return real(points)

        with monkeypatch.context() as patch:
            patch.setattr(vertexpoly, "_vertices", recorded)
            got = tropw(P, [w])
        assert [len(w.shift(J).vertices()) for J in shifts] == [21, 20, 19, 20, 19, 18]
        assert max(sizes) <= 5000
        want = tropw_by_sums(P, [w])
        assert got.num.points == want.num.points and got.den.points == want.den.points


def assert_tropw_is_a_generic_value(rng, P, weights, supports):
    """trop(P(phi)) <= tropw(P, weights), with phi_i a QPoly with random nonzero
    coefficients on supports[i], and == on the first draw of phi or a second."""
    bound = tropw(P, weights)

    def evaluated():
        phis = [
            QPoly(P.m, {I: rng.choice((-1, 1)) * rng.randint(1, 10**6) for I in support})
            for support in supports
        ]
        value = trop_frac(P.evaluate(phis))
        assert value <= bound
        return value

    assert evaluated() == bound or evaluated() == bound
    return bound


class TestSeriesOracle:
    """tropw bounds the value of P at series on the weights, and is that value generically.

    phi_i has a nonzero coefficient on every point of the finite weight w_i,
    so d^J phi_i is supported on the shift of w_i by J and each monomial's
    value is exactly its share of tropw; a sum can only cancel, so
    trop(P(phi)) <= tropw(P, w), with equality for generic coefficients
    (Aroca, Garay and Toghani, Pacific J. Math. 283, 2016).

    A cofinite or full w_i is infinite, so phi_i is cut to the box [0, B]^m.
    A minimal point q of the shift of w_i by J has each q - e_k + J (q_k > 0)
    left out of w_i, or is 0; so q + J has no coordinate above the largest
    left-out one + 1 or J's largest.  With B at least both, the cut keeps
    every vertex of each shift, and with it each monomial's value.
    """

    @pytest.mark.parametrize("m, draws", [(2, 80), (3, 60), (4, 40)], ids=["m2", "m3", "m4"])
    def test_tropw_is_the_value_of_a_generic_evaluation(self, m, draws):
        rng = random.Random(509 + m)
        nonzero = 0
        for _ in range(draws):
            n = rng.randint(1, 2)
            weights = [finite_weight(rng, m) for _ in range(n)]
            P = diffpoly(rng, m, n, max_terms=3)
            bound = assert_tropw_is_a_generic_value(rng, P, weights, [w.data for w in weights])
            nonzero += not bound.is_zero
        assert nonzero >= draws // 3

    @pytest.mark.parametrize("m, draws", [(2, 80), (3, 60)], ids=["m2", "m3"])
    def test_a_box_cut_of_cofinite_and_full_weights_keeps_the_value(self, m, draws):
        rng = random.Random(521 + m)
        kinds = set()
        for _ in range(draws):
            n = rng.randint(1, 2)
            weights = [
                BooleanWeight.cofinite(m, [exponent(rng, m, 3) for _ in range(rng.randint(0, 3))])
                for _ in range(n)
            ]
            P = diffpoly(rng, m, n, max_terms=3)
            B = max(
                [c + 1 for w in weights for point in w.data for c in point]
                + [c for mono in P.terms for (_, J), _ in mono.factors for c in J]
            )
            box = list(itertools.product(range(B + 1), repeat=m))
            supports = [[I for I in box if I in w] for w in weights]
            assert_tropw_is_a_generic_value(rng, P, weights, supports)
            kinds.update(w.kind for w in weights)
        assert kinds == {"cofinite", "full"}


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

    def test_a_value_that_misses_a_vertex_is_an_inconsistency(self, monkeypatch):
        # tropw(P) is {(1,0), (0,1)}; without (0,1), x_(1,1) gets (t+u)/t, outside the ball
        missing = VertexFraction(VertexPoly(2, [(1, 0)]), VertexPoly.one(2))
        monkeypatch.setattr(translation, "tropw", lambda P, weights: missing)
        with pytest.raises(InternalInconsistency, match="left the unit ball"):
            translate(running_example(), [W])

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

    @pytest.mark.parametrize("bad", ["indicator", "bogus", None])
    def test_a_kernel_that_is_not_a_substitution_kernel_is_refused_before_any_work(self, bad, monkeypatch):
        # P has no factor, so no substitution polynomial would read the kernel
        monkeypatch.setattr(translation, "tropw", lambda *args: pytest.fail("valued"))
        P = DiffPoly(2, 1, {DiffMonomial.one(): 1})
        for run in (lambda: translate(P, [BooleanWeight.full(2)], bad),
                    lambda: initial_form(P, [BooleanWeight.full(2)], T_LEX, bad)):
            with pytest.raises(ValueError, match="^kernel must be a SubstitutionKernel, got "):
                run()

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

    @pytest.mark.parametrize("points", [[], [(0, 0)]], ids=["all-terms-vanish", "a-term-stays"])
    def test_an_order_of_another_width_is_refused_before_any_work(self, points, monkeypatch):
        # with every term vanished no residue is taken, and the order is refused all the same
        monkeypatch.setattr(translation, "translate", lambda *args: pytest.fail("translated"))
        P = DiffPoly(2, 1, {X((0, 0)): 1})
        with pytest.raises(DimensionMismatch, match="^mixing m=2 with m=3$"):
            initial_form(P, [BooleanWeight.finite(2, points)], order_standard("lex", 3))

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

    @pytest.mark.parametrize(
        "error, run",
        [
            (ValueError, lambda P: translate_generators([P], [W], 3, "bogus")),
            (ValueError, lambda P: initial_generators([P], [W], T_LEX, 3, "indicator")),
            (DimensionMismatch, lambda P: translate_generators([P], [BooleanWeight.full(3)], 3)),
            (DimensionMismatch, lambda P: initial_generators([P], [W, W], T_LEX, 3)),
            (DimensionMismatch, lambda P: initial_generators([P], [W], order_standard("lex", 3), 3)),
            (TypeError, lambda P: initial_generators([P], [W], "lex", 3)),
        ],
        ids=["translate-kernel", "initial-kernel", "weight-width", "weight-count", "order-width", "order-str"],
    )
    def test_a_bad_kernel_weight_or_order_is_refused_before_any_derivative(self, monkeypatch, error, run):
        derive = DiffPoly.derive
        calls = []
        monkeypatch.setattr(DiffPoly, "derive", lambda self, k: calls.append(k) or derive(self, k))
        P = DiffPoly(2, 1, {X((1, 1)): 1, X((0, 0)): parse_rational("t/(t+u)", 2)})
        with pytest.raises(error):
            run(P)
        assert calls == []
        # the prolongation a good call builds first: 9 derivatives at bound 3
        initial_generators([P], [W], T_LEX, 3)
        assert len(calls) == 9

    def test_with_no_generator_the_kernel_and_the_widths_are_still_checked(self):
        # the one width there is, that of the weights and the order, must agree, as for one generator
        with pytest.raises(DimensionMismatch, match="^mixing m=2 with m=3$"):
            initial_generators([], [BooleanWeight.full(2)], order_standard("lex", 3), 2)
        with pytest.raises(DimensionMismatch, match="^mixing m=2 with m=3$"):
            translate_generators([], [BooleanWeight.full(2), BooleanWeight.full(3)], 2)
        with pytest.raises(ValueError, match="^kernel must be a SubstitutionKernel, got 'bogus'$"):
            translate_generators([], [W], 2, "bogus")
        assert initial_generators([], [BooleanWeight.full(2)], order_standard("lex", 2), 2) == []
        assert initial_generators([], [], T_LEX, 2) == translate_generators([], [], 2) == []

    @pytest.mark.parametrize("m", [1, 2, 3], ids=["m1", "m2", "m3"])
    def test_repeats_are_dropped_as_the_pairwise_route_drops_them(self, m):
        rng = random.Random(211 + m)
        for _ in range(30):
            images = [DiffPoly.zero(m, 2)]
            for _ in range(rng.randint(1, 4)):
                P = diffpoly(rng, m, 2)
                images.append(P)
                # one monomial set, other coefficients
                images.append(P * 2)
                images.append(P + DiffPoly(m, 2, {next(iter(P.terms)): 1}))
                # equal to P, its coefficients over other representatives
                f = qpoly(rng, m, 2, 2)
                images.append(DiffPoly._trusted(m, 2, {
                    mono: RationalFunction._trusted(c.num * f, c.den * f) for mono, c in P.terms.items()
                }))
            images = [rng.choice(images) for _ in range(3 * len(images))]
            got = translation._distinct_nonzero(iter(images))
            want = distinct_nonzero_pairwise(images)
            assert [id(image) for image in got] == [id(image) for image in want]
            assert len(want) < len(images)


class TestOneShiftPerFactor:
    """A weight keeps its shifts, so a generator set builds each (i, J) once."""

    @pytest.mark.parametrize("kernel", [IND, FACT], ids=["indicator", "factorial"])
    @pytest.mark.parametrize("m", [2, 3], ids=["m2", "m3"])
    def test_each_shift_is_built_and_extracted_once(self, monkeypatch, m, kernel):
        make_weight = BooleanWeight._made.__func__
        built, made = [], []

        def counted_made(cls, *args):
            built.append(args)
            return make_weight(cls, *args)

        class CountedValues:
            """The two ways a weight makes its value: {0} at once, or an extraction."""

            @staticmethod
            def one(m):
                made.append(m)
                return VertexPoly.one(m)

            @staticmethod
            def _trusted(m, points):
                made.append(points)
                return VertexPoly._trusted(m, points)

        rng = random.Random(401 + m)
        order = order_standard("grlex", m)
        for _ in range(2):
            n = rng.randint(1, 2)
            weights = [weight(rng, m) for _ in range(n)]
            generators = [diffpoly(rng, m, n) for _ in range(2)]
            factors = {
                var
                for g in generators
                for q in prolong(g, 2)
                for mono in q.terms
                for var, _ in mono.factors
            }
            built.clear()
            made.clear()
            with monkeypatch.context() as patch:
                patch.setattr(BooleanWeight, "_made", classmethod(counted_made))
                patch.setattr(weights_module, "VertexPoly", CountedValues)
                initial_generators(generators, weights, order, 2, kernel)
            assert len(built) == len(made) == len(factors)


def residue_field_value(phi, w, J, kernel, order):
    """The residue of d^J phi over the substitution polynomial of w at J; 0
    when the shift empties w, where d^J phi is 0 too."""
    piece = substitution_poly(w, J, kernel)
    if piece.is_zero:
        return 0
    return residue(RationalFunction(phi.deriv(J), piece), order)


class TestBaseChange:
    """The initial form is the base change of P to the residue field.

    For finite weights w_i and series phi_i supported on w_i, each term of
    normalizer(tropw(P, w)) * P(phi) is a translated coefficient times the
    product of (d^J phi_i / substitution_poly(w_i, J))^p; both factors lie in
    the unit ball, where the residue is a ring homomorphism onto Q.  So the
    residue of the left side is initial_form(P, w) evaluated at the residues
    of those quotients.  With nonzero coefficients on every point, it is
    nonzero in every case drawn.
    """

    def test_residue_of_the_normalized_evaluation_is_the_initial_form(self):
        rng = random.Random(2023)
        checked = 0
        for _ in range(300):
            m, n = rng.choice([2, 3]), rng.randint(1, 2)
            kernel = rng.choice([IND, FACT])
            kind = rng.choice(["lex", "grlex", "grevlex", "matrix"])
            order = random_matrix_order(rng, m) if kind == "matrix" else order_standard(kind, m)
            weights = [finite_weight(rng, m) for _ in range(n)]
            phis = [
                QPoly(m, {I: rng.choice([-1, 1]) * rng.randint(1, 9) for I in w.data})
                for w in weights
            ]
            P = diffpoly(rng, m, n)
            value = tropw(P, weights)
            if value.is_zero:
                continue
            left = residue(normalizer(value) * P.evaluate(phis), order)
            right = 0
            for mono, c in initial_form(P, weights, order, kernel).terms.items():
                term = residue(c, order)
                for (i, J), p in mono.factors:
                    w, phi = weights[i - 1], phis[i - 1]
                    term *= residue_field_value(phi, w, J, kernel, order) ** p
                right += term
            assert left == right != 0
            checked += 1
        assert checked >= 200
