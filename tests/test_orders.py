import itertools
import random

import pytest

from helpers import grevlex_expected, grlex_expected, lex_expected, matrix_order
from tropdiff import (
    EQ,
    GT,
    LT,
    DimensionMismatch,
    MonomialOrder,
    NotAMonomialOrder,
    VertexPoly,
    order_standard,
)

EXPECTED = {"lex": lex_expected, "grlex": grlex_expected, "grevlex": grevlex_expected}


def small_exponents(m, bound):
    return [
        e
        for e in itertools.product(range(bound + 1), repeat=m)
        if sum(e) <= bound
    ]


class TestStandardMatrices:
    # frozen so a refactor cannot silently change the convention (t1 smallest)
    def test_lex_2(self):
        assert order_standard("lex", 2).rows == ((0, 1), (1, 0))

    def test_grlex_2(self):
        assert order_standard("grlex", 2).rows == ((1, 1), (0, 1))

    def test_grevlex_2(self):
        assert order_standard("grevlex", 2).rows == ((1, 1), (-1, 0))

    def test_lex_3(self):
        assert order_standard("lex", 3).rows == ((0, 0, 1), (0, 1, 0), (1, 0, 0))

    def test_grevlex_3(self):
        assert order_standard("grevlex", 3).rows == ((1, 1, 1), (-1, 0, 0), (0, -1, 0))

    def test_unknown_kind(self):
        with pytest.raises(NotAMonomialOrder):
            order_standard("degrevlex", 2)

    def test_m_zero(self):
        with pytest.raises(NotAMonomialOrder):
            order_standard("lex", 0)


class TestKind:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_name_read_from_rows(self, m):
        rng = random.Random(105 + m)
        orders = [order_standard(kind, m) for kind in EXPECTED]
        orders += [MonomialOrder(order.rows) for order in orders]
        orders += [matrix_order(rng, m) for _ in range(20)]
        for order in orders:
            for kind in EXPECTED:
                named = order.rows == order_standard(kind, m).rows
                assert (order.kind == kind) == named
            assert order.kind in EXPECTED or order.kind == "matrix"
        assert MonomialOrder([[1, 0], [0, 1]]).kind == "matrix"

    def test_one_matrix_at_width_one(self):
        for kind in EXPECTED:
            order = order_standard(kind, 1)
            assert order.rows == ((1,),)
            assert order.kind == "lex"

    def test_repr_names_the_kind(self):
        assert repr(order_standard("grlex", 3)) == "MonomialOrder(grlex, m=3)"
        assert repr(MonomialOrder([[1, 0], [0, 1]])) == "MonomialOrder([[1, 0], [0, 1]])"

    def test_equal_orders_hash_alike(self):
        # a matrix with a named order's rows is that order
        lex = order_standard("lex", 3)
        assert hash(MonomialOrder(lex.rows)) == hash(lex)
        assert len({lex, MonomialOrder(lex.rows), order_standard("grlex", 3)}) == 2

    def test_no_kind_knob(self):
        # a label that contradicts the rows cannot be given or set
        with pytest.raises(TypeError):
            MonomialOrder([[1, 0], [0, 1]], kind="lex")
        with pytest.raises(AttributeError):
            order_standard("lex", 2).kind = "grlex"


class TestCompare:
    def test_lex_t1_smallest(self):
        assert order_standard("lex", 2).compare((1, 0), (0, 1)) == LT

    def test_zero_below_everything(self):
        for kind in ("lex", "grlex", "grevlex"):
            assert order_standard(kind, 2).compare((0, 0), (1, 1)) == LT

    def test_grevlex_degree_tie(self):
        ord3 = order_standard("grevlex", 3)
        assert ord3.compare((1, 1, 0), (0, 0, 2)) == LT

    def test_equal(self):
        assert order_standard("grlex", 2).compare((2, 3), (2, 3)) == EQ

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            order_standard("lex", 2).compare((1, 0, 0), (0, 1, 0))

    def test_exhaustive_against_definitions(self):
        # every standard kind against its textbook definition, |I| <= 4
        for m in (2, 3):
            points = small_exponents(m, 4)
            for kind, expected in EXPECTED.items():
                order = order_standard(kind, m)
                for a in points:
                    for b in points:
                        assert order.compare(a, b) == expected(a, b), (kind, a, b)


class TestMin:
    def test_lex_picks_t_axis(self):
        assert order_standard("lex", 2).min([(1, 0), (0, 1)]) == (1, 0)

    def test_origin_always_wins(self):
        for kind in ("lex", "grlex", "grevlex"):
            got = order_standard(kind, 2).min([(4, 1), (0, 0), (2, 2)])
            assert got == (0, 0)

    def test_grlex_prefers_low_degree(self):
        assert order_standard("grlex", 2).min([(3, 0), (1, 1), (0, 3)]) == (1, 1)

    def test_empty(self):
        with pytest.raises(ValueError):
            order_standard("lex", 2).min([])


class TestValidate:
    def test_identity_is_valid(self):
        # the mirrored lex (t1 largest); still a perfectly good order
        order = MonomialOrder([[1, 0], [0, 1]])
        assert order.compare((0, 1), (1, 0)) == LT

    def test_negative_leading_column(self):
        with pytest.raises(NotAMonomialOrder):
            MonomialOrder([[-1, 0], [0, 1]])

    def test_negative_in_second_column(self):
        with pytest.raises(NotAMonomialOrder):
            MonomialOrder([[1, -2], [0, 1]])

    def test_non_integer_entry_rejected(self):
        # int() would have made this the identity
        with pytest.raises(ValueError, match=r"weight matrix entries must be integers"):
            MonomialOrder([[1.9, 0], [0, 1]])

    def test_grevlex_shape_is_valid(self):
        MonomialOrder([[1, 1], [0, -1]])

    def test_rank_deficient_accepted(self):
        order = MonomialOrder([[1, 1]])
        # ties fall back to tuple comparison, so the order is still total
        assert order.compare((0, 1), (1, 0)) == LT

    def test_ragged(self):
        with pytest.raises(NotAMonomialOrder):
            MonomialOrder([[1, 0], [0]])

    def test_empty(self):
        with pytest.raises(NotAMonomialOrder):
            MonomialOrder([])

    def test_no_columns(self):
        # a row with no entries would make an order on N^0
        with pytest.raises(NotAMonomialOrder, match="rectangular and nonempty"):
            MonomialOrder([[]])


class TestOrderLaws:
    def all_orders(self, rng, m):
        orders = [order_standard(kind, m) for kind in EXPECTED]
        orders += [matrix_order(rng, m) for _ in range(4)]
        return orders

    def test_totality_and_antisymmetry(self):
        rng = random.Random(101)
        for m in (2, 3):
            for order in self.all_orders(rng, m):
                for _ in range(200):
                    a = tuple(rng.randrange(7) for _ in range(m))
                    b = tuple(rng.randrange(7) for _ in range(m))
                    c = order.compare(a, b)
                    assert c in (LT, EQ, GT)
                    assert (c == EQ) == (a == b)
                    assert order.compare(b, a) == -c

    def test_translation_invariance(self):
        rng = random.Random(102)
        for m in (2, 3):
            for order in self.all_orders(rng, m):
                for _ in range(200):
                    a, b, c = (
                        tuple(rng.randrange(7) for _ in range(m)) for _ in range(3)
                    )
                    shifted = order.compare(
                        tuple(x + z for x, z in zip(a, c)),
                        tuple(y + z for y, z in zip(b, c)),
                    )
                    assert shifted == order.compare(a, b)

    def test_min_is_least(self):
        rng = random.Random(103)
        for m in (2, 3):
            for order in self.all_orders(rng, m):
                for _ in range(50):
                    points = [
                        tuple(rng.randrange(7) for _ in range(m))
                        for _ in range(rng.randint(1, 8))
                    ]
                    low = order.min(points)
                    assert all(order.compare(low, p) != GT for p in points)

    def test_min_is_a_vertex(self):
        # the matrix minimum always survives vertex extraction
        rng = random.Random(104)
        for m in (2, 3):
            for order in self.all_orders(rng, m):
                for _ in range(50):
                    points = [
                        tuple(rng.randrange(7) for _ in range(m))
                        for _ in range(rng.randint(1, 8))
                    ]
                    low = order.min(points)
                    hull = VertexPoly(m, points)
                    assert low in hull.points
                    assert order.min(hull.points) == low

    def test_key_agrees_with_compare(self):
        rng = random.Random(105)
        order = matrix_order(rng, 2)
        points = [tuple(rng.randrange(7) for _ in range(2)) for _ in range(30)]
        assert sorted(points, key=order.key)[0] == order.min(points)
