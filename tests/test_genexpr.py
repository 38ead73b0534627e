import random

import pytest

from supersympoly import (
    GenExpr,
    GenSpan,
    PolyParseError,
    Ring,
    c_r,
    enumerate_gen_monomials,
    expand,
    parse_gen_expr,
    parse_poly,
    serialize_gen_expr,
)
from supersympoly.selfcheck import random_gen_expr

R11 = Ring(1, 1, False, 3)


class TestGenExpr:
    def test_symbol_validation(self):
        with pytest.raises(ValueError):
            GenExpr.symbol(1, 1, 3, "EX", 2)  # only one x variable
        with pytest.raises(ValueError):
            GenExpr.symbol(1, 1, 3, "U", 3)  # k must stay below p
        with pytest.raises(ValueError):
            GenExpr.symbol(1, 0, 3, "U", 1)  # needs a y block
        with pytest.raises(ValueError):
            GenExpr.symbol(1, 1, 3, "C", 0)  # constants are coefficients

    def test_arithmetic_mod_p(self):
        a = GenExpr.symbol(1, 1, 3, "C", 1)
        assert (a + a + a).is_zero
        assert (a * a) == GenExpr(1, 1, 3, {((("C", 1), 2),): 1})
        b = a + GenExpr.symbol(1, 1, 3, "U", 1)
        assert b**5 == b * b * b * b * b

    def test_expand_examples(self):
        e = GenExpr.symbol(1, 1, 3, "C", 1)
        assert expand(e, R11) == parse_poly("x1 - y1", R11)
        assert expand(GenExpr.const(1, 1, 3, 1), R11) == parse_poly("1", R11)
        e = GenExpr.symbol(1, 1, 3, "EX", 1, 2)
        assert expand(e, R11) == parse_poly("x1^6", R11)

    def test_expand_level_mismatch(self):
        e = GenExpr.symbol(2, 1, 3, "C", 1)
        with pytest.raises(ValueError):
            expand(e, R11)


class TestSerialization:
    def test_frozen_string(self):
        e = GenExpr(
            2,
            2,
            3,
            {
                ((("C", 3), 1), (("EX", 1), 2)): 2,
                ((("EY", 2), 1), (("U", 1), 1)): 1,
            },
        )
        assert serialize_gen_expr(e) == "EY[2]*U[1] + 2*C[3]*EX[1]^2"
        assert serialize_gen_expr(parse_gen_expr("C [ 1 ]", 1, 1, 3)) == "C[1]"

    def test_zero(self):
        assert serialize_gen_expr(GenExpr.zero(1, 1, 3)) == "0"
        assert parse_gen_expr("0", 1, 1, 3).is_zero

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(100):
            m, n, p = rng.choice([(1, 1, 3), (2, 1, 3), (2, 2, 5)])
            e = random_gen_expr(rng, m, n, p)
            text = serialize_gen_expr(e)
            again = parse_gen_expr(text, m, n, p)
            assert again == e
            assert serialize_gen_expr(again) == text

    def test_parse_errors(self):
        for bad in [
            "C[", "C[1]^", "Q[1]", "C[1] +", "*C[1]",
            "C[1]C[2]", "C[-1]", "C[1 2]", "2*C[1]*3", "x1",
            "C[\u0663]", "C[1]^\u00b2", "C[" + "1" * 5000 + "]",
            # symbols that do not exist at level (1, 1), even in a zero term
            "3*EX[5]", "EY[2] - EY[2]", "C[0]",
        ]:
            with pytest.raises(PolyParseError):
                parse_gen_expr(bad, 1, 1, 3)


class TestEnumeration:
    def test_degree_one(self):
        assert enumerate_gen_monomials(1, 1, 3, 1) == [((("C", 1), 1),)]

    def test_degree_three_count(self):
        # C1^3, C1*C2, C3, EX1, EY1, U1, U2 at level (1,1), p=3
        monos = enumerate_gen_monomials(1, 1, 3, 3)
        assert len(monos) == 7

    def test_weights_are_exact(self):
        from supersympoly.genexpr import _key_weight

        for d in range(1, 7):
            for key in enumerate_gen_monomials(2, 1, 3, d):
                assert _key_weight(key, 2, 1, 3) == d


class TestGenSpan:
    def test_solve_member(self):
        span = GenSpan(1, 1, 3, 2)
        f = c_r(2, R11)
        e = span.solve(f)
        assert e is not None
        assert expand(e, R11) == f

    def test_solve_non_member(self):
        span = GenSpan(1, 1, 3, 1)
        assert span.solve(parse_poly("x1", R11)) is None

    def test_dimension_matches_row_count(self):
        span = GenSpan(1, 1, 3, 3)
        assert span.dimension == len(span.rows) > 0
