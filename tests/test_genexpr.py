import collections
import itertools
import operator
import os
import random
import sys
import threading
import time
import weakref

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from supersympoly import (
    Block,
    GenExpr,
    GenSpan,
    InternalInvariantViolation,
    Poly,
    PolyParseError,
    Ring,
    RingMismatchError,
    c_r,
    enumerate_gen_monomials,
    expand,
    is_symmetric,
    parse_gen_expr,
    parse_poly,
    serialize_gen_expr,
)
from supersympoly import genexpr
from supersympoly.genexpr import _gen_monomial_count, level_symbols, symbol_weight
from supersympoly.generators import generator_poly
from supersympoly.poly_core import _Memo, _unpack, _width_class
from supersympoly.selfcheck import random_gen_expr

from helpers import (
    ReferenceSpan,
    expansion_cap,
    gen_exprs,
    reference_enumerate_gen_monomials,
    reference_expand_key,
    reference_level_symbols,
)

R11 = Ring(1, 1, False, 3)


def _cold(monkeypatch, name):
    """A fresh, empty ``genexpr`` memo in place of the session's."""
    memo = getattr(genexpr, name)
    fresh = _Memo(memo.build, memo.maxsize)
    monkeypatch.setattr(genexpr, name, fresh)
    return fresh


@pytest.fixture
def cold_spans(monkeypatch):
    return _cold(monkeypatch, "_SPANS")


@pytest.fixture
def cold_tables(monkeypatch):
    return _cold(monkeypatch, "_TABLES")


def _expand_monomial(key, ring):
    """``expand`` of the one-term expression ``key``."""
    return expand(GenExpr(ring.m, ring.n, ring.p, {key: 1}), ring)


class TestGenExpr:
    def test_symbol_validation(self):
        with pytest.raises(ValueError):
            GenExpr(1, 1, 3, {((("EX", 2), 1),): 1})  # only one x variable
        with pytest.raises(ValueError):
            GenExpr(1, 1, 3, {((("U", 3), 1),): 1})  # k must stay below p
        with pytest.raises(ValueError):
            GenExpr(1, 0, 3, {((("U", 1), 1),): 1})  # needs a y block
        with pytest.raises(ValueError):
            GenExpr(1, 1, 3, {((("C", 0), 1),): 1})  # constants are coefficients

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
    def test_foreign_operands_raise_type_error(self, op):
        """A GenExpr combines with ints and GenExprs only; a polynomial
        is not a certificate, so mixing the two is a TypeError."""
        e = parse_gen_expr("C[1]", 1, 1, 3)
        for other in (expand(e, R11), 1.5, "C[1]", None):
            with pytest.raises(TypeError):
                op(e, other)
            with pytest.raises(TypeError):
                op(other, e)

    def test_arithmetic_mod_p(self):
        a = parse_gen_expr("C[1]", 1, 1, 3)
        assert (a + a + a).is_zero
        assert 1 - a == parse_gen_expr("1 - C[1]", 1, 1, 3) == -(a - 1)
        assert a - 1 == parse_gen_expr("C[1] + 2", 1, 1, 3)
        assert (a * a) == GenExpr(1, 1, 3, {((("C", 1), 2),): 1})
        b = a + parse_gen_expr("U[1]", 1, 1, 3)
        assert b**5 == b * b * b * b * b

    def test_expand_examples(self):
        e = parse_gen_expr("C[1]", 1, 1, 3)
        assert expand(e, R11) == parse_poly("x1 - y1", R11)
        assert expand(GenExpr(1, 1, 3, {(): 1}), R11) == parse_poly("1", R11)
        e = parse_gen_expr("EX[1]", 1, 1, 3) ** 2
        assert expand(e, R11) == parse_poly("x1^6", R11)

    def test_expand_level_mismatch(self):
        e = parse_gen_expr("C[1]", 2, 1, 3)
        with pytest.raises(ValueError):
            expand(e, R11)

    def test_repeated_symbol_in_a_key_is_merged(self):
        e = GenExpr(1, 1, 3, {((("C", 1), 1), (("C", 1), 1)): 1})
        assert e == parse_gen_expr("C[1]", 1, 1, 3) ** 2
        assert serialize_gen_expr(e) == "C[1]^2"
        assert parse_gen_expr(serialize_gen_expr(e), 1, 1, 3) == e
        # spellings of one term that differ only in order or repetition
        e = parse_gen_expr("C[1]*C[2]*C[1] + 2*C[2]*C[1]^2", 1, 1, 5)
        assert e == GenExpr(1, 1, 5, {((("C", 1), 2), (("C", 2), 1)): 3})

    def test_kind_names_sort_in_rank_order(self):
        # keys are canonical under plain tuple order only because of this
        rank = genexpr._KIND_RANK
        assert sorted(rank) == sorted(rank, key=rank.get) == ["C", "EX", "EY", "U"]
        e = GenExpr(2, 2, 3, {((("U", 1), 1), (("EY", 2), 1), (("EX", 1), 1), (("C", 3), 1)): 1})
        assert list(e.terms) == [((("C", 3), 1), (("EX", 1), 1), (("EY", 2), 1), (("U", 1), 1))]

    @pytest.mark.parametrize("e", [1.5, "2", -1, None, True])
    def test_power_refuses_what_poly_refuses(self, e):
        # GenExpr and Poly check the exponent in one place, with one message
        for base in (parse_gen_expr("C[1]", 1, 1, 3), parse_poly("x1 + y1", R11)):
            with pytest.raises(ValueError, match="^exponent (.+ is not an int|must be nonnegative)$"):
                base ** e

    def test_power_is_the_repeated_product(self):
        a = GenExpr(2, 1, 3, {((("C", 1), 1),): 1, ((("U", 2), 1),): 2, (): 1})
        expected = GenExpr(2, 1, 3, {(): 1})
        for e in range(7):
            assert a ** e == expected
            expected = expected * a


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([(1, 1, 3), (2, 1, 3), (1, 2, 5), (2, 2, 3)]),
    st.integers(0, 2**32 - 1),
    st.integers(-6, 10),
    st.integers(0, 3),
)
def test_arithmetic_results_are_canonical(level, seed, c, e):
    """Sums and products skip symbol validation; their terms must still
    be what the validating constructor makes of them, with no zeros."""
    m, n, p = level
    rng = random.Random(seed)
    a = random_gen_expr(rng, m, n, p, max_weight=6, max_terms=3)
    b = random_gen_expr(rng, m, n, p, max_weight=6, max_terms=3)
    # share some of a's terms with opposite sign, so that a + b cancels
    b = b + GenExpr(m, n, p, {k: -v for k, v in a.terms.items() if rng.random() < 0.5})
    for result in (a + b, a - b, a * b, a * c, c * a, -a, a ** e, a + c, c + a, a - c, c - a):
        assert result == GenExpr(m, n, p, result.terms)
        assert all(0 < v < p for v in result.terms.values())
    assert c - a == -(a - c) == -a + c


def test_random_gen_expr_without_y_block():
    # U[k] needs a y variable, so it must not be drawn at n = 0
    for seed in range(20):
        e = random_gen_expr(random.Random(seed), 2, 0, 3)
        assert all(kind != "U" for key in e.terms for (kind, _), _ in key)


class TestLevels:
    """A GenExpr's level is its ring: expressions of two levels do not
    combine, and a level that Ring refuses is refused where it enters."""

    OTHERS = [(2, 1, 3), (1, 2, 3), (1, 1, 5), (0, 1, 3)]

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
    @pytest.mark.parametrize("level", OTHERS)
    def test_cross_level_arithmetic_raises(self, op, level):
        a = parse_gen_expr("C[1]", 1, 1, 3) + 1
        b = parse_gen_expr("C[1]", *level)
        for left, right in ((a, b), (b, a)):
            with pytest.raises(RingMismatchError) as info:
                op(left, right)
            assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("level", OTHERS)
    def test_cross_level_equality_is_false(self, level):
        for terms in ({}, {(): 1}):
            a, b = GenExpr(1, 1, 3, terms), GenExpr(*level, terms)
            assert a.terms == b.terms
            assert not a == b and a != b

    def test_the_level_is_the_ring(self):
        e = GenExpr(2, 1, 5, {((("U", 1), 1),): 1})
        assert e.ring == Ring(2, 1, False, 5)
        assert not any(hasattr(e, name) for name in ("m", "n", "p"))
        assert parse_gen_expr("U[1]", 2, 1, 5).ring == e.ring
        assert (e * e - 1).ring == e.ring

    def test_expand_and_solve_compare_rings(self):
        e = parse_gen_expr("C[1]", 1, 1, 3)
        for ring in (Ring(2, 1, False, 3), Ring(1, 1, False, 5), Ring(1, 1, True, 3)):
            with pytest.raises(RingMismatchError):
                expand(e, ring)
        with pytest.raises(RingMismatchError):
            GenSpan(1, 1, 3, 1).solve(parse_poly("x1 - y1", Ring(1, 1, False, 5)))

    @pytest.mark.parametrize("m, p", [(1, 1), (1, 2), (1, 4), (1, 9), (-1, 3)])
    def test_bad_levels_are_refused(self, m, p):
        with pytest.raises(ValueError):
            GenExpr(m, 1, p, {})
        with pytest.raises(ValueError):
            GenExpr(m, 1, p, {(): 1})
        with pytest.raises(ValueError) as info:
            parse_gen_expr("C[1]^2 + C[2]", m, 1, p)
        assert not isinstance(info.value, PolyParseError)
        for degree in (-1, 0, 2):
            with pytest.raises(ValueError):
                enumerate_gen_monomials(m, 1, p, degree)
        with pytest.raises(ValueError):
            level_symbols(m, 1, p, 4)
        with pytest.raises(ValueError):
            _gen_monomial_count(m, 1, p, 2)
        assert _gen_monomial_count.maxsize  # still behind its memo


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
        assert serialize_gen_expr(GenExpr(1, 1, 3, {})) == "0"
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


class TestSymbols:
    def test_weights(self):
        ring = Ring(2, 1, False, 3)
        assert symbol_weight("C", 4, ring) == 4
        assert symbol_weight("EX", 2, ring) == 6
        assert symbol_weight("EY", 1, ring) == 3
        assert symbol_weight("U", 1, ring) == 2 * 1 + 1 * 2

    @pytest.mark.parametrize("kind, index, m, n, p", [
        ("C", 0, 1, 1, 3), ("EX", 0, 1, 1, 3), ("EX", 2, 1, 1, 3), ("EY", 1, 1, 0, 3),
        ("U", 0, 1, 1, 3), ("U", 3, 1, 1, 3), ("U", 1, 1, 0, 3), ("Z", 1, 1, 1, 3),
    ])
    def test_missing_symbols_raise(self, kind, index, m, n, p):
        with pytest.raises(ValueError, match=rf"symbol {kind}\[{index}\] is invalid"):
            symbol_weight(kind, index, Ring(m, n, False, p))

    @pytest.mark.parametrize("kind, index, m, n, p", [("U", 1, -1, 2, 4), ("C", 1, 1, 1, 4)])
    def test_a_level_that_does_not_exist_has_no_weights(self, kind, index, m, n, p):
        # the weight takes the level's Ring, which refuses the level
        with pytest.raises(ValueError):
            symbol_weight(kind, index, Ring(m, n, False, p))
        with pytest.raises(TypeError):
            symbol_weight(kind, index, m, n, p)

    @pytest.mark.parametrize("m, n, p", [
        (0, 0, 3), (1, 0, 3), (0, 1, 3), (1, 1, 3), (2, 1, 5), (1, 2, 5), (3, 3, 7), (2, 0, 7), (3, 1, 3),
    ])
    def test_level_symbols_is_what_symbol_weight_accepts(self, m, n, p):
        ring = Ring(m, n, False, p)
        for w in range(-1, 3 * p + 2):
            expected = []
            for kind in ("C", "EX", "EY", "U", "Z"):
                for index in range(-1, 4 * p):
                    try:
                        weight = symbol_weight(kind, index, ring)
                    except ValueError:
                        continue
                    if weight <= w:
                        expected.append(((kind, index), weight))
            # canonical order is the plain order of the (kind, index) pairs
            assert expected == sorted(expected)
            assert list(level_symbols(m, n, p, w).items()) == expected


    @pytest.mark.parametrize("m, n", [
        (0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 3), (0, 3), (3, 0), (1, 3), (3, 2),
    ])
    def test_level_symbols_matches_the_full_scan(self, m, n):
        for p in (3, 5, 7, 11):
            for w in range(-1, 3 * p + 4):
                expected = reference_level_symbols(m, n, p, w)
                assert list(level_symbols(m, n, p, w).items()) == list(expected.items())

    @pytest.mark.parametrize("m, n, heavy", [
        (1, 1, []), (1, 2, []), (2, 1, []), (0, 2, [("U", 1000002)]),
    ])
    def test_level_symbols_scan_is_bounded_by_max_weight(self, monkeypatch, m, n, heavy):
        """At a large p and a small weight, each kind's scan ends at its
        first missing or too-heavy index: one call past the symbols it
        returns."""
        calls = []

        def counted(*args):
            calls.append(args)
            return symbol_weight(*args)

        monkeypatch.setattr(genexpr, "symbol_weight", counted)
        found = list(level_symbols(m, n, 1000003, 3))
        assert found == [("C", 1), ("C", 2), ("C", 3)] + heavy
        assert len(calls) <= len(found) + 4


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
                assert _key_weight(key, Ring(2, 1, False, 3)) == d
                assert key == tuple(sorted(key))  # canonical, as GenExpr keys

    # every level up to (3, 3) at p = 3, 5 and 7, degrees -1 to 14
    _GRID = [(m, n, p, d) for m in range(4) for n in range(4)
             for p in (3, 5, 7) for d in range(-1, 15)]

    def test_pruned_enumeration_matches_reference(self):
        for cell in self._GRID:
            assert enumerate_gen_monomials(*cell) == reference_enumerate_gen_monomials(*cell), cell

    def test_count_matches_enumeration(self):
        for cell in self._GRID:
            assert _gen_monomial_count(*cell) == len(enumerate_gen_monomials(*cell)), cell
        # (2, 2, 3, 20) has 3880 monomials
        assert _gen_monomial_count(2, 2, 3, 20) == len(enumerate_gen_monomials(2, 2, 3, 20)) == 3880

    def test_count_at_a_negative_degree_is_zero(self):
        # the suffix-count table has no column at a negative degree
        assert _gen_monomial_count(1, 1, 3, -1) == 0 == len(enumerate_gen_monomials(1, 1, 3, -1))
        assert _gen_monomial_count.values[1, 1, 3, -1] == 0  # kept, though falsy
        assert _gen_monomial_count(1, 1, 3, -1) == 0


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
        rows = _tuple_rows(span)
        ref = ReferenceSpan(1, 1, 3, 3)
        assert span.dimension == len(rows) == len(ref.rows) > 0
        assert rows == _leader_rows(ref, span.ring)

    def test_degree_zero(self):
        for m, n, p in [(1, 1, 3), (2, 0, 5), (0, 2, 3)]:
            span = GenSpan(m, n, p, 0)
            assert span.dimension == 1
            ring = Ring(m, n, False, p)
            for c in range(p):
                f = parse_poly(str(c), ring)
                assert span.solve(f) == GenExpr(m, n, p, {(): c})

    def test_negative_degree_is_refused(self, cold_spans):
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            GenSpan(1, 1, 3, -1)
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            genexpr.gen_span(1, 1, 3, -1)
        assert cold_spans.values == {}
        assert (1, 1, 3, -1) not in cold_spans.locks

    def test_lock_table_keeps_no_finished_key(self, cold_spans):
        genexpr.gen_span(1, 1, 3, 2)
        with pytest.raises(ValueError):
            genexpr.gen_span(1, 1, 3, -1)
        assert cold_spans.locks == {}
        assert list(cold_spans.values) == [(1, 1, 3, 2)]

    def test_solve_wrong_degree_is_none(self):
        span = GenSpan(1, 1, 3, 3)
        assert span.solve(c_r(2, R11)) is None
        assert span.solve(parse_poly("1", R11)) is None
        # inhomogeneous, and one part has an exponent too wide for the span
        assert span.solve(c_r(3, R11) + c_r(2, R11)) is None
        assert span.solve(c_r(3, R11) + parse_poly("x1^9", R11)) is None
        # x1^2*y1^4 packs with the span's 2-bit fields to the key of
        # x1^3 = EX[1], a member; only the degree check refuses it
        assert span.solve(parse_poly("x1^2*y1^4", R11)) is None
        assert span.solve(c_r(3, R11)) is not None

    def test_ring_mismatch(self):
        with pytest.raises(ValueError):
            GenSpan(1, 1, 3, 2).solve(parse_poly("x1^2", Ring(1, 1, True, 3)))

    def test_solve_refuses_leader_aliases(self):
        # both agree with c_1 = x1 + x2 - y1 on the orbit leaders x1 and
        # y1, but neither is block-symmetric
        ring = Ring(2, 1, False, 3)
        span = GenSpan(2, 1, 3, 1)
        assert span.solve(c_r(1, ring)) is not None
        for text in ["x1 - y1", "x1 + 2*x2 - y1"]:
            assert span.solve(parse_poly(text, ring)) is None

    def test_non_symmetric_generator_is_refused(self, monkeypatch, cold_tables):
        # an orbit point missing, then every point present with unequal
        # coefficients; rows are built on demand, so the refusal comes
        # from the first call that packs the broken symbol, and again
        # from every later one.  Each text starts from an empty table
        # memo, whose symbols the patched generator fills.
        ring = Ring(2, 1, False, 3)
        for text in ["x1", "x1 + 2*x2"]:
            cold_tables.values.clear()
            bad = parse_poly(text, ring)
            monkeypatch.setattr(genexpr, "generator_poly", lambda kind, idx, ring: bad)
            span = GenSpan(2, 1, 3, 1)
            with pytest.raises(InternalInvariantViolation):
                span.dimension
            with pytest.raises(InternalInvariantViolation):
                span.solve(c_r(1, ring))
            with pytest.raises(InternalInvariantViolation):
                span.dimension
            assert span.echelon.rows == {}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_solve_refuses_a_broken_orbit(data):
    """A member with one term off the orbit leaders deleted or changed
    keeps a member's leader terms, but it is not block-symmetric, so it
    is outside the span."""
    m, n, p = data.draw(st.sampled_from([(2, 1, 3), (1, 2, 3), (2, 2, 3), (2, 2, 5), (3, 1, 3), (2, 0, 3)]))
    d = data.draw(st.integers(1, 6))
    keys = enumerate_gen_monomials(m, n, p, d)
    chosen = data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=4))
    coeffs = data.draw(st.lists(st.integers(1, p - 1), min_size=len(chosen), max_size=len(chosen)))
    ring = Ring(m, n, False, p)
    f = expand(GenExpr(m, n, p, dict(zip(chosen, coeffs))), ring)
    off_leader = sorted(e for e in f.terms if not _is_leader(e, m))
    assume(off_leader)
    terms = dict(f.terms)
    e = data.draw(st.sampled_from(off_leader))
    if data.draw(st.booleans(), label="delete"):
        del terms[e]
    else:
        terms[e] += data.draw(st.integers(1, p - 1))  # may reach 0, a deletion
    span = genexpr.gen_span(m, n, p, d)
    assert span.solve(f) is not None
    assert span.solve(Poly(ring, terms)) is None


def _tuple_rows(span):
    """A span's echelon rows in row order, each split into its pivot and
    leader terms unpacked to exponent tuples and its label coordinates
    read as the combination of generator monomials.  Reading
    ``dimension`` first builds every row."""
    span.dimension
    width, nvars, p = span._orbits.width, span.ring.nvars, span.p
    out = []
    for lead, row in span.echelon.rows.items():
        assert lead >= 0  # a pivot is always a term, never a label
        terms = {k: c for k, c in row.items() if k >= 0}
        combo = {span.monomials[-1 - k]: c for k, c in row.items() if k < 0}
        out.append((next(iter(_unpack({lead: 1}, width, nvars, p))), _unpack(terms, width, nvars, p), combo))
    return out


def _is_leader(exps, m):
    """Exponents sorted nonincreasing inside each block."""
    x, y = list(exps[:m]), list(exps[m:])
    return x == sorted(x, reverse=True) and y == sorted(y, reverse=True)


def _leader_rows(ref, ring):
    """ReferenceSpan rows in row order, each restricted to orbit leaders.
    Every reference row must be block-symmetric, so the restriction
    loses nothing."""
    out = []
    for lead, (rvec, rcombo) in ref.rows.items():
        row = Poly(ring, rvec)
        assert is_symmetric(row, Block.X) and is_symmetric(row, Block.Y)
        out.append((lead, {e: c for e, c in rvec.items() if _is_leader(e, ring.m)}, rcombo))
    return out


def _assert_matches_reference(m, n, p, d):
    span, ref = GenSpan(m, n, p, d), ReferenceSpan(m, n, p, d)
    assert _tuple_rows(span) == _leader_rows(ref, span.ring)
    ring = span.ring
    rng = random.Random(d)
    members = [reference_expand_key(key, ring) for key in enumerate_gen_monomials(m, n, p, d)]
    members += [sum((rng.randrange(p) * f for f in members), parse_poly("0", ring))]
    members += [f + parse_poly("x1^%d" % d, ring) for f in members[:3] if m]
    for f in members:
        cert = span.solve(f)
        assert cert == ref.solve(f)
        if cert is not None:
            assert expand(cert, ring) == f


class TestPackedSpan:
    @pytest.mark.parametrize("m,n,p,dmax", [
        (1, 1, 3, 9), (2, 1, 3, 7), (1, 2, 3, 7), (2, 2, 3, 6),
        (1, 1, 5, 9), (2, 0, 3, 6), (0, 2, 5, 6), (3, 3, 3, 6), (2, 3, 5, 8),
        # cells where many monomials have a C power of p or more, which
        # the span leaves out and the reference keeps
        (2, 2, 3, 9), (1, 1, 3, 12), (0, 2, 3, 9), (2, 0, 3, 9),
    ])
    def test_matches_tuple_reference(self, m, n, p, dmax):
        for d in range(dmax + 1):
            _assert_matches_reference(m, n, p, d)

    @pytest.mark.parametrize("d", [7, 8, 15, 16])
    def test_width_edges(self, d):
        # d = 2^w - 1 fills a w-bit field; d = 2^w needs one more bit.
        span = GenSpan(1, 1, 3, d)
        assert span._orbits.width == d.bit_length()
        _assert_matches_reference(1, 1, 3, d)
        f = c_r(d, R11)  # has the term y1^d
        assert expand(span.solve(f), R11) == f

    def test_single_key_expand_matches_reference(self):
        for m, n, p in [(1, 1, 3), (2, 1, 3), (2, 2, 5), (0, 2, 3), (2, 0, 3)]:
            ring = Ring(m, n, False, p)
            for d in range(0, 8):
                for key in enumerate_gen_monomials(m, n, p, d):
                    assert _expand_monomial(key, ring) == reference_expand_key(key, ring)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_solve_recovers_expansion(self, data):
        m, n, p = data.draw(st.sampled_from([(1, 1, 3), (2, 1, 3), (1, 2, 3), (2, 2, 3), (1, 1, 5)]))
        d = data.draw(st.integers(0, 7))
        keys = enumerate_gen_monomials(m, n, p, d)
        chosen = data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=5))
        coeffs = data.draw(st.lists(st.integers(1, p - 1), min_size=len(chosen), max_size=len(chosen)))
        e = GenExpr(m, n, p, dict(zip(chosen, coeffs)))
        ring = Ring(m, n, False, p)
        f = expand(e, ring)
        cert = genexpr.gen_span(m, n, p, d).solve(f)
        assert cert is not None
        assert expand(cert, ring) == f


def _reference_expand(e, ring):
    total = Poly(ring, {})
    for key, c in e.terms.items():
        total = total + c * reference_expand_key(key, ring)
    return total


class TestPackedExpansion:
    """``expand`` runs on packed power chains; the
    reference multiplies exponent tuples with no packing and no
    Frobenius step."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_expand_matches_reference(self, data):
        p = data.draw(st.sampled_from((3, 5, 7)))
        m, n = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
        ring = Ring(m, n, False, p)
        e = data.draw(gen_exprs(m, n, p, expansion_cap(m + n, p)))
        assert expand(e, ring) == _reference_expand(e, ring)

    @pytest.mark.parametrize("m,n,p", [(1, 1, 3), (2, 1, 5), (1, 2, 7), (0, 2, 3), (2, 0, 5), (0, 0, 3)])
    def test_frobenius_and_step_powers(self, m, n, p):
        # C[1]^e for every e <= 2p + 1 walks both branches of the chain,
        # and a sum of them shares one chain
        ring = Ring(m, n, False, p)
        powers = [(((("C", 1), e),), 1) for e in range(2 * p + 2)]
        for key, _ in powers:
            assert _expand_monomial(key, ring) == reference_expand_key(key, ring)
        e = GenExpr(m, n, p, dict(powers))
        assert expand(e, ring) == _reference_expand(e, ring)

    def test_constant_and_zero(self):
        ring = Ring(2, 2, False, 5)
        assert expand(GenExpr(2, 2, 5, {(): 3}), ring) == Poly(ring, {(0, 0, 0, 0): 3})
        assert expand(GenExpr(2, 2, 5, {}), ring) == Poly(ring, {})
        assert _expand_monomial((), ring) == Poly(ring, {(0, 0, 0, 0): 1})
        cancelled = parse_gen_expr("C[1]", 2, 2, 5) - parse_gen_expr("C[1]", 2, 2, 5)
        assert expand(cancelled, ring).is_zero


def test_gen_span_single_flight(monkeypatch, cold_spans):
    """Concurrent first calls build each span once and share the object."""
    builds = collections.Counter()
    count_lock = threading.Lock()
    original_init = genexpr.GenSpan.__init__

    def counting_init(self, m, n, p, degree):
        with count_lock:
            builds[(m, n, p, degree)] += 1
        original_init(self, m, n, p, degree)

    monkeypatch.setattr(genexpr.GenSpan, "__init__", counting_init)
    keys = [(1, 1, 3, d) for d in range(1, 9)] + [(2, 1, 3, d) for d in range(1, 6)]
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    nthreads = min(2 * (cores or 1) + 2, 64)
    barrier = threading.Barrier(nthreads)
    results = [None] * nthreads

    def run(i):
        barrier.wait()
        order = keys[i % len(keys):] + keys[: i % len(keys)]
        results[i] = {key: genexpr.gen_span(*key) for key in order}

    threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(nthreads)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        deadline = time.monotonic() + 60
        for t in threads:
            t.join(max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads), "gen_span calls did not finish in time"
    assert builds == {key: 1 for key in keys}
    for got in results:
        assert all(got[key] is results[0][key] for key in keys)


def test_gen_span_locks_per_key(monkeypatch, cold_spans):
    """A slow build of one key holds up neither calls for another key
    nor, beyond its own build, a second call for the same key."""
    slow_key, fast_key = (1, 1, 3, 5), (1, 1, 3, 4)
    started, release = threading.Event(), threading.Event()
    builds = collections.Counter()
    original_init = genexpr.GenSpan.__init__

    def slow_init(self, m, n, p, degree):
        builds[(m, n, p, degree)] += 1
        if (m, n, p, degree) == slow_key:
            started.set()
            release.wait(30)
        original_init(self, m, n, p, degree)

    monkeypatch.setattr(genexpr.GenSpan, "__init__", slow_init)
    results = {}

    def call(name, key):
        results[name] = genexpr.gen_span(*key)

    first = threading.Thread(target=call, args=("first", slow_key), daemon=True)
    second = threading.Thread(target=call, args=("second", slow_key), daemon=True)
    other = threading.Thread(target=call, args=("other", fast_key), daemon=True)
    try:
        first.start()
        assert started.wait(30), "the slow build did not start"
        second.start()
        other.start()
        other.join(30)
        assert not other.is_alive(), "another key waited for the slow build"
        assert "second" not in results
    finally:
        release.set()
    first.join(30)
    second.join(30)
    assert not first.is_alive() and not second.is_alive()
    assert results["second"] is results["first"]
    assert results["other"].degree == 4
    assert builds == {slow_key: 1, fast_key: 1}


# -- lazy rows ----------------------------------------------------------------
#
# A span builds its rows on demand: ``solve`` only until the residue holds
# labels only, ``dimension`` all of them.


def _members(data, m, n, p, d, max_size=4):
    """Expansions of random combinations of the degree-d monomials."""
    ring = Ring(m, n, False, p)
    keys = enumerate_gen_monomials(m, n, p, d)
    out = []
    for _ in range(data.draw(st.integers(1, 3), label="members")):
        chosen = data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=max_size))
        coeffs = data.draw(st.lists(st.integers(1, p - 1), min_size=len(chosen), max_size=len(chosen)))
        out.append(expand(GenExpr(m, n, p, dict(zip(chosen, coeffs))), ring))
    return out


def _rows(span):
    return list(span.echelon.rows.items())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lazy_solve_matches_the_full_span(data):
    """A solve on a fresh span gives the certificate of the same solve on
    a span whose ``dimension`` was read first, from a prefix of its rows;
    reading ``dimension`` afterwards gives the full rank and rows."""
    m, n = data.draw(st.integers(0, 3), label="m"), data.draw(st.integers(0, 3), label="n")
    p = data.draw(st.sampled_from((3, 5)), label="p")
    d = data.draw(st.integers(0, 6 if m + n <= 4 else 4), label="d")
    members = _members(data, m, n, p, d)
    lazy, full = GenSpan(m, n, p, d), GenSpan(m, n, p, d)
    rank = full.dimension
    for f in members:
        cert = lazy.solve(f)
        assert cert is not None and cert == full.solve(f)
        assert expand(cert, f.ring) == f
    assert _rows(lazy) == _rows(full)[:len(lazy.echelon.rows)]
    assert lazy.dimension == rank
    assert _rows(lazy) == _rows(full)


@pytest.mark.parametrize("m,n,p,d,text", [
    (1, 1, 3, 1, "x1"),
    (2, 1, 3, 2, "x1^2 + x2^2"),
    (2, 2, 5, 3, "x1^3 + x2^3 + y1*y2^2 + y1^2*y2"),
    (3, 2, 3, 4, "x1^4 + x2^4 + x3^4"),
])
def test_non_member_builds_every_row(m, n, p, d, text):
    ring = Ring(m, n, False, p)
    span = GenSpan(m, n, p, d)
    assert span.solve(parse_poly(text, ring)) is None
    assert _rows(span) == _rows(_full_span(m, n, p, d))


def _full_span(m, n, p, d):
    span = GenSpan(m, n, p, d)
    span.dimension
    return span


def test_concurrent_solves_on_a_fresh_span_match_the_serial_ones():
    """Threads that solve different members on one fresh span get the
    certificates of the same solves run one after another, and the span
    keeps a prefix of the full span's rows."""
    m, n, p, d = 2, 2, 3, 9
    ring = Ring(m, n, False, p)
    keys = enumerate_gen_monomials(m, n, p, d)
    rng = random.Random(9)
    nthreads = 8
    members = [expand(GenExpr(m, n, p, {key: 1 for key in rng.sample(keys, 2)}), ring)
               for _ in range(nthreads)]
    serial = GenSpan(m, n, p, d)
    want = [serial.solve(f) for f in members]
    assert None not in want
    full = _rows(_full_span(m, n, p, d))
    for _ in range(3):
        shared = GenSpan(m, n, p, d)
        barrier = threading.Barrier(nthreads)
        got = [None] * nthreads

        def run(i):
            barrier.wait()
            got[i] = shared.solve(members[i])

        threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(nthreads)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            deadline = time.monotonic() + 60
            for t in threads:
                t.join(max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads), "solves did not finish in time"
        assert got == want
        assert _rows(shared) == full[:len(shared.echelon.rows)]


def test_level_tables_outlive_the_rows(monkeypatch, cold_tables):
    """A span's echelon drops its vector function once the last row is
    built, by ``dimension`` or by a solve that needs it.  The orbit
    helper, packed symbols and monomial memo stay in the level table: a
    bounded memo keyed by the level and the width class of the degree,
    which every span of that class shares, and an evicted table is built
    anew with equal rows."""
    built = collections.Counter()
    original = genexpr._OrbitLeaders

    def recording(ring, bound):
        built[bound] += 1
        return original(ring, bound)

    monkeypatch.setattr(genexpr, "_OrbitLeaders", recording)
    ring = Ring(2, 2, False, 3)
    span = GenSpan(2, 2, 3, 6)
    vector = weakref.ref(span.echelon._vector)
    assert span.solve(c_r(1, ring) ** 6) is not None
    assert vector() is not None  # rows remain: the vector function stays
    span.dimension
    assert vector() is None
    # at (1, 1, 3) degree 1 the one monomial is C[1]: solving c_1 builds the last row
    one = GenSpan(1, 1, 3, 1)
    vector = weakref.ref(one.echelon._vector)
    assert one.solve(c_r(1, R11)) is not None
    assert vector() is None

    assert isinstance(genexpr._TABLES, _Memo) and genexpr._TABLES.maxsize > 0
    assert list(cold_tables.values) == [(ring, 7), (R11, 1)]
    table = cold_tables.values[ring, 7]
    orbits = table.orbits
    assert table.symbols and table.vectors and span._orbits is orbits  # the rows' leader terms stay
    # degrees 4 to 7 share the table, 8 starts the next width class
    for d in (4, 5, 7):
        other = GenSpan(2, 2, 3, d)
        assert other._orbits is orbits
        other.dimension
    assert GenSpan(2, 2, 3, 8)._orbits is not orbits
    assert cold_tables.values[ring, 7] is table
    assert built == {7: 1, 1: 1, 15: 1}

    # evicted, the table is built anew and the span gets the same rows
    cold_tables.maxsize = 3
    GenSpan(1, 1, 3, 2)
    assert list(cold_tables.values) == [(R11, 1), (ring, 15), (R11, 3)]
    again = GenSpan(2, 2, 3, 6)
    assert again._orbits is not orbits
    assert again.dimension == span.dimension
    assert _rows(again) == _rows(span)
    assert built == {7: 2, 1: 1, 15: 1, 3: 1}


def test_spans_sharing_a_table_draw_concurrently(cold_tables):
    """Threads that solve members on, and rank, spans of different
    degrees of one width class, so with one level table, get the ranks,
    certificates and rows of a serial run on a fresh table."""
    m, n, p = 2, 2, 3
    ring = Ring(m, n, False, p)
    degrees = (8, 9, 10, 11, 12, 13)  # one width class, one thread each
    rng = random.Random(11)
    members = {}
    for d in degrees:
        keys = enumerate_gen_monomials(m, n, p, d)
        members[d] = [expand(GenExpr(m, n, p, {key: 1 for key in rng.sample(keys, 2)}), ring)
                      for _ in range(3)]

    def draw(d):
        span = GenSpan(m, n, p, d)
        certificates = [serialize_gen_expr(span.solve(f)) for f in members[d]]
        return span.dimension, certificates, _rows(span)

    serial = {d: draw(d) for d in degrees}
    assert len(cold_tables.values) == 1
    for _ in range(3):
        cold_tables.values.clear()
        assert _at_once(draw, degrees) == serial
        assert len(cold_tables.values) == 1


def _at_once(draw, degrees):
    """{d: draw(d)}, with one thread per degree, all started together and
    switching as often as the interpreter allows."""
    barrier = threading.Barrier(len(degrees))
    got = {}

    def run(d):
        barrier.wait()
        got[d] = draw(d)

    threads = [threading.Thread(target=run, args=(d,), daemon=True) for d in degrees]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        deadline = time.monotonic() + 60
        for t in threads:
            t.join(max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads), "the draws did not finish in time"
    return got


def _drop_one(key, j):
    """The symbol monomial ``key`` with its j-th exponent lowered by one."""
    symbol, e = key[j]
    return key[:j] + (((symbol, e - 1),) if e > 1 else ()) + key[j + 1:]


def test_live_draws_are_closed_under_division():
    """The monomials whose draw adds a row are the standard monomials of
    the expansion map's kernel in lex order, so every one-symbol quotient
    of one adds a row at its own degree (README "Design notes").  Checked
    on the tuple-keyed reference alone: its listing, its expansions and
    its row reduction."""
    dead_with_a_dead_quotient = 0
    for p in (3, 5):
        for m, n in itertools.product(range(4), repeat=2):
            if m + n == 0:
                continue
            dmax = 9 if m + n <= 2 else 8 if m + n <= 3 else 7 if m + n == 4 else 6
            weights = reference_level_symbols(m, n, p, dmax)
            live = {}
            for d in range(dmax + 1):
                live[d] = set(ReferenceSpan(m, n, p, d).live)
                for key in reference_enumerate_gen_monomials(m, n, p, d):
                    quotients = [(_drop_one(key, j), d - weights[s]) for j, (s, _) in enumerate(key)]
                    if key in live[d]:
                        assert all(q in live[dq] for q, dq in quotients), (m, n, p, key)
                    elif any(q not in live[dq] for q, dq in quotients):
                        dead_with_a_dead_quotient += 1
    assert dead_with_a_dead_quotient > 100  # the rule has dead draws to skip


def _symbol_sizes(ring, key):
    return [len(generator_poly(kind, idx, ring).terms) for (kind, idx), _ in key]


def test_every_vector_is_the_leader_terms_of_its_expansion(cold_spans, cold_tables):
    """With no memoized lower span the dead-draw rule is idle, and every
    listed monomial's vector, one product from the vector of a quotient,
    is the leader part of its reference expansion; the cells include
    monomials whose cheapest symbols tie."""
    ties = 0
    for m, n, p, dmax in [(2, 2, 3, 9), (1, 2, 5, 12), (2, 3, 5, 8)]:
        ring = Ring(m, n, False, p)
        for d in range(dmax + 1):
            span = GenSpan(m, n, p, d)
            table = cold_tables(ring, _width_class(d))
            width = table.orbits.width
            for key in span.monomials:
                want = {e: c for e, c in reference_expand_key(key, ring).terms.items() if _is_leader(e, m)}
                assert _unpack(table.vector(key, d), width, ring.nvars, p) == want, key
                sizes = _symbol_sizes(ring, key)
                ties += sizes.count(min(sizes, default=0)) > 1
    assert ties > 0


def _draw_spans(m, n, p, top, memoized, members, full):
    """(rank, rows, certificates) of each degree's span, drawn in
    ascending degree from ``gen_span`` (so the dead-draw rule reads the
    lower spans) or top down from cold ``GenSpan``s (so it has none to
    read); a span in ``full`` is ranked before the next degree's solves."""
    out = {}
    for d in (range(top + 1) if memoized else range(top, -1, -1)):
        span = genexpr.gen_span(m, n, p, d) if memoized else GenSpan(m, n, p, d)
        certificates = [span.solve(f) for f in members[d]]
        if d in full:
            span.dimension
        out[d] = certificates
    for d in out:
        span = genexpr.gen_span(m, n, p, d) if memoized else GenSpan(m, n, p, d)
        out[d] = (span.dimension, _rows(span), out[d])
    return out


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_dead_draw_rule_keeps_rows_ranks_and_certificates(data):
    """Spans drawn in ascending degree, partly or fully, with the dead-draw
    rule active give the rows, ranks and certificates of cold spans drawn
    top down, where the rule is idle, and make no more products."""
    m, n, p, top = data.draw(st.sampled_from([(2, 2, 3, 11), (1, 2, 5, 14), (2, 3, 5, 9), (1, 1, 3, 12)]))
    members = {d: _members(data, m, n, p, d) for d in range(top + 1)}
    full = set(data.draw(st.lists(st.integers(0, top)), label="ranked early"))
    products = collections.Counter()
    original = genexpr._OrbitLeaders.mul

    def counting(self, leaders, packed):
        products[memoized] += 1
        return original(self, leaders, packed)

    got = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(genexpr._OrbitLeaders, "mul", counting)
        for memoized in (True, False):
            for name in ("_SPANS", "_TABLES"):
                _cold(patch, name)
            got[memoized] = _draw_spans(m, n, p, top, memoized, members, full)
    assert got[True] == got[False]
    for d, (_, _, certificates) in got[True].items():
        for f, cert in zip(members[d], certificates):
            assert cert is not None and expand(cert, f.ring) == f
    assert products[True] <= products[False]


def test_dead_draw_rule_skips_products(cold_spans, cold_tables):
    """Ranked in ascending degree, the (1, 2, 5) spans up to degree 16
    draw dead monomials whose vectors the rule makes {} with no product;
    with no memoized span to read, each of them gets its full vector."""
    ring = Ring(1, 2, False, 5)
    spans = [genexpr.gen_span(1, 2, 5, d) for d in range(17)]
    for span in spans:
        span.dimension
    skipped = [(d, key) for d, span in enumerate(spans) for key in span.monomials
               if cold_tables(ring, _width_class(d)).vectors.get(key) == {}]
    assert len(skipped) > 20
    for d, key in skipped:
        assert spans[d]._drew_dead(key)  # the rule skips dead draws only
    cold_spans.values.clear()
    cold_tables.values.clear()
    for d, key in skipped:
        assert cold_tables(ring, _width_class(d)).vector(key, d) != {}


def test_memoized_spans_draw_concurrently_with_the_dead_rule(cold_spans, cold_tables):
    """Threads that draw memoized spans of neighbouring degrees at once,
    each reading the others' draw records without their locks, get the
    ranks, certificates and rows of a serial run."""
    m, n, p = 1, 2, 5
    ring = Ring(m, n, False, p)
    degrees = range(10, 17)
    rng = random.Random(12)
    members = {}
    for d in degrees:
        keys = enumerate_gen_monomials(m, n, p, d)
        members[d] = [expand(GenExpr(m, n, p, {key: 1 for key in rng.sample(keys, 2)}), ring)
                      for _ in range(2)]

    def draw(d):
        span = genexpr.gen_span(m, n, p, d)
        certificates = [serialize_gen_expr(span.solve(f)) for f in members[d]]
        return span.dimension, certificates, _rows(span)

    serial = {d: draw(d) for d in degrees}
    for _ in range(3):
        cold_spans.values.clear()
        cold_tables.values.clear()
        assert _at_once(draw, degrees) == serial
