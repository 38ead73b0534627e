import hashlib
from itertools import combinations_with_replacement, product
from math import comb

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from supersympoly import (
    Block,
    Ring,
    bracket_brace,
    bracket_round,
    bracket_square,
    c_r,
    d_dT,
    elementary,
    enumerate_deltas,
    is_symmetric,
    kseq,
    make_v,
    one,
    parse_poly,
    poly_to_str,
    psi,
    set_xm_zero,
    sigma_x_p,
    sigma_y_p,
    u_k,
    v_k,
    w_poly,
    zero,
)
from supersympoly import generators
from supersympoly.generators import _delta_x_families, generator_poly, placed_sym
from supersympoly.poly_core import _Memo

from helpers import reference_mul, reference_placed

EMPTY = ()


class TestKSeq:
    def test_frozen_values(self):
        ks = kseq(3, 1)
        assert (ks.s, ks.kvals, ks.kp) == (1, (1,), 1)
        ks = kseq(5, 3)
        assert (ks.s, ks.kvals, ks.kp) == (2, (3, 1), 1)
        ks = kseq(7, 2)
        assert (ks.s, ks.kvals, ks.kp) == (1, (2,), 3)

    def test_top_k_has_zero_tail(self):
        for p in (3, 5, 7):
            ks = kseq(p, p - 1)
            assert ks.s == p - 1
            assert ks.kp == 0

    def test_invariants_hold_on_grid(self):
        """The nine relations of the KSeq docstring, which kseq does not
        check: they follow from the definitions for any 0 < k < p."""
        primes = [p for p in range(2, 200) if all(p % d for d in range(2, p))]
        assert len(primes) == 46
        for p in primes:
            for k in range(1, p):
                ks = kseq(p, k)
                s, kvals, kp = ks.s, ks.kvals, ks.kp
                assert 1 <= s < p and len(kvals) == s and kvals[0] == k, ks
                assert all(v > 0 for v in kvals) and kp >= 0, ks
                assert kp + k == s * (p - k), ks
                assert all(kvals[i] + (p - k) == kvals[i - 1] for i in range(1, s)), ks
                assert all(kvals[i] + kp == (s - i) * (p - k) for i in range(s)), ks

    def test_rejects_out_of_range(self):
        for k in (0, 3, -1):
            with pytest.raises(ValueError):
                kseq(3, k)


class TestDeltas:
    def test_single_sequence_for_s_one(self):
        assert enumerate_deltas(1) == [EMPTY]

    def test_full_sets_are_every_nondecreasing_tuple_in_order(self):
        # nondecreasing tuples of length <= s-1 over s-1 values number
        # C(2s-2, s-1); each is listed once, ordered by (weight, length, entries)
        for s in range(1, 9):
            deltas = enumerate_deltas(s)
            expected = [
                t for size in range(s) for t in combinations_with_replacement(range(1, s), size)
            ]
            assert len(deltas) == comb(2 * s - 2, s - 1)
            assert deltas == sorted(expected, key=lambda d: (sum(d), len(d), d))

    def test_x_families_reject_entries_outside_the_range(self):
        ks = kseq(7, 6)  # s = 6
        assert _delta_x_families((1, 1, 5), ks) == [(ks.kvals[1], 2), (ks.kvals[5], 1)]
        for delta in ((0,), (-1, 2), (1, 6)):
            with pytest.raises(ValueError):
                _delta_x_families(delta, ks)


def test_generator_memo_drops_the_oldest_and_rebuilds_it_equal(monkeypatch):
    built, original = [], generators._GENERATORS.build

    def build(kind, index, ring):
        built.append((kind, index))
        return original(kind, index, ring)

    memo = _Memo(build, maxsize=2)
    monkeypatch.setattr(generators, "_GENERATORS", memo)
    ring = Ring(2, 1, False, 3)
    first = generator_poly("C", 2, ring)
    assert generator_poly("EX", 1, ring) is generator_poly("EX", 1, ring)
    generator_poly("U", 1, ring)
    assert list(memo.values) == [("EX", 1, ring), ("U", 1, ring)]
    again = generator_poly("C", 2, ring)
    assert again == first == c_r(2, ring) and again is not first
    assert built == [("C", 2), ("EX", 1), ("U", 1), ("C", 2)]


class TestFamilies:
    def test_c0_is_one(self):
        assert c_r(0, Ring(2, 2, False, 3)) == one(Ring(2, 2, False, 3))

    def test_c1_and_c2_level_one(self):
        r = Ring(1, 1, False, 3)
        assert c_r(1, r) == parse_poly("x1 - y1", r)
        assert c_r(2, r) == parse_poly("y1^2 - x1*y1", r)

    def test_sigma_powers(self):
        r = Ring(1, 0, False, 3)
        assert sigma_x_p(1, r) == parse_poly("x1^3", r)
        r = Ring(2, 0, False, 3)
        assert sigma_x_p(2, r) == parse_poly("x1^3*x2^3", r)
        r = Ring(0, 2, False, 3)
        assert sigma_y_p(1, r) == parse_poly("y1^3 + y2^3", r)
        # the definition: EX[i] and EY[j] are p-th powers of sigma_i(x), sigma_j(y)
        for m, n, p in product(range(4), range(4), (3, 5, 7)):
            r = Ring(m, n, False, p)
            for i in range(1, m + 1):
                assert sigma_x_p(i, r) == elementary(i, Block.X, r) ** p
            for j in range(1, n + 1):
                assert sigma_y_p(j, r) == elementary(j, Block.Y, r) ** p

    def test_sigma_power_range(self):
        with pytest.raises(ValueError):
            sigma_x_p(2, Ring(1, 1, False, 3))

    def test_u_k_examples(self):
        assert u_k(1, Ring(1, 1, False, 3)) == parse_poly("x1*y1^2", Ring(1, 1, False, 3))
        assert u_k(1, Ring(0, 1, False, 3)) == parse_poly("y1^2", Ring(0, 1, False, 3))
        assert u_k(2, Ring(2, 1, False, 3)) == parse_poly(
            "x1^2*x2^2*y1", Ring(2, 1, False, 3)
        )
        # core_exponents gives the T slot of a ring with T the exponent 0
        assert u_k(2, Ring(2, 1, True, 3)) == parse_poly("x1^2*x2^2*y1", Ring(2, 1, True, 3))

    def test_u_k_range(self):
        with pytest.raises(ValueError):
            u_k(3, Ring(1, 1, False, 3))
        with pytest.raises(ValueError):
            u_k(1, Ring(1, 0, False, 3))


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("m,n", [(m, n) for m in range(4) for n in range(4)])
def test_frobenius_writes_c_r_to_the_p_in_ex_and_ey(m, n, p):
    """Over F_p, sum_r c_r^p s^r = (sum_i EX[i] s^i) / (sum_j EY[j] s^j)
    with EX[0] = EY[0] = 1, the identity behind GenSpan leaving out
    every monomial with a C power of p or more."""
    ring = Ring(m, n, False, p)
    ex = [one(ring)] + [generator_poly("EX", i, ring) for i in range(1, m + 1)]
    ey = [one(ring)] + [generator_poly("EY", j, ring) for j in range(1, n + 1)]
    top = m + n + 2
    inverse = [one(ring)]  # [s^k] of 1 / sum_j EY[j] s^j
    for k in range(1, top + 1):
        inverse.append(-sum((ey[j] * inverse[k - j] for j in range(1, min(k, n) + 1)), zero(ring)))
    for r in range(top + 1):
        rhs = sum((ex[i] * inverse[r - i] for i in range(min(r, m) + 1)), zero(ring))
        assert c_r(r, ring) ** p == rhs, r


class TestBrackets:
    def test_round_example(self):
        r = Ring(2, 1, False, 3)
        ks = kseq(3, 1)
        assert bracket_round(EMPTY, 0, ks, r) == parse_poly("x1*x2*y1", r)

    def test_round_out_of_range_j(self):
        r = Ring(2, 1, False, 3)
        ks = kseq(3, 1)
        assert bracket_round(EMPTY, 1, ks, r).is_zero
        assert bracket_round(EMPTY, -1, ks, r).is_zero

    def test_oversized_delta_gives_zero(self):
        r = Ring(1, 2, False, 5)
        ks = kseq(5, 3)
        assert bracket_round((1, 1), 0, ks, r).is_zero
        assert bracket_brace((1,), 1, 0, ks, r).is_zero

    def test_square_with_empty_y_tail(self):
        r = Ring(2, 2, False, 3)
        ks = kseq(3, 1)
        assert bracket_square(EMPTY, 2, ks, r) == parse_poly("x1*x2", r)

    def test_brace_example(self):
        r = Ring(2, 1, False, 3)
        ks = kseq(3, 1)
        got = bracket_brace(EMPTY, 1, 0, ks, r)
        assert got == parse_poly("x1^2*x2*y1^2 + x1*x2^2*y1^2", r)

    def test_brace_j_at_n_drops_y_part(self):
        r = Ring(2, 1, False, 3)
        ks = kseq(3, 1)
        got = bracket_brace(EMPTY, 1, 1, ks, r)
        assert got == parse_poly("x1^2*x2 + x1*x2^2", r)

    def test_collision_multiplicity(self):
        # at k = p-1 the movable slot value l(p-k) meets the delta value
        # k_1; the two slots stay distinguishable, giving coefficient 2
        r = Ring(2, 1, False, 3)
        ks = kseq(3, 2)
        got = bracket_brace((1,), 1, 0, ks, r)
        assert got == parse_poly("2*x1*x2*y1", r)

    def test_brackets_are_block_symmetric(self):
        for p, k in [(3, 1), (3, 2), (5, 3)]:
            ks = kseq(p, k)
            r = Ring(2, 2, False, p)
            for delta in enumerate_deltas(ks.s):
                for j in range(0, 3):
                    for f in (
                        bracket_round(delta, j, ks, r),
                        bracket_square(delta, j, ks, r),
                        bracket_brace(delta, 1, j, ks, r),
                    ):
                        assert is_symmetric(f, Block.X)
                        assert is_symmetric(f, Block.Y)


class TestPlacedSym:
    def test_single_family_is_orbit(self):
        r = Ring(2, 0, False, 3)
        assert placed_sym([(1, 2)], [], r) == parse_poly("x1*x2", r)

    def test_distinct_families_with_equal_values(self):
        r = Ring(2, 0, False, 3)
        assert placed_sym([(1, 1), (1, 1)], [], r) == parse_poly("2*x1*x2", r)

    def test_zero_valued_slot_occupies_a_variable(self):
        r = Ring(0, 2, False, 3)
        assert placed_sym([], [(0, 1)], r) == parse_poly("2", r)

    def test_overfull_is_zero(self):
        r = Ring(1, 0, False, 3)
        assert placed_sym([(1, 2)], [], r).is_zero


_families = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=3)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from((3, 5, 7)),
    st.integers(0, 3),
    st.integers(0, 3),
    st.booleans(),
    _families,
    _families,
)
# equal values across families, zero-valued slots, an overfull block
@example(3, 3, 2, False, [(1, 1), (1, 2)], [(0, 1)])
@example(5, 2, 2, True, [(2, 1), (2, 1)], [(0, 2)])
@example(3, 2, 3, True, [(1, 3)], [(2, 1), (2, 1), (2, 1)])
@example(7, 3, 1, False, [(0, 1), (3, 1)], [(1, 2)])
def test_placed_sym_matches_product_of_blocks(p, m, n, has_t, xfams, yfams):
    """The two-block placement is the product of the one-block ones."""
    ring = Ring(m, n, has_t, p)
    expected = reference_mul(
        reference_placed(xfams, Block.X, ring), reference_placed(yfams, Block.Y, ring)
    )
    assert placed_sym(xfams, yfams, ring) == expected


class TestW:
    def test_smallest_case(self):
        r = Ring(1, 1, False, 3)
        assert w_poly(kseq(3, 1), r) == parse_poly("x1*y1", r)

    def test_two_x_variables(self):
        r = Ring(2, 1, False, 3)
        assert w_poly(kseq(3, 1), r) == parse_poly("x1*x2*y1", r)

    def test_homogeneous_of_expected_degree(self):
        for p in (3, 5):
            for k in range(1, p):
                ks = kseq(p, k)
                for m in (1, 2):
                    for n in (1, 2):
                        w = w_poly(ks, Ring(m, n, False, p))
                        assert {sum(e) for e in w.terms} == {(m - 1) * k + (p - k) * n}


class TestVk:
    def test_frozen_level_one(self):
        r = Ring(1, 1, False, 3)
        assert make_v(3, 1, 1, 1) == parse_poly("2*x1*y1 + y1^2", r)

    def test_frozen_level_two(self):
        r = Ring(2, 1, False, 3)
        assert make_v(3, 1, 2, 1) == parse_poly(
            "2*x1*x2*y1 + x1*y1^2 + x2*y1^2", r
        )

    def test_frozen_top_k(self):
        # k = p-1 exercises the slot collision; frozen from hand expansion
        r = Ring(2, 1, False, 3)
        expected = parse_poly(
            "2*x1^2*x2 + 2*x1*x2^2 + x1^2*y1 + x1*x2*y1 + x2^2*y1", r
        )
        assert make_v(3, 2, 2, 1) == expected

    def test_psi_image_example(self):
        v = make_v(3, 1, 2, 1)
        assert psi(v) == parse_poly("T^3", Ring(1, 0, True, 3))
        assert d_dT(psi(v)).is_zero

    def test_degree_example(self):
        v = make_v(3, 1, 2, 1)
        assert v.degree() == 3 == (2 - 1) * 1 + (3 - 1) * 1

    def test_triple_contract_small_grid(self):
        for p in (3, 5):
            for k in range(1, p):
                for m in (1, 2):
                    for n in (1, 2):
                        v = make_v(p, k, m, n)
                        assert is_symmetric(v, Block.X)
                        assert is_symmetric(v, Block.Y)
                        assert d_dT(psi(v)).is_zero
                        assert set_xm_zero(v) == u_k(k, Ring(m - 1, n, False, p))

    def test_requires_both_blocks(self):
        for m, n in ((0, 1), (1, 0)):
            with pytest.raises(ValueError, match="lift v_k"):
                v_k(kseq(3, 1), Ring(m, n, False, 3))

    def test_lift_text_is_pinned(self):
        """The printed lift and its x_m = y_n = T image over the
        criterion-1 grid, hashed; any change to the lift text shows here."""
        digest = hashlib.sha256()
        for p in (3, 5, 7):
            for k in range(1, p):
                for m in (1, 2, 3):
                    for n in (1, 2, 3):
                        v = make_v(p, k, m, n)
                        text = f"{p} {k} {m} {n}\n{poly_to_str(v)}\n{poly_to_str(psi(v))}\n"
                        digest.update(text.encode())
        assert digest.hexdigest() == (
            "bbf35954aa24e93b3f6b4455bf21d2b49c490e9c57febccfbf9000dc2d65a984"
        )
