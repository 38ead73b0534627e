import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from supersympoly import (
    Block,
    Poly,
    Ring,
    c_r,
    zero,
    d_dT,
    is_p_balanced,
    is_strictly_supersymmetric,
    is_supersymmetric,
    parse_poly,
    psi,
    sigma_x_p,
    u_k,
)

from supersympoly.poly_core import _block_symmetry
from supersympoly.supersym import _leader_derivative_vanishes

from helpers import is_leader, orbit_sym, reference_is_symmetric

R11 = Ring(1, 1, False, 3)


class TestIsSupersymmetric:
    def test_c2_is_member(self):
        assert is_supersymmetric(c_r(2, R11)).overall

    def test_bare_variable_fails_derivative(self):
        verdict = is_supersymmetric(parse_poly("x1", R11))
        assert verdict.symmetric_x and verdict.symmetric_y
        assert not verdict.derivative_vanishes
        assert not verdict.overall

    def test_core_products_are_members(self):
        for p in (3, 5):
            for m in (1, 2):
                for n in (1, 2):
                    ring = Ring(m, n, False, p)
                    for k in range(1, p):
                        assert is_supersymmetric(u_k(k, ring)).overall

    def test_empty_block_is_vacuous(self):
        r = Ring(0, 2, False, 3)
        assert is_supersymmetric(parse_poly("y1*y2", r)).overall


class TestStrict:
    def test_c1_is_strict(self):
        assert is_strictly_supersymmetric(c_r(1, R11))

    def test_core_is_not_strict(self):
        assert not is_strictly_supersymmetric(u_k(1, R11))

    def test_constant_is_strict(self):
        assert is_strictly_supersymmetric(parse_poly("2", R11))

    @pytest.mark.parametrize("m, n, text", [
        (1, 0, "x1"), (1, 0, "x1^2 + 2"), (0, 2, "y1*y2 + y1"), (0, 2, "y1^2 + y2^2"),
    ])
    def test_one_block_strict_is_membership(self, m, n, text):
        f = parse_poly(text, Ring(m, n, False, 3))
        assert is_strictly_supersymmetric(f) == is_supersymmetric(f).overall

    def test_non_member_is_not_strict(self):
        # psi(x1) at (2, 1) has no T, but x1 is not symmetric in x
        f = parse_poly("x1", Ring(2, 1, False, 3))
        assert not is_supersymmetric(f).overall
        assert not is_strictly_supersymmetric(f)


class TestPBalanced:
    def test_balanced_term(self):
        assert is_p_balanced(parse_poly("x1^2*y1", R11))

    def test_unbalanced_term(self):
        assert not is_p_balanced(parse_poly("x1*y1", R11))

    def test_p_th_powers(self):
        for m in (1, 2, 3):
            ring = Ring(m, 2, False, 3)
            assert is_p_balanced(sigma_x_p(1, ring))

    def test_zero_exponents_count(self):
        # x1^2 pairs exponent 2 with the implicit y exponent 0
        assert not is_p_balanced(parse_poly("x1^2", R11))

    @pytest.mark.parametrize("m, n, text, balanced", [
        (2, 0, "x1 + x2^2", True),  # one block: no cross sums
        (0, 2, "y1*y2^4", True),
        (2, 1, "x1*x2^2*y1^2", False),  # x residues 1 and 2 differ
        (1, 2, "x1*y1^2*y2", False),  # y residues 2 and 1 differ
        (2, 1, "x1^3*y1^6 + y1^3", True),  # zero exponents balance too
    ])
    def test_cross_sums(self, m, n, text, balanced):
        assert is_p_balanced(parse_poly(text, Ring(m, n, False, 3))) is balanced


def test_cr_is_supersymmetric_and_strict_on_grid():
    for p in (3, 5, 7):
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                ring = Ring(m, n, False, p)
                for r in range(1, 7):
                    f = c_r(r, ring)
                    assert is_supersymmetric(f).overall, (p, m, n, r)
                    assert is_strictly_supersymmetric(f), (p, m, n, r)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from((3, 5)),
    st.integers(1, 2),
    st.integers(1, 2),
    st.lists(st.integers(0, 4), min_size=2, max_size=4),
)
def test_algebra_closure_on_generator_products(p, m, n, picks):
    ring = Ring(m, n, False, p)
    pool = [c_r(r, ring) for r in range(1, 4)] + [u_k(k, ring) for k in range(1, p)]
    f = ring_one = parse_poly("1", ring)
    g = ring_one
    for i, pick in enumerate(picks):
        chosen = pool[pick % len(pool)]
        if i % 2 == 0:
            f = f * chosen
        else:
            g = g * chosen
    assert is_supersymmetric(f).overall
    assert is_supersymmetric(g).overall
    assert is_supersymmetric(f + g).overall
    assert is_supersymmetric(f * g).overall


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from((3, 5)),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(0, 4),
    st.data(),
)
def test_balanced_symmetric_implies_derivative_vanishes(p, m, n, c, data):
    # build a random balanced block-symmetric polynomial: all x exponents
    # congruent to c, all y exponents congruent to -c mod p
    ring = Ring(m, n, False, p)
    xexps = [
        c % p + p * data.draw(st.integers(0, 1), label="xlift") for _ in range(m)
    ]
    yexps = [
        (-c) % p + p * data.draw(st.integers(0, 1), label="ylift") for _ in range(n)
    ]
    f = orbit_sym(xexps, Block.X, ring) * orbit_sym(yexps, Block.Y, ring)
    assert is_p_balanced(f)
    assert is_supersymmetric(f).derivative_vanishes


def test_strict_implies_supersymmetric_on_cr_products():
    for p in (3, 5):
        ring = Ring(2, 2, False, p)
        for r in range(1, 4):
            for s in range(1, 4):
                f = c_r(r, ring) * c_r(s, ring)
                assert is_strictly_supersymmetric(f)
                assert is_supersymmetric(f).overall


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((3, 5)),
    st.integers(0, 2),
    st.integers(0, 2),
    st.data(),
)
def test_verdict_matches_the_clauses_computed_apart(p, m, n, data):
    """The verdict reads the derivative clause and strictness off one
    scan of the T exponents of psi(f); both must agree with d/dT of the
    image and with the T exponents checked on their own."""
    ring = Ring(m, n, False, p)
    # symmetric pieces, so that strictness is not decided by symmetry alone
    pieces = [orbit_sym(data.draw(st.lists(st.integers(0, 2 * p), min_size=m, max_size=m)), Block.X, ring)
              * orbit_sym(data.draw(st.lists(st.integers(0, 2 * p), min_size=n, max_size=n)), Block.Y, ring)
              for _ in range(data.draw(st.integers(1, 3)))]
    f = sum(pieces[1:], pieces[0]) + parse_poly("x1" if m else "1", ring) * data.draw(st.integers(0, 1))
    verdict = is_supersymmetric(f)
    if m and n:
        image = psi(f)
        assert verdict.derivative_vanishes == d_dT(image).is_zero
        t_free = all(exps[-1] == 0 for exps in image.terms)
    else:
        assert verdict.derivative_vanishes
        t_free = True
    assert verdict.strict == (verdict.overall and t_free) == is_strictly_supersymmetric(f)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((3, 5, 7)), st.integers(0, 3), st.integers(0, 3), st.data())
def test_leader_derivative_clause_matches_the_verdict(p, m, n, data):
    """On a block-symmetric f, a sum of orbit sums m_lam(x) m_mu(y), the
    derivative clause computed from f's leader terms by the restriction
    identity is the verdict's, and the orbits of the leader terms expand
    back to f.  A balanced draw (every x exponent r mod p, every y
    exponent -r) makes the clause hold, and c_r added on top keeps it,
    so both outcomes come up."""
    ring = Ring(m, n, False, p)
    balanced = data.draw(st.booleans(), label="balanced")
    f = zero(ring)
    for _ in range(data.draw(st.integers(1, 3))):
        r = data.draw(st.integers(0, p - 1))
        xs = data.draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
        ys = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        if balanced:
            xs, ys = [r + p * e for e in xs], [(-r) % p + p * e for e in ys]
        else:
            xs, ys = [r + e for e in xs], [r * e for e in ys]
        f = f + data.draw(st.integers(1, p - 1)) * orbit_sym(xs, Block.X, ring) * orbit_sym(ys, Block.Y, ring)
    f = f + data.draw(st.integers(0, p - 1)) * c_r(data.draw(st.integers(1, 3)), ring)
    sym_x, sym_y, leaders = _block_symmetry(f)
    assert sym_x and sym_y
    assert _leader_derivative_vanishes(leaders) == is_supersymmetric(f).derivative_vanishes
    back = zero(ring)
    for exps, c in leaders.terms.items():
        back = back + c * orbit_sym(exps[:m], Block.X, ring) * orbit_sym(exps[m:], Block.Y, ring)
    assert back == f


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((3, 5, 7)), st.integers(0, 3), st.integers(0, 3), st.data())
def test_block_symmetry_matches_the_transposition_scan(p, m, n, data):
    """``_block_symmetry`` against the transposition scan, on sums of
    orbit sums m_lam(x) m_mu(y), some broken by dropping one term or by
    changing one coefficient: its verdict on each block is the scan's,
    and its third value is f's terms at leaders, whatever the verdicts.
    A dropped term that is no leader leaves every twin in place, so there
    the orbit count alone decides."""
    ring = Ring(m, n, False, p)
    f = zero(ring)
    for _ in range(data.draw(st.integers(1, 3))):
        xs = data.draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
        ys = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        f = f + data.draw(st.integers(1, p - 1)) * orbit_sym(xs, Block.X, ring) * orbit_sym(ys, Block.Y, ring)
    break_it = data.draw(st.sampled_from(("keep", "drop a term", "change a coefficient")))
    if break_it != "keep" and f.terms:
        terms = dict(f.terms)
        key = data.draw(st.sampled_from(sorted(terms)))
        if break_it == "drop a term":
            del terms[key]
        else:
            terms[key] = terms[key] % (p - 1) + 1
        f = Poly(ring, terms)
    sym_x, sym_y, leaders = _block_symmetry(f)
    assert (sym_x, sym_y) == (reference_is_symmetric(f, Block.X), reference_is_symmetric(f, Block.Y))
    assert leaders.terms == {e: c for e, c in f.terms.items() if is_leader(e, m)}
