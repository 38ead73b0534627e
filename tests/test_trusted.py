"""Values the package builds itself skip the validating constructors
``Poly(...)`` and ``GenExpr(...)`` and go through the trusted
``poly_core._clean``.  Each such producer must still return a canonical
value: rebuilding it through the validating door gives the same value,
and it holds no zero coefficient."""

import hypothesis.strategies as st
from hypothesis import given, settings

from supersympoly import (
    Block,
    GenExpr,
    Poly,
    Ring,
    complete,
    decompose,
    elementary,
    expand,
    one,
    parse_poly,
    psi,
    u_k,
    zero,
)
from supersympoly.decompose import _core_term, _decompose
from supersympoly.oracle import _t_monomial, _truncate_t

from helpers import expansion_cap, gen_exprs, ring_and_polys


def assert_canonical_poly(f):
    assert 0 not in f.terms.values()
    assert f == Poly(f.ring, f.terms)


def assert_canonical_gen_expr(e):
    ring = e.ring
    assert 0 not in e.terms.values()
    assert e == GenExpr(ring.m, ring.n, ring.p, e.terms)


@st.composite
def rings(draw):
    m, n = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return Ring(m, n, draw(st.booleans()), draw(st.sampled_from((3, 5))))


def test_psi_drops_the_sums_that_cancel():
    # x2 and y2 both become T, so x2 - y2 leaves a zero sum at T
    image = psi(parse_poly("x1*y2 - x2*y1 + x2 - y2", Ring(2, 2, False, 3)))
    assert image == parse_poly("x1*T - y1*T", Ring(1, 1, True, 3))
    assert_canonical_poly(image)
    assert psi(parse_poly("x1 - y1", Ring(1, 1, False, 3))).is_zero


@settings(max_examples=60, deadline=None)
@given(ring_and_polys(ps=(3, 5), min_m=1, max_m=3, min_n=1, max_n=3, max_terms=8))
def test_psi_is_canonical(drawn):
    _, f = drawn
    assert_canonical_poly(psi(f))


@settings(max_examples=60, deadline=None)
@given(rings(), st.integers(0, 4), st.sampled_from((Block.X, Block.Y)), st.integers(-12, 12))
def test_block_sums_constants_and_cores_are_canonical(ring, i, block, c):
    for f in (elementary(i, block, ring), complete(i, block, ring), zero(ring), one(ring)):
        assert_canonical_poly(f)
        assert_canonical_poly(f + c)  # Poly._constant, a multiple of p included
    if ring.n:
        for k in range(1, ring.p):
            assert_canonical_poly(u_k(k, ring))


@settings(max_examples=40, deadline=None)
@given(ring_and_polys(ps=(3, 5), max_m=3, max_n=3, has_t=True, max_terms=8), st.integers(0, 4))
def test_truncate_t_is_canonical(drawn, R):
    _, f = drawn
    assert_canonical_poly(_truncate_t(f, R))


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(1, 3), st.sampled_from((3, 5)), st.integers(0, 12))
def test_t_monomials_are_canonical(data, m, n, p, e):
    """T^e, alone or times one variable, as the oracle's identity checks build it."""
    ring = Ring(m, n, True, p)
    slot = data.draw(st.none() | st.integers(0, ring.nvars - 2))
    f = _t_monomial(ring, e, slot)
    assert_canonical_poly(f)
    [(exps, c)] = f.terms.items()
    assert c == 1 and exps[-1] == e
    assert exps[:-1] == tuple(int(i == slot) for i in range(ring.nvars - 1))


@st.composite
def members(draw):
    m, n, p = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.sampled_from((3, 5)))
    e = draw(gen_exprs(m, n, p, min(expansion_cap(m + n, p), p + 1), max_terms=3))
    return expand(e, Ring(m, n, False, p))


@settings(max_examples=40, deadline=None)
@given(members())
def test_certificates_are_canonical(f):
    """Both engines and the pure recursion (span limit 0), which reaches
    the lift, the peel, the constant and the one-block base case."""
    for e in (decompose(f), _decompose(f, 0)):
        assert_canonical_gen_expr(e)
        assert expand(e, f.ring) == f


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.sampled_from((3, 5)), st.integers(1, 16), st.integers(0, 16))
def test_peeled_core_terms_are_canonical(m, n, p, a, b):
    """The peel builds its core term trusted; the term expands to the
    core it stands for."""
    b += -(a + b) % p  # a + b divisible by p, as every peeled core is
    ring = Ring(m, n, False, p)
    term = _core_term(ring, a, b)
    assert_canonical_gen_expr(term)
    assert expand(term, ring) == Poly(ring, {(a,) * m + (b,) * n: 1})
