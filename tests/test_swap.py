"""The x <-> y swap: trading the blocks maps the algebra at level (m, n)
onto the one at (n, m), so membership, balance, the two dimension
routines and the certificates must all follow the swap."""

import hypothesis.strategies as st
from hypothesis import given, settings

from supersympoly import (
    Ring,
    as_dimension,
    decompose,
    expand,
    generated_dimension,
    is_p_balanced,
    is_supersymmetric,
    parse_poly,
    placed_sym,
)

from helpers import expansion_cap, gen_exprs, ring_and_polys, swap_certificate, swap_poly


@st.composite
def levels(draw):
    return draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.sampled_from((3, 5)))


@st.composite
def certificates(draw):
    """A small certificate at (m, n), U symbols of weight up to 2p included."""
    m, n, p = draw(levels())
    return draw(gen_exprs(m, n, p, min(expansion_cap(m + n, p), 2 * p), max_terms=3))


@st.composite
def members(draw):
    """A member of the algebra at (m, n): the expansion of a small certificate."""
    e = draw(certificates())
    return expand(e, e.ring)


@st.composite
def block_symmetric(draw):
    """A sum of placed sums: symmetric in both blocks, most often not a member."""
    m, n, p = draw(levels())
    ring = Ring(m, n, False, p)
    families = st.lists(st.tuples(st.integers(0, 4), st.integers(1, 2)), max_size=2)
    f = placed_sym(draw(families), draw(families), ring)
    return f + draw(st.integers(1, p - 1)) * placed_sym(draw(families), draw(families), ring)


@st.composite
def any_poly(draw):
    return draw(ring_and_polys(ps=(3, 5), max_m=3, max_n=3, max_terms=4))[1]


def test_swap_of_a_pinned_non_member():
    ring = Ring(2, 1, False, 3)
    f = parse_poly("x1 + x2 + 2*y1", ring)
    assert swap_poly(f) == parse_poly("y1 + y2 + 2*x1", Ring(1, 2, False, 3))
    assert swap_poly(swap_poly(f)) == f


@settings(max_examples=60, deadline=None)
@given(st.one_of(members(), block_symmetric(), any_poly()))
def test_verdicts_trade_the_block_clauses(f):
    verdict, swapped = is_supersymmetric(f), is_supersymmetric(swap_poly(f))
    assert (swapped.symmetric_x, swapped.symmetric_y) == (verdict.symmetric_y, verdict.symmetric_x)
    assert swapped.derivative_vanishes == verdict.derivative_vanishes
    assert swapped.strict == verdict.strict
    assert is_p_balanced(swap_poly(f)) == is_p_balanced(f)


@settings(max_examples=12, deadline=None)
@given(levels(), st.integers(0, 6))
def test_dimensions_follow_the_swap(level, d):
    m, n, p = level
    assert as_dimension(m, n, p, d) == as_dimension(n, m, p, d)
    assert generated_dimension(m, n, p, d) == generated_dimension(n, m, p, d)


@settings(max_examples=25, deadline=None)
@given(certificates())
def test_a_swapped_certificate_expands_to_the_swapped_input(e):
    """Both a drawn certificate and the one ``decompose`` writes for its
    expansion."""
    ring = e.ring
    f = expand(e, ring)
    for cert in (e, decompose(f)):
        swapped = swap_certificate(cert)
        assert swapped.ring == Ring(ring.n, ring.m, False, ring.p)
        assert expand(swapped, swapped.ring) == swap_poly(f)
