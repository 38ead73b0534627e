import importlib
import math
from collections import Counter

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from supersympoly import (
    Block,
    InternalInvariantViolation,
    Ring,
    complete,
    elementary,
    one,
    parse_poly,
    serialize_gen_expr,
    zero,
)
from supersympoly.decompose import _base_one_block, _decompose
from supersympoly.poly_core import _block_symmetry

from helpers import orbit_sym, reference_is_symmetric

R20 = Ring(2, 0, False, 3)
R22 = Ring(2, 2, False, 3)


def expand_elementary(expr, ring):
    """Evaluate a level (m, 0) certificate with C[r] read as e_r(x),
    through products of ``elementary`` rather than the generators."""
    out = zero(ring)
    for key, c in expr.terms.items():
        term = c * one(ring)
        for (kind, r), e in key:
            assert kind == "C"
            term = term * elementary(r, Block.X, ring) ** e
        out = out + term
    return out


class TestElementary:
    def test_first(self):
        assert elementary(1, Block.X, R20) == parse_poly("x1 + x2", R20)

    def test_beyond_block_size(self):
        assert elementary(3, Block.X, R20).is_zero

    def test_top(self):
        assert elementary(2, Block.X, R20) == parse_poly("x1*x2", R20)

    def test_zeroth(self):
        assert elementary(0, Block.Y, R20) == one(R20)


class TestComplete:
    def test_degree_two(self):
        assert complete(2, Block.Y, R22) == parse_poly("y1^2 + y1*y2 + y2^2", R22)

    def test_zeroth(self):
        assert complete(0, Block.X, R22) == one(R22)

    def test_empty_block(self):
        assert complete(1, Block.Y, R20).is_zero


class TestOrbitSym:
    def test_two_one(self):
        assert orbit_sym((2, 1), Block.X, R20) == parse_poly("x1^2*x2 + x1*x2^2", R20)

    def test_repeated_exponent(self):
        assert orbit_sym((1, 1), Block.X, R20) == parse_poly("x1*x2", R20)

    def test_single_variable(self):
        r = Ring(0, 1, False, 3)
        assert orbit_sym((1,), Block.Y, r) == parse_poly("y1", r)

    def test_zeros_are_dropped(self):
        assert orbit_sym((2, 0, 0), Block.X, R20) == parse_poly("x1^2 + x2^2", R20)

    def test_too_many_parts(self):
        with pytest.raises(ValueError):
            orbit_sym((1, 1, 1), Block.X, R20)


class TestOrbitSymProperties:
    def test_symmetric_unit_coefficients_and_size(self):
        ring = Ring(3, 0, False, 5)
        for exps in [(1,), (2, 1), (1, 1), (3, 1, 1), (2, 2, 1), (4,)]:
            f = orbit_sym(exps, Block.X, ring)
            assert reference_is_symmetric(f, Block.X)
            assert set(f.terms.values()) == {1}
            padded = tuple(exps) + (0,) * (3 - len(exps))
            counts = Counter(padded)
            size = math.factorial(3)
            for c in counts.values():
                size //= math.factorial(c)
            assert len(f.terms) == size


class TestIsSymmetric:
    def test_symmetric_sum(self):
        assert reference_is_symmetric(parse_poly("x1 + x2", R20), Block.X)

    def test_single_variable_not(self):
        assert not reference_is_symmetric(parse_poly("x1", R20), Block.X)

    def test_cross_block(self):
        f = parse_poly("x1*y1 + x2*y1", R22)
        assert reference_is_symmetric(f, Block.X)
        assert not reference_is_symmetric(f, Block.Y)


class TestRewriteSymmetric:
    """The base case of the decomposition: a symmetric polynomial of one
    block, eliminated over the elementary functions into C symbols."""

    def test_power_sum_over_elementary(self):
        f = parse_poly("x1^2 + x2^2", R20)
        expr = _decompose(f, 0)
        # e1^2 - 2 e2, with -2 reduced mod 3
        assert serialize_gen_expr(expr) == "C[1]^2 + C[2]"
        assert expand_elementary(expr, R20) == f

    def test_elementary_is_itself(self):
        f = elementary(2, Block.X, R20)
        assert serialize_gen_expr(_decompose(f, 0)) == "C[2]"

    def test_complete_basis_case(self):
        # h_2 = e_1^2 - e_2, and at (0, n) c_2 = h_2(y); more of the
        # complete family in C symbols is covered in test_decompose
        f = parse_poly("y1^2 + y1*y2 + y2^2", Ring(0, 2, False, 3))
        assert serialize_gen_expr(_decompose(f, 0)) == "C[2]"

    def test_rejects_asymmetric(self, monkeypatch):
        # The work is leader terms, symmetric by construction; what it
        # subtracts enters leader form checked, so a c_1 broken to x1
        # at (2, 0) is refused, not read as x1 + x2.
        decompose_module = importlib.import_module("supersympoly.decompose")
        monkeypatch.setattr(decompose_module, "generator_poly", lambda kind, idx, ring: parse_poly("x1", ring))
        with pytest.raises(InternalInvariantViolation, match="a C monomial's expansion is not block-symmetric"):
            _base_one_block(_block_symmetry(elementary(1, Block.X, R20))[2])


def test_newton_style_convolution():
    # sum_{i=0..j} (-1)^i e_i h_{j-i} = 0 for j >= 1
    for p in (3, 5):
        for n in (1, 2, 3):
            ring = Ring(0, n, False, p)
            for j in range(1, 5):
                acc = zero(ring)
                for i in range(0, j + 1):
                    sign = 1 if i % 2 == 0 else -1
                    acc = acc + sign * (
                        elementary(i, Block.Y, ring) * complete(j - i, Block.Y, ring)
                    )
                assert acc.is_zero


@st.composite
def symmetric_inputs(draw):
    p = draw(st.sampled_from((3, 5)))
    size = draw(st.integers(1, 3))
    ring = Ring(size, 0, False, p)
    family = draw(st.sampled_from((elementary, complete)))
    # random product combinations of the family generators, degree <= 8
    f = zero(ring)
    for _ in range(draw(st.integers(1, 3))):
        coeff = draw(st.integers(1, p - 1))
        term = coeff * one(ring)
        budget = 8
        for _ in range(draw(st.integers(1, 3))):
            idx = draw(st.integers(1, size))
            if idx > budget:
                break
            term = term * family(idx, Block.X, ring)
            budget -= idx
        f = f + term
    return ring, f


@settings(max_examples=40, deadline=None)
@given(symmetric_inputs())
def test_rewrite_round_trip(data):
    ring, f = data
    assert expand_elementary(_decompose(f, 0), ring) == f
