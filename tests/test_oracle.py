import pytest

from supersympoly import (
    Block,
    Ring,
    as_dimension,
    cr_generating_check,
    generated_dimension,
    kseq,
    brace_identity_check,
    round_identity_check,
)
from supersympoly import Poly, genexpr, psi
from supersympoly.oracle import _restrictions, partitions_max_parts

from helpers import hook_partition_count, orbit_sym, reference_as_dimension, symmetric_basis


def _partition_count(total, max_parts):
    return sum(1 for _ in partitions_max_parts(total, max_parts))


class TestAsDimension:
    def test_constants(self):
        assert as_dimension(1, 1, 3, 0) == 1

    def test_degree_one(self):
        # two dimensional symmetric space, one derivative constraint
        assert as_dimension(1, 1, 3, 1) == 1

    def test_no_constraint_without_x(self):
        assert as_dimension(0, 2, 3, 2) == 2

    def test_m_zero_matches_partition_counts(self):
        for n in (1, 2, 3):
            for d in range(0, 7):
                assert as_dimension(0, n, 3, d) == _partition_count(d, n)

    def test_basis_size_counts_partition_pairs(self):
        m, n, d = 2, 2, 5
        count = sum(
            _partition_count(dx, m) * _partition_count(d - dx, n)
            for dx in range(d + 1)
        )
        assert len(symmetric_basis(m, n, 3, d)) == count

    def test_basis_elements_are_orbit_sum_products(self):
        for m, n, p, d in [(2, 2, 3, 5), (1, 2, 5, 4), (3, 1, 3, 6), (0, 2, 3, 3), (2, 0, 5, 3)]:
            ring = Ring(m, n, False, p)
            expected = [
                orbit_sym(lam, Block.X, ring) * orbit_sym(mu, Block.Y, ring)
                for dx in range(d + 1)
                for lam in partitions_max_parts(dx, m)
                for mu in partitions_max_parts(d - dx, n)
            ]
            assert symmetric_basis(m, n, p, d) == expected

    def test_agrees_with_the_polynomial_route(self):
        # the reference builds every basis product and maps it through psi and d_dT
        cells = 0
        for p in (3, 5, 7):
            for m in range(4):
                for n in range(4):
                    for d in range(12):
                        assert as_dimension(m, n, p, d) == reference_as_dimension(m, n, p, d), (m, n, p, d)
                        cells += 1
        assert cells == 576

    def test_restriction_identity(self):
        # m_lam at x_m = T is the sum of T^a m_(lam less a) over _restrictions(lam, m),
        # in either block
        for m, n, p in [(1, 1, 3), (2, 1, 5), (1, 2, 3), (3, 2, 3), (2, 3, 7), (3, 3, 5)]:
            ring, ring_t = Ring(m, n, False, p), Ring(m - 1, n - 1, True, p)

            def t_power(a):
                return Poly(ring_t, {(0,) * (m + n - 2) + (a,): 1})

            for block, size in ((Block.X, m), (Block.Y, n)):
                for total in range(8):
                    for lam in partitions_max_parts(total, size):
                        expected = Poly(ring_t, {})
                        for a, rest in _restrictions(lam, size):
                            expected = expected + t_power(a) * orbit_sym(rest, block, ring_t)
                        assert psi(orbit_sym(lam, block, ring)) == expected, (m, n, p, block, lam)


class TestGeneratedDimension:
    def test_degree_zero(self):
        # a real span of the one degree-0 generator monomial, at every level
        for m in range(4):
            for n in range(4):
                for p in (3, 5, 7):
                    assert generated_dimension(m, n, p, 0) == 1, (m, n, p)

    def test_degree_one(self):
        assert generated_dimension(1, 1, 3, 1) == 1

    def test_agreement_sample(self):
        for p in (3, 5):
            for d in range(0, 7):
                assert as_dimension(1, 1, p, d) == generated_dimension(1, 1, p, d)

    def test_agreement_beyond_the_criterion_4_grid(self):
        # criterion 4 stops at m, n <= 2; these levels have a block of three
        for m, n, p, dmax in [(3, 3, 3, 9), (3, 2, 3, 10), (2, 3, 5, 10), (3, 1, 5, 10), (1, 3, 3, 10)]:
            for d in range(dmax + 1):
                assert as_dimension(m, n, p, d) == generated_dimension(m, n, p, d), (m, n, p, d)


class TestHookPartitions:
    """A third dimension count, from partitions alone."""

    def test_all_three_agree_below_p(self):
        cells = 0
        for p in (3, 5, 7, 11, 13):
            for m, n in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)]:
                for d in range(min(p, 11)):
                    hook = hook_partition_count(d, m, n)
                    assert as_dimension(m, n, p, d) == generated_dimension(m, n, p, d) == hook, (m, n, p, d)
                    cells += 1
        assert cells == 185

    def test_hook_count_is_a_lower_bound_from_p_on(self):
        # criterion 4's cells: p-th powers add dimensions from degree p
        above = equal = 0
        for p in (3, 5):
            for m, n in [(1, 1), (2, 1), (1, 2), (2, 2)]:
                for d in range(p, 13):
                    dim, hook = as_dimension(m, n, p, d), hook_partition_count(d, m, n)
                    assert dim >= hook, (m, n, p, d)
                    above += dim > hook
                    equal += dim == hook
        assert (above, equal) == (60, 12)

    def test_hook_count_is_a_lower_bound_at_large_p(self):
        # dim - hook for d = p, p + 1, p + 2; the same at p = 11 and 13
        excess = {(1, 1): (1, 0, 0), (2, 1): (1, 1, 1), (1, 2): (1, 1, 1), (2, 2): (1, 1, 2)}
        cells = [(m, n, p, d, excess[m, n][d - p])
                 for p in (11, 13) for m, n in excess for d in range(p, p + 3)]
        # p = 101 only where a cell stays cheap: (2, 1, 101, 101) is 2552 against 2551
        cells += [(1, 1, 101, d, excess[1, 1][d - 101]) for d in range(101, 104)]
        cells += [(2, 1, 101, 101, 1)]
        for m, n, p, d, extra in cells:
            assert as_dimension(m, n, p, d) - hook_partition_count(d, m, n) == extra, (m, n, p, d)
        above = sum(extra > 0 for *_, extra in cells)
        assert (above, len(cells) - above) == (22, 6)


def test_negative_degree_is_refused():
    for dimension in (as_dimension, generated_dimension):
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            dimension(1, 1, 3, -1)
    # the refused span build leaves neither a cache entry nor a lock
    assert (1, 1, 3, -1) not in genexpr._SPANS.values
    assert (1, 1, 3, -1) not in genexpr._SPANS.locks


@pytest.mark.parametrize("m, n, p", [
    (1, 1, 4), (0, 2, 4), (2, 0, 4), (0, 0, 9),
    (-1, 1, 3), (-1, 0, 3), (1, -1, 3), (0, -1, 5),
    (1.0, 1, 3), (1.0, 0, 3), (0, 1.0, 3), (2, 2, 3.0),
])
def test_bad_level_is_refused(m, n, p):
    """Both dimensions refuse a level that ``Ring`` refuses, at every
    degree, including where a block is empty."""
    for dimension in (as_dimension, generated_dimension):
        for d in (0, 3):
            with pytest.raises(ValueError):
                dimension(m, n, p, d)


class TestGeneratingFunctionCheck:
    def test_small_levels(self):
        assert cr_generating_check(1, 1, 3, 4)
        assert cr_generating_check(2, 1, 5, 5)

    def test_truncation_guard(self):
        with pytest.raises(ValueError):
            cr_generating_check(2, 1, 3, 2)


class TestBracketIdentities:
    def test_brace_example(self):
        assert brace_identity_check((), 1, 0, 2, 1, kseq(3, 1))

    def test_round_example(self):
        assert round_identity_check((), 0, 1, 1, kseq(3, 1))

    def test_collision_cases(self):
        ks = kseq(3, 2)
        assert brace_identity_check((1,), 1, 0, 2, 2, ks)
        assert round_identity_check((), 1, 2, 2, ks)
