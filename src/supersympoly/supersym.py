"""Membership predicates for the supersymmetric algebra and its variants."""

from __future__ import annotations

from dataclasses import dataclass, field

from .poly_core import Poly, _block_symmetry, psi


@dataclass(frozen=True)
class MembershipVerdict:
    """Outcome of the three clause membership test, with strictness:
    the x_m = y_n = T image does not involve T at all.  ``leaders`` is
    f's terms whose x block and y block are each nonincreasing, from the
    same block-symmetry pass: its leader terms when both blocks hold,
    which ``decompose`` reads."""

    symmetric_x: bool
    symmetric_y: bool
    derivative_vanishes: bool
    strict: bool
    leaders: Poly = field(repr=False, compare=False)

    @property
    def overall(self) -> bool:
        return self.symmetric_x and self.symmetric_y and self.derivative_vanishes


def is_supersymmetric(f: Poly) -> MembershipVerdict:
    """Test symmetry in both blocks and vanishing of d/dT after x_m = y_n = T.

    One ``_block_symmetry`` pass decides both blocks.  d/dT kills exactly
    the T powers divisible by p, so one scan of the image's T exponents
    decides the derivative clause and strictness.  When one block is
    empty there is no x/y pair to merge into T, so the derivative clause
    is vacuously satisfied and membership is strict.
    """
    ring = f.ring
    if ring.has_t:
        raise ValueError("membership applies to polynomials without T")
    sym_x, sym_y, leaders = _block_symmetry(f)
    t_exps = {0} if ring.m == 0 or ring.n == 0 else {exps[-1] for exps in psi(f).terms}
    deriv = all(e % ring.p == 0 for e in t_exps)
    return MembershipVerdict(sym_x, sym_y, deriv, sym_x and sym_y and t_exps <= {0}, leaders)


def _restrictions(lam: tuple, size: int) -> list[tuple]:
    """(a, lam less one part a) for each distinct value a of lam padded
    with zeros to ``size`` parts: m_lam(x_1..x_size) at x_size = T is the
    sum of T^a m_(lam less a)(x_1..x_(size-1)) (README "Design notes").
    A nonincreasing lam stays nonincreasing less a part."""
    pairs = [(a, lam[:(at := lam.index(a))] + lam[at + 1:]) for a in sorted(set(lam))]
    return pairs + [(0, lam)] if len(lam) < size else pairs


def _leader_derivative_vanishes(f: Poly) -> bool:
    """The derivative clause of ``is_supersymmetric`` from the leader
    terms ``f`` of a block-symmetric polynomial (``poly_core._LeaderTerms``).

    Each leader term is c * m_lam(x) m_mu(y), whose image under
    x_m = y_n = T is the sum of c * T^(a+b) m_(lam less a)(x') m_(mu less
    b)(y') over the restriction pairs of both blocks.  Those products
    with distinct labels and T powers are independent, so the clause
    holds iff the summed coefficient of every label with a T power
    outside pZ is 0 mod p.  With one block empty there is no pair and
    the clause holds."""
    m, n, p = f.ring.m, f.ring.n, f.ring.p
    blocks: dict = {}  # block -> its restriction pairs
    sums: dict = {}
    for exps, c in f.terms.items():
        x, y = exps[:m], exps[m:]
        xs = blocks.get(x) or blocks.setdefault(x, _restrictions(x, m))
        ys = blocks.get(y) or blocks.setdefault(y, _restrictions(y, n))
        for a, xr in xs:
            for b, yr in ys:
                if (a + b) % p:
                    key = xr + yr + (a + b,)
                    sums[key] = sums.get(key, 0) + c
    return all(c % p == 0 for c in sums.values())


def is_strictly_supersymmetric(f: Poly) -> bool:
    """True iff f is supersymmetric and its x_m = y_n = T image does not
    involve T at all.  With one block empty there is no image, and strict
    membership is membership."""
    return is_supersymmetric(f).strict


def is_p_balanced(f: Poly) -> bool:
    """True iff p divides every cross sum of an x-exponent and a y-exponent.

    The condition is checked per stored term, zero exponents included.
    It is equivalent to each term's x-exponents sharing one residue c
    mod p while all its y-exponents are congruent to -c.
    """
    ring = f.ring
    if ring.has_t:
        raise ValueError("balance applies to polynomials without T")
    m, p = ring.m, ring.p
    return all((a + b) % p == 0 for exps in f.terms for a in exps[:m] for b in exps[m:])
