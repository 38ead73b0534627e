"""Membership predicates for the supersymmetric algebra and its variants."""

from __future__ import annotations

from dataclasses import dataclass

from .poly_core import Block, Poly, block_span, psi


@dataclass(frozen=True)
class MembershipVerdict:
    """Outcome of the three clause membership test, with strictness:
    the x_m = y_n = T image does not involve T at all."""

    symmetric_x: bool
    symmetric_y: bool
    derivative_vanishes: bool
    strict: bool

    @property
    def overall(self) -> bool:
        return self.symmetric_x and self.symmetric_y and self.derivative_vanishes


def is_symmetric(f: Poly, block: Block) -> bool:
    """Invariance under every adjacent transposition inside the block."""
    off, size = block_span(f.ring, block)
    for i in range(size - 1):
        a, b = off + i, off + i + 1
        for exps, c in f.terms.items():
            if exps[a] == exps[b]:
                continue
            swapped = list(exps)
            swapped[a], swapped[b] = swapped[b], swapped[a]
            if f.terms.get(tuple(swapped)) != c:
                return False
    return True


def is_supersymmetric(f: Poly) -> MembershipVerdict:
    """Test symmetry in both blocks and vanishing of d/dT after x_m = y_n = T.

    d/dT kills exactly the T powers divisible by p, so one scan of the
    image's T exponents decides the derivative clause and strictness.
    When one block is empty there is no x/y pair to merge into T, so the
    derivative clause is vacuously satisfied and membership is strict.
    """
    ring = f.ring
    if ring.has_t:
        raise ValueError("membership applies to polynomials without T")
    sym_x = is_symmetric(f, Block.X)
    sym_y = is_symmetric(f, Block.Y)
    t_exps = {0} if ring.m == 0 or ring.n == 0 else {exps[-1] for exps in psi(f).terms}
    deriv = all(e % ring.p == 0 for e in t_exps)
    return MembershipVerdict(sym_x, sym_y, deriv, sym_x and sym_y and t_exps <= {0})


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
