"""Membership predicates for the supersymmetric algebra and its variants."""

from __future__ import annotations

from dataclasses import dataclass

from .poly_core import Block, Poly, block_span, d_dT, psi


@dataclass(frozen=True)
class MembershipVerdict:
    """Outcome of the three clause membership test."""

    symmetric_x: bool
    symmetric_y: bool
    derivative_vanishes: bool

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

    When one block is empty there is no x/y pair to merge into T, so the
    derivative clause is vacuously satisfied.
    """
    ring = f.ring
    if ring.has_t:
        raise ValueError("membership applies to polynomials without T")
    sym_x = is_symmetric(f, Block.X)
    sym_y = is_symmetric(f, Block.Y)
    if ring.m == 0 or ring.n == 0:
        deriv = True
    else:
        deriv = d_dT(psi(f)).is_zero
    return MembershipVerdict(sym_x, sym_y, deriv)


def is_strictly_supersymmetric(f: Poly) -> bool:
    """True iff f is supersymmetric and its x_m = y_n = T image does not
    involve T at all.  With one block empty there is no image, and strict
    membership is membership."""
    ring = f.ring
    return is_supersymmetric(f).overall and (
        ring.m == 0 or ring.n == 0 or all(exps[-1] == 0 for exps in psi(f).terms)
    )


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
