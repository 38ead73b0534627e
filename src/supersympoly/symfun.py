"""Symmetric function constructors and the classical generator rewrite.

Everything here acts on one variable block (X or Y) of a ring.
``_placements`` is the block-local placement of slot families that
``generators.placed_sym`` runs on both blocks.  ``rewrite_symmetric``
expresses a block-symmetric polynomial as a polynomial in the
elementary symmetric functions of the block, by leading-term
elimination.
"""

from __future__ import annotations

import itertools
from enum import Enum

from .errors import InternalInvariantViolation, NotSymmetricError
from .poly_core import Poly, Ring, _term_key, one, zero


class Block(Enum):
    X = "x"
    Y = "y"


def block_span(ring: Ring, block: Block) -> tuple[int, int]:
    """(offset, size) of the block's slots inside the flat exponent tuple."""
    if block is Block.X:
        return 0, ring.m
    return ring.m, ring.n


def elementary(i: int, block: Block, ring: Ring) -> Poly:
    """i-th elementary symmetric polynomial of the block; 0 when i > size."""
    if i < 0:
        raise ValueError("index must be nonnegative")
    if i == 0:
        return one(ring)
    off, size = block_span(ring, block)
    if i > size:
        return zero(ring)
    terms = {}
    for combo in itertools.combinations(range(size), i):
        exps = [0] * ring.nvars
        for v in combo:
            exps[off + v] = 1
        terms[tuple(exps)] = 1
    return Poly(ring, terms)


def complete(j: int, block: Block, ring: Ring) -> Poly:
    """j-th complete homogeneous symmetric polynomial of the block."""
    if j < 0:
        raise ValueError("index must be nonnegative")
    if j == 0:
        return one(ring)
    off, size = block_span(ring, block)
    if size == 0:
        return zero(ring)
    terms = {}
    for combo in itertools.combinations_with_replacement(range(size), j):
        exps = [0] * ring.nvars
        for v in combo:
            exps[off + v] += 1
        terms[tuple(exps)] = 1
    return Poly(ring, terms)


def _placements(families, size: int) -> dict[tuple, int]:
    """{block exponent tuple: multiplicity} of the ways to put the slots
    of the (value, count) ``families`` on distinct variables of a block
    of ``size``.  Slots of one family are interchangeable, slots of
    different families are not, even when their values coincide.
    """
    fams = [(v, c) for v, c in families if c > 0]
    if any(v < 0 for v, _ in fams):
        raise ValueError("slot values must be nonnegative")
    out: dict[tuple, int] = {}
    if sum(c for _, c in fams) > size:
        return out
    exps = [0] * size

    def rec(fi: int, free: tuple):
        if fi == len(fams):
            key = tuple(exps)
            out[key] = out.get(key, 0) + 1
            return
        value, count = fams[fi]
        for combo in itertools.combinations(free, count):
            for v in combo:
                exps[v] = value
            rec(fi + 1, tuple(v for v in free if v not in combo))
            for v in combo:
                exps[v] = 0

    rec(0, tuple(range(size)))
    return out


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


def rewrite_symmetric(f: Poly, block: Block) -> dict:
    """Express a block-symmetric polynomial over the elementary family.

    Returns {sorted index tuple: coefficient mod p}, where (1, 1, 2)
    stands for e_1^2 e_2, so that f is the sum of coefficient times
    product of ``elementary`` over the terms.  The input must involve
    only the block's variables.  Elimination uses that the graded-lex
    leading exponent of a symmetric polynomial is a partition and that
    the classical exponent difference rule strictly lowers it.
    """
    ring = f.ring
    off, size = block_span(ring, block)
    for exps in f.terms:
        if any(e and not (off <= slot < off + size) for slot, e in enumerate(exps)):
            raise NotSymmetricError("input involves variables outside the block")
    if not is_symmetric(f, block):
        raise NotSymmetricError("input is not symmetric in the block")

    result: dict = {}
    work = f
    while not work.is_zero:
        exps, c = work.leading()
        lam = list(exps[off : off + size])
        if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
            raise InternalInvariantViolation(
                "leading exponent of a symmetric polynomial is not a partition"
            )
        key = []
        sub = c  # an int until the first factor scales it
        for i in range(size):
            d = lam[i] - (lam[i + 1] if i + 1 < size else 0)
            if d:
                key.extend([i + 1] * d)
                sub = elementary(i + 1, block, ring) ** d * sub
        key_t = tuple(sorted(key))
        result[key_t] = (result.get(key_t, 0) + c) % ring.p
        new_work = work - sub
        # This check also ends the loop: graded-lex leading terms of
        # bounded degree cannot decrease forever.
        if not new_work.is_zero and _term_key(new_work.leading()[0]) >= _term_key(exps):
            raise InternalInvariantViolation("leading term did not decrease")
        work = new_work
    return {k: v for k, v in result.items() if v}
