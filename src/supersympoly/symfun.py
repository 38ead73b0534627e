"""Symmetric function constructors and the classical generator rewrite.

Everything here acts on one variable block (X or Y) of a ring.  The
orbit sum ``orbit_sym`` is the monomial symmetric function: each
distinct monomial of the exponent orbit appears once with coefficient
one.  ``rewrite_symmetric`` expresses a block-symmetric polynomial as a
formal polynomial in either the elementary or the complete homogeneous
family, by leading-term elimination.
"""

from __future__ import annotations

import itertools
from enum import Enum
from functools import lru_cache

from .errors import InternalInvariantViolation, NotSymmetricError
from .poly_core import Poly, Ring, one, zero, _term_key


class Block(Enum):
    X = "x"
    Y = "y"


class Family(Enum):
    ELEMENTARY = "elementary"
    COMPLETE = "complete"


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


def _distinct_permutations(values: tuple):
    """Yield the distinct orderings of a multiset, lexicographically."""
    pool = sorted(values)
    size = len(pool)

    def rec(remaining: list, prefix: list):
        if len(prefix) == size:
            yield tuple(prefix)
            return
        seen = set()
        for idx, v in enumerate(remaining):
            if v in seen:
                continue
            seen.add(v)
            yield from rec(remaining[:idx] + remaining[idx + 1 :], prefix + [v])

    yield from rec(pool, [])


def orbit_sym(exponents, block: Block, ring: Ring) -> Poly:
    """Monomial symmetric function of an exponent multiset (zeros dropped)."""
    off, size = block_span(ring, block)
    exps = tuple(e for e in exponents if e > 0)
    if any(e < 0 for e in exponents):
        raise ValueError("exponents must be natural numbers")
    if len(exps) > size:
        raise ValueError(
            f"{len(exps)} nonzero exponents do not fit in a block of size {size}"
        )
    padded = exps + (0,) * (size - len(exps))
    terms = {}
    for arrangement in _distinct_permutations(padded):
        full = [0] * ring.nvars
        for v, e in enumerate(arrangement):
            full[off + v] = e
        terms[tuple(full)] = 1
    return Poly(ring, terms)


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


# -- formal polynomials in family symbols --------------------------------
#
# A family expression is a dict mapping a sorted tuple of generator
# indices (a multiset, e.g. (1, 1, 2) for e1^2*e2) to a coefficient.


def _fam_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        nv = out.get(k, 0) + v
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)
    return out


def _fam_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            k = tuple(sorted(k1 + k2))
            nv = out.get(k, 0) + v1 * v2
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
    return out


@lru_cache(maxsize=None)
def _elementary_in_complete(r: int) -> tuple:
    """e_r as an integer polynomial in h_1..h_r, as frozen dict items.

    Uses the convolution identity sum_{i=0..r} (-1)^i e_i h_{r-i} = 0,
    valid in any number of variables.
    """
    if r == 0:
        return (((), 1),)
    acc: dict = {}
    for i in range(1, r + 1):
        sign = 1 if (i - 1) % 2 == 0 else -1
        prev = dict(_elementary_in_complete(r - i))
        term = _fam_mul({(i,): sign}, prev)
        acc = _fam_add(acc, term)
    return tuple(sorted(acc.items()))


def family_poly(index: int, family: Family, block: Block, ring: Ring) -> Poly:
    if family is Family.ELEMENTARY:
        return elementary(index, block, ring)
    return complete(index, block, ring)


def expand_family_expr(expr: dict, family: Family, block: Block, ring: Ring) -> Poly:
    """Evaluate a family expression back to a concrete polynomial."""
    out = zero(ring)
    cache: dict[int, Poly] = {}
    for key, c in expr.items():
        term = c  # an int until the first factor scales it
        for idx in key:
            g = cache.get(idx)
            if g is None:
                g = family_poly(idx, family, block, ring)
                cache[idx] = g
            term = g * term
        out = out + term
    return out


def rewrite_symmetric(f: Poly, block: Block, family: Family) -> dict:
    """Express a block-symmetric polynomial over a generating family.

    Returns a family expression E with expand_family_expr(E) == f.  The
    input must involve only the block's variables.  Elimination works in
    the elementary family, where the graded-lex leading exponent of a
    symmetric polynomial is a partition and the classical exponent
    difference rule strictly lowers it; the complete family is reached
    by substituting each e_r with its h-expansion afterwards.
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
    result = {k: v for k, v in result.items() if v}

    if family is Family.ELEMENTARY:
        return result

    # substitute e_r -> polynomial in h_1..h_r
    out: dict = {}
    for key, c in result.items():
        term = {(): c}
        for idx in key:
            term = _fam_mul(term, dict(_elementary_in_complete(idx)))
        out = _fam_add(out, term)
    return {k: v % ring.p for k, v in out.items() if v % ring.p}
