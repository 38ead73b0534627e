"""Symmetric function constructors on one variable block (X or Y).

``_placements`` is the block-local placement of slot families that
``generators.placed_sym`` runs on both blocks.  ``elementary`` also
serves ``decompose._base_one_block``, which eliminates a symmetric
polynomial of one block over the elementary functions.
"""

from __future__ import annotations

import itertools
from enum import Enum

from .poly_core import Poly, Ring, one, zero


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
