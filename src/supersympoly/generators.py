"""Named generator families and the explicit lift construction.

Four polynomial families generate the algebra:

* ``c_r``: the alternating convolution of elementary symmetric functions
  of the x block with complete homogeneous functions of the y block,
  c_r = sum_{i} (-1)^(r-i) sigma_i(x) h_{r-i}(y).
* ``sigma_x_p`` / ``sigma_y_p``: p-th powers of elementary symmetric
  polynomials of one block, built as the placed sums they equal over
  F_p.
* ``u_k``: the core product (x_1...x_m)^k (y_1...y_n)^(p-k).

``elementary`` and ``complete`` build the one-block functions of c_r.
``core_exponents`` states what a core is, for ``u_k`` and for the peel
in ``decompose``; ``generator_poly`` reads the four families from one
table.

On top of these sits the combinatorial apparatus that lifts the core
u_k(m-1|n) to a supersymmetric polynomial v_k at level (m, n): exponent
sequences (KSeq), delta sequences (nondecreasing int tuples with entries
in [1, s-1]), and three bracket families built from placed
symmetrizations.

A bracket is one "placed" symmetric sum over both blocks, described by
slot families (value, count) for each block.  Its monomials are obtained
by assigning all slots to distinct variables of their block, where slots of
the same family are interchangeable but slots of different families are
distinguished even when their exponent values happen to coincide.  In
the generic case this is exactly the monomial symmetric function; when
two families carry equal values (which happens only for k = p-1) the
colliding monomials pick up integer multiplicities.  Those
multiplicities are essential: with plain orbit sums the lift identities
fail at k = p-1, with placed sums they hold for every 0 < k < p.
Zero-valued slots still occupy a variable, which matters when the tail
exponent k_p vanishes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .poly_core import Block, Poly, Ring, _clean, _int, _Memo, block_span, fp_inv, zero


# -- exponent bookkeeping -------------------------------------------------


@dataclass(frozen=True)
class KSeq:
    """Derived exponents for a fixed 0 < k < p.

    s = ceil(k / (p-k)); kvals[i] = (i+1)k - ip for 0 <= i < s; and the
    tail exponent kp = sp - (s+1)k.  The relations
    kvals[i] + (p-k) = kvals[i-1], kp + k = s(p-k) and
    kvals[i] + kp = (s-i)(p-k) drive every bracket identity below.
    They follow from the definitions for any ints 0 < k < p, as do
    1 <= s <= k < p, kvals[0] = k, every kvals[i] > 0 and kp >= 0: the
    least, kvals[s-1] = p - s(p-k), is positive because s(p-k) < p,
    and kp = s(p-k) - k >= 0 because s >= k/(p-k).  So none is checked
    at construction; ``tests/test_generators.py`` checks all nine for
    every prime p < 200 and every k.
    """

    p: int
    k: int
    s: int
    kvals: tuple
    kp: int


def kseq(p: int, k: int) -> KSeq:
    """Build the exponent data for 0 < k < p."""
    p, k = _int(p, "p"), _int(k, "k")
    if not 0 < k < p:
        raise ValueError(f"k must satisfy 0 < k < p, got k={k}, p={p}")
    s = -(-k // (p - k))  # ceil(k / (p - k))
    kvals = tuple((i + 1) * k - i * p for i in range(s))
    return KSeq(p, k, s, kvals, s * p - (s + 1) * k)


def enumerate_deltas(s: int) -> list[tuple]:
    """All delta sequences for the given s: the nondecreasing tuples
    with entries in [1, s-1] and length at most s-1, the empty tuple
    included, ordered by (weight, length, entries).
    """
    _int(s, "s", 1)
    found = [delta for length in range(s)
             for delta in itertools.combinations_with_replacement(range(1, s), length)]
    return sorted(found, key=lambda d: (sum(d), len(d), d))


# -- placed symmetrization -------------------------------------------------


def _placements(families, size: int) -> dict[tuple, int]:
    """{block exponent tuple: multiplicity} of the ways to put the slots
    of the (value, count) ``families`` on distinct variables of a block
    of ``size``.  Slots of one family are interchangeable, slots of
    different families are not, even when their values coincide.
    """
    fams = [(_int(v, "slot value", 0), c) for v, c in families if _int(c, "slot count", 0)]
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


def placed_sym(xfams, yfams, ring: Ring) -> Poly:
    """Sum over assignments of slot families to distinct block variables.

    ``xfams`` and ``yfams`` are sequences of (value, count) pairs placed
    on the x and the y block.  Families with count 0 are skipped; if a
    block's slots outnumber its variables the sum is empty.  Families
    are never merged, so equal values in different families contribute
    multiplicities, and a zero-valued slot still occupies a variable.
    The T slot, if any, is zero.
    """
    xs = _placements(xfams, ring.m)
    ys = _placements(yfams, ring.n)
    pad = (0,) if ring.has_t else ()
    p = ring.p
    terms = {}
    for xe, a in xs.items():
        for ye, b in ys.items():
            c = a * b % p
            if c:
                terms[xe + ye + pad] = c
    return _clean(ring, terms)


# -- the generator families ------------------------------------------------


def _block_sum(choose, degree: int, block: Block, ring: Ring) -> Poly:
    """Sum, each with coefficient 1, of the block monomials of the given
    degree whose variable indices form a tuple that ``choose``
    (``itertools.combinations`` or ``combinations_with_replacement``)
    yields.  Degree 0 yields the empty tuple alone, which gives 1."""
    _int(degree, "index", 0)
    off, size = block_span(ring, block)
    terms = {}
    for combo in choose(range(size), degree):
        exps = [0] * ring.nvars
        for v in combo:
            exps[off + v] += 1
        terms[tuple(exps)] = 1
    return _clean(ring, terms)


def elementary(i: int, block: Block, ring: Ring) -> Poly:
    """i-th elementary symmetric polynomial of the block; 0 when i > size."""
    return _block_sum(itertools.combinations, i, block, ring)


def complete(j: int, block: Block, ring: Ring) -> Poly:
    """j-th complete homogeneous symmetric polynomial of the block."""
    return _block_sum(itertools.combinations_with_replacement, j, block, ring)


def c_r(r: int, ring: Ring) -> Poly:
    """sum_{0 <= i <= min(r, m)} (-1)^(r-i) sigma_i(x) h_(r-i)(y), written
    from its monomials: no two products of an x monomial of degree i and
    a y monomial of degree r - i coincide, so each is one term."""
    _int(r, "index", 0)
    m, p = ring.m, ring.p
    terms = {}
    for i in range(0, min(r, m) + 1):
        sign = 1 if (r - i) % 2 == 0 else p - 1
        ys = complete(r - i, Block.Y, ring).terms
        for ex in elementary(i, Block.X, ring).terms:
            for ey in ys:
                terms[ex[:m] + ey[m:]] = sign
    return _clean(ring, terms)


def sigma_x_p(i: int, ring: Ring) -> Poly:
    """sigma_i(x)^p, which over F_p is the Frobenius sum
    sigma_i(x_1^p, ..., x_m^p): i slots of value p on the x block."""
    if not 1 <= _int(i, "index") <= ring.m:
        raise ValueError(f"index {i} out of range for m={ring.m}")
    return placed_sym([(ring.p, i)], [], ring)


def sigma_y_p(j: int, ring: Ring) -> Poly:
    """sigma_j(y)^p = sigma_j(y_1^p, ..., y_n^p) over F_p."""
    if not 1 <= _int(j, "index") <= ring.n:
        raise ValueError(f"index {j} out of range for n={ring.n}")
    return placed_sym([], [(ring.p, j)], ring)


def core_exponents(ring: Ring, a: int, b: int) -> tuple:
    """Exponent tuple of the core (x_1...x_m)^a (y_1...y_n)^b in ``ring``,
    T slot 0: the monomial of ``u_k`` and the divisor of a peel."""
    return (a,) * ring.m + (b,) * ring.n + (0,) * ring.has_t


def u_k(k: int, ring: Ring) -> Poly:
    """(x_1...x_m)^k (y_1...y_n)^(p-k) for 0 < k < p; needs n >= 1."""
    p = ring.p
    if not 0 < _int(k, "k") < p:
        raise ValueError(f"u_k needs 0 < k < p, got k={k}")
    if ring.n < 1:
        raise ValueError("u_k needs at least one y variable")
    return _clean(ring, {core_exponents(ring, k, p - k): 1})


# -- bracket families --------------------------------------------------------
#
# All three brackets live at the level (M, N) = (ring.m, ring.n) of the
# ring they are built in.  Out-of-range index combinations yield the
# zero polynomial, which is what makes the extended summation ranges in
# w_poly legitimate.


def _delta_x_families(delta: tuple, ks: KSeq):
    if not all(1 <= _int(i, "delta entry") < ks.s for i in delta):
        raise ValueError(f"delta {delta} has entries outside [1, s-1] for s={ks.s}")
    return [(ks.kvals[i], delta.count(i)) for i in sorted(set(delta))]


def bracket_round(delta: tuple, j: int, ks: KSeq, ring: Ring) -> Poly:
    """x slots: k repeated (M-t) with the delta exponents; y slots:
    (p-k) repeated (N-j-1) and one tail slot kp.  Zero unless
    0 <= t <= M and 0 <= j < N."""
    M, N = ring.m, ring.n
    t, j = len(delta), _int(j, "j")
    if not (0 <= t <= M and 0 <= j < N):
        return zero(ring)
    xfams = [(ks.k, M - t)] + _delta_x_families(delta, ks)
    return placed_sym(xfams, [(ks.p - ks.k, N - j - 1), (ks.kp, 1)], ring)


def bracket_square(delta: tuple, j: int, ks: KSeq, ring: Ring) -> Poly:
    """Like the round bracket but with a plain (p-k) tail of length N-j.
    Zero unless 0 <= t <= M and 0 <= j <= N; j = N empties the y part."""
    M, N = ring.m, ring.n
    t, j = len(delta), _int(j, "j")
    if not (0 <= t <= M and 0 <= j <= N):
        return zero(ring)
    xfams = [(ks.k, M - t)] + _delta_x_families(delta, ks)
    return placed_sym(xfams, [(ks.p - ks.k, N - j)], ring)


def bracket_brace(delta: tuple, l: int, j: int, ks: KSeq, ring: Ring) -> Poly:
    """x slots: k repeated (M-t-1), one slot l(p-k), the delta exponents;
    y slots: (p-k) repeated (N-j).  Zero unless 0 <= t < M and
    0 <= j <= N; any l >= 0 is allowed."""
    M, N = ring.m, ring.n
    t, j, l = len(delta), _int(j, "j"), _int(l, "l", 0)
    if not (0 <= t < M and 0 <= j <= N):
        return zero(ring)
    xfams = [(ks.k, M - t - 1), (l * (ks.p - ks.k), 1)] + _delta_x_families(delta, ks)
    return placed_sym(xfams, [(ks.p - ks.k, N - j)], ring)


# -- the lift ---------------------------------------------------------------


def w_poly(ks: KSeq, ring: Ring) -> Poly:
    """The signed double sum of brackets whose x_m = y_n = T image
    collapses, modulo the kernel of d/dT, to a single bracket term.

    Both sums run over every delta sequence; the zero conventions of the
    bracket constructors prune the out-of-range combinations.
    """
    if ring.m < 1 or ring.n < 1:
        raise ValueError("the lift v_k needs m >= 1 and n >= 1")
    s = ks.s
    deltas = enumerate_deltas(s)
    total = zero(ring)
    for l in range(1, s):
        for delta in deltas:
            weight = sum(delta)
            sign = 1 if (weight + s + l) % 2 == 0 else -1
            coeff = sign * (s - l)
            total = total + coeff * bracket_brace(delta, l, l - weight, ks, ring)
    for delta in deltas:
        weight = sum(delta)
        sign = 1 if weight % 2 == 0 else -1
        total = total + sign * bracket_round(delta, s - 1 - weight, ks, ring)
    return total


def v_k(ks: KSeq, ring: Ring) -> Poly:
    """Supersymmetric lift of the core u_k(m-1|n) to level (m, n).

    v = ((-1)^s / s) w + Sym_m(x^k repeated m-1) (y_1...y_n)^(p-k).
    It is block symmetric, homogeneous of degree (m-1)k + (p-k)n, its
    x_m = y_n = T image is killed by d/dT, and setting x_m = 0 recovers
    u_k(m-1|n) exactly.  Invertibility of s uses s < p.  Needs m, n >= 1
    (``w_poly`` checks).
    """
    p = ring.p
    sign = 1 if ks.s % 2 == 0 else -1
    scalar = (sign * fp_inv(ks.s, p)) % p
    return scalar * w_poly(ks, ring) + placed_sym([(ks.k, ring.m - 1)], [(p - ks.k, ring.n)], ring)


def make_v(p: int, k: int, m: int, n: int) -> Poly:
    """Convenience wrapper: v_k at level (m, n) over F_p."""
    return v_k(kseq(p, k), Ring(m, n, False, p))


_FAMILIES = {"C": c_r, "EX": sigma_x_p, "EY": sigma_y_p, "U": u_k}


def _build_generator(kind: str, index: int, ring: Ring) -> Poly:
    family = _FAMILIES.get(kind)
    if family is None:
        raise ValueError(f"unknown generator kind {kind!r}")
    return family(index, ring)


_GENERATORS = _Memo(_build_generator, maxsize=2048)


def generator_poly(kind: str, index: int, ring: Ring) -> Poly:
    """Memoized concrete polynomial for a generator symbol."""
    return _GENERATORS(kind, index, ring)
