"""Named generator families and the explicit lift construction.

Four polynomial families generate the algebra:

* ``c_r``: the alternating convolution of elementary symmetric functions
  of the x block with complete homogeneous functions of the y block,
  c_r = sum_{i} (-1)^(r-i) sigma_i(x) h_{r-i}(y).
* ``sigma_x_p`` / ``sigma_y_p``: p-th powers of elementary symmetric
  polynomials of one block.
* ``u_k``: the core product (x_1...x_m)^k (y_1...y_n)^(p-k).

``elementary`` and ``complete`` build the one-block functions behind
them; ``elementary`` also serves ``decompose._base_one_block``.
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

from .errors import InternalInvariantViolation
from .poly_core import Block, Poly, Ring, _clean, _Memo, block_span, fp_inv, zero


# -- exponent bookkeeping -------------------------------------------------


@dataclass(frozen=True)
class KSeq:
    """Derived exponents for a fixed 0 < k < p.

    s = ceil(k / (p-k)); kvals[i] = (i+1)k - ip for 0 <= i < s; and the
    tail exponent kp = sp - (s+1)k.  The relations
    kvals[i] + (p-k) = kvals[i-1], kp + k = s(p-k) and
    kvals[i] + kp = (s-i)(p-k) drive every bracket identity below and
    are asserted at construction.
    """

    p: int
    k: int
    s: int
    kvals: tuple
    kp: int


def kseq(p: int, k: int) -> KSeq:
    """Build and validate the exponent data for 0 < k < p."""
    if not (isinstance(p, int) and isinstance(k, int)):
        raise ValueError(f"p and k must be ints, got p={p!r}, k={k!r}")
    if not 0 < k < p:
        raise ValueError(f"k must satisfy 0 < k < p, got k={k}, p={p}")
    s = -(-k // (p - k))  # ceil(k / (p - k))
    kvals = tuple((i + 1) * k - i * p for i in range(s))
    kp = s * p - (s + 1) * k
    ks = KSeq(p, k, s, kvals, kp)
    _validate_kseq(ks)
    return ks


def _validate_kseq(ks: KSeq):
    p, k, s, kvals, kp = ks.p, ks.k, ks.s, ks.kvals, ks.kp
    checks = [
        s >= 1,
        s < p,
        len(kvals) == s,
        all(v > 0 for v in kvals),
        kvals[0] == k,
        kp >= 0,
        kp + k == s * (p - k),
        all(kvals[i] + (p - k) == kvals[i - 1] for i in range(1, s)),
        all(kvals[i] + kp == (s - i) * (p - k) for i in range(s)),
    ]
    if not all(checks):
        raise InternalInvariantViolation(f"exponent relations failed for {ks}")


def enumerate_deltas(s: int) -> list[tuple]:
    """All delta sequences for the given s: the nondecreasing tuples
    with entries in [1, s-1] and length at most s-1, the empty tuple
    included, ordered by (weight, length, entries).
    """
    if not isinstance(s, int):
        raise ValueError(f"s = {s!r} is not an int")
    if s < 1:
        raise ValueError("s must be at least 1")
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
    fams = [(v, c) for v, c in families if c > 0]
    if not isinstance(sum(v + c for v, c in fams), int):  # an int only if every one is
        raise ValueError(f"slot values and counts must be ints, got {fams}")
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
    if not isinstance(degree, int):
        raise ValueError(f"index {degree!r} is not an int")
    if degree < 0:
        raise ValueError("index must be nonnegative")
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
    """sum_{0 <= i <= min(r, m)} (-1)^(r-i) sigma_i(x) h_(r-i)(y)."""
    if not isinstance(r, int):
        raise ValueError(f"index {r!r} is not an int")
    if r < 0:
        raise ValueError("index must be nonnegative")
    out = zero(ring)
    for i in range(0, min(r, ring.m) + 1):
        sign = 1 if (r - i) % 2 == 0 else -1
        if i == 0:  # sigma_0 = h_0 = 1
            term = complete(r, Block.Y, ring)
        elif i == r:
            term = elementary(r, Block.X, ring)
        else:
            term = elementary(i, Block.X, ring) * complete(r - i, Block.Y, ring)
        out = out + sign * term
    return out


def sigma_x_p(i: int, ring: Ring) -> Poly:
    """p-th power of the i-th elementary symmetric polynomial in x."""
    if not 1 <= i <= ring.m:
        raise ValueError(f"index {i} out of range for m={ring.m}")
    return elementary(i, Block.X, ring) ** ring.p


def sigma_y_p(j: int, ring: Ring) -> Poly:
    """p-th power of the j-th elementary symmetric polynomial in y."""
    if not 1 <= j <= ring.n:
        raise ValueError(f"index {j} out of range for n={ring.n}")
    return elementary(j, Block.Y, ring) ** ring.p


def core_exponents(ring: Ring, a: int, b: int) -> tuple:
    """Exponent tuple of the core (x_1...x_m)^a (y_1...y_n)^b in ``ring``,
    T slot 0: the monomial of ``u_k`` and the divisor of a peel."""
    return (a,) * ring.m + (b,) * ring.n + (0,) * ring.has_t


def u_k(k: int, ring: Ring) -> Poly:
    """(x_1...x_m)^k (y_1...y_n)^(p-k) for 0 < k < p; needs n >= 1."""
    p = ring.p
    if not (isinstance(k, int) and 0 < k < p):
        raise ValueError(f"u_k needs an int k with 0 < k < p, got {k!r}")
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
    if delta and (min(delta) < 1 or max(delta) > ks.s - 1):
        raise ValueError(f"delta {delta} has entries outside [1, s-1] for s={ks.s}")
    return [(ks.kvals[i], delta.count(i)) for i in sorted(set(delta))]


def bracket_round(delta: tuple, j: int, ks: KSeq, ring: Ring) -> Poly:
    """x slots: k repeated (M-t) with the delta exponents; y slots:
    (p-k) repeated (N-j-1) and one tail slot kp.  Zero unless
    0 <= t <= M and 0 <= j < N."""
    M, N = ring.m, ring.n
    t = len(delta)
    if not (0 <= t <= M and 0 <= j < N):
        return zero(ring)
    xfams = [(ks.k, M - t)] + _delta_x_families(delta, ks)
    return placed_sym(xfams, [(ks.p - ks.k, N - j - 1), (ks.kp, 1)], ring)


def bracket_square(delta: tuple, j: int, ks: KSeq, ring: Ring) -> Poly:
    """Like the round bracket but with a plain (p-k) tail of length N-j.
    Zero unless 0 <= t <= M and 0 <= j <= N; j = N empties the y part."""
    M, N = ring.m, ring.n
    t = len(delta)
    if not (0 <= t <= M and 0 <= j <= N):
        return zero(ring)
    xfams = [(ks.k, M - t)] + _delta_x_families(delta, ks)
    return placed_sym(xfams, [(ks.p - ks.k, N - j)], ring)


def bracket_brace(delta: tuple, l: int, j: int, ks: KSeq, ring: Ring) -> Poly:
    """x slots: k repeated (M-t-1), one slot l(p-k), the delta exponents;
    y slots: (p-k) repeated (N-j).  Zero unless 0 <= t < M and
    0 <= j <= N; any l >= 0 is allowed."""
    M, N = ring.m, ring.n
    t = len(delta)
    if l < 0:
        raise ValueError("l must be nonnegative")
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


_GENERATORS = _Memo(_build_generator, maxsize=1024)


def generator_poly(kind: str, index: int, ring: Ring) -> Poly:
    """Memoized concrete polynomial for a generator symbol; the index
    must be an int, since 2.0 == 2 would find the one of index 2."""
    if not isinstance(index, int):
        raise ValueError(f"generator index {index!r} is not an int")
    return _GENERATORS(kind, index, ring)
