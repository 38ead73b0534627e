"""Independent brute force verification machinery.

``as_dimension`` measures the graded pieces of the supersymmetric
algebra directly from the defining conditions: the block-symmetric
space of one degree is spanned by products of monomial symmetric
functions m_lambda(x) m_mu(y), and the surviving subspace is the kernel
of the linear map f -> d/dT f(x_m = y_n = T).  It computes that map on
partition labels alone, with no basis polynomial.
``generated_dimension`` measures the span of the generator monomials of
the same degree by row reduction (``GenSpan``).  The generator property
predicts the two numbers agree everywhere.  The two computations share
only the row reduction ``poly_core.FpEchelon``, filled the same way
from a count and an index -> vector function.  ``GenSpan`` raises
``InternalInvariantViolation`` for a generator power that is not
block-symmetric, so the agreement stays a check of the generators.
README "Design notes" gives the restriction identity and the rank
arguments behind both sides.
"""

from __future__ import annotations

from .generators import (
    KSeq,
    bracket_brace,
    bracket_round,
    bracket_square,
    c_r,
    w_poly,
)
from .genexpr import gen_span
from .poly_core import (
    FpEchelon,
    Poly,
    Ring,
    _clean,
    _int,
    d_dT,
    one,
    psi,
    x_var,
    zero,
)


def partitions_max_parts(total: int, max_parts: int):
    """Partitions of ``total`` into at most ``max_parts`` parts."""
    def rec(remaining: int, largest: int, parts: int, prefix: list):
        if remaining == 0:
            yield tuple(prefix)
            return
        if parts == 0:
            return
        for part in range(min(remaining, largest), 0, -1):
            prefix.append(part)
            yield from rec(remaining - part, part, parts - 1, prefix)
            prefix.pop()

    yield from rec(total, total, max_parts, [])


def _restrictions(lam: tuple, size: int) -> list[tuple]:
    """(a, lam less one part a) for each distinct value a of lam padded
    with zeros to ``size`` parts: m_lam(x_1..x_size) at x_size = T is the
    sum of T^a m_(lam less a)(x_1..x_(size-1))."""
    pairs = [(a, lam[:(at := lam.index(a))] + lam[at + 1:]) for a in sorted(set(lam))]
    return pairs + [(0, lam)] if len(lam) < size else pairs


def as_dimension(m: int, n: int, p: int, d: int) -> int:
    """Dimension of the degree d piece of the supersymmetric algebra."""
    Ring(m, n, False, p)  # the level first, then the degree, as in generated_dimension
    _int(d, "degree", 0)
    ys = [list(partitions_max_parts(dy, n)) for dy in range(d + 1)]
    pairs = [(lam, mu) for dx in range(d + 1) for lam in partitions_max_parts(dx, m) for mu in ys[d - dx]]
    keys: dict = {}  # (lam less a, mu less b) numbered in the order they first appear
    images = [{keys.setdefault((lam_a, mu_b), len(keys)): (a + b) % p
               for a, lam_a in _restrictions(lam, m) for b, mu_b in _restrictions(mu, n) if (a + b) % p}
              for lam, mu in pairs]
    return len(pairs) - FpEchelon(p, len(images), images.__getitem__).rank


def generated_dimension(m: int, n: int, p: int, d: int) -> int:
    """Dimension of the span of generator monomial expansions at degree d."""
    Ring(m, n, False, p)  # the level first, then the degree, as in as_dimension
    return gen_span(m, n, p, _int(d, "degree", 0)).dimension


# -- generating function cross-check ------------------------------------------


def cr_generating_check(m: int, n: int, p: int, R: int) -> bool:
    """Verify sum_r c_r t^r * prod_j (1 + y_j t) = prod_i (1 + x_i t)
    through degree R in t, with T playing the role of t."""
    ring = Ring(m, n, True, p)
    if _int(R, "truncation order") < m + n:
        raise ValueError("truncation order must be at least m + n")
    lhs = zero(ring)
    for r in range(R + 1):
        lhs = lhs + c_r(r, ring) * _t_monomial(ring, r)
    for j in range(1, n + 1):
        lhs = lhs * (one(ring) + _t_monomial(ring, 1, m + j - 1))
    rhs = one(ring)
    for i in range(1, m + 1):
        rhs = rhs * (one(ring) + x_var(ring, i) * _t_monomial(ring, 1))
    return _truncate_t(lhs, R) == _truncate_t(rhs, R)


def _t_monomial(ring: Ring, e: int, slot: int | None = None) -> Poly:
    """T^e, times the variable in position ``slot`` if one is given."""
    exps = [0] * ring.nvars
    exps[-1] = e
    if slot is not None:
        exps[slot] = 1
    return _clean(ring, {tuple(exps): 1})


def _truncate_t(f: Poly, R: int) -> Poly:
    return _clean(f.ring, {e: c for e, c in f.terms.items() if e[-1] <= R})


# -- bracket substitution identities -------------------------------------------


def _drops(delta: tuple, ks: KSeq) -> list[tuple]:
    """(i, delta with one i removed) for each value i of delta; a delta
    whose entries are not ints in [1, s-1] is refused."""
    if not all(1 <= _int(i, "delta entry") < ks.s for i in delta):
        raise ValueError(f"delta {delta} has entries outside [1, s-1] for s={ks.s}")
    return _restrictions(delta, len(delta))


def _collapses(lhs: Poly, rhs, ring_t: Ring) -> bool:
    """Whether the x_m = y_n = T image of ``lhs`` equals, up to the kernel
    of d/dT, the sum of T^e g over the (e, g) pairs of ``rhs``, every g
    a polynomial of the image ring ``ring_t``."""
    p = ring_t.p
    total: dict = {}
    for e, g in rhs:
        for exps, c in g.terms.items():
            key = exps[:-1] + (exps[-1] + e,)
            total[key] = (total.get(key, 0) + c) % p
    return d_dT(psi(lhs) - _clean(ring_t, {key: c for key, c in total.items() if c})).is_zero


def brace_identity_check(delta: tuple, l: int, j: int, m: int, n: int, ks: KSeq) -> bool:
    """Check the brace substitution identity up to the kernel of d/dT:
    the image of {delta, l, j} at level (m, n) under x_m = y_n = T matches
    T^k {delta, l, j-1} + T^((l+1)(p-k)) [delta, j] + T^(l(p-k)) [delta, j-1]
    + sum over the values i of delta
      (T^(kvals[i]) {delta-i, l, j-1} + T^(kvals[i-1]) {delta-i, l, j}),
    all at level (m-1, n-1).
    """
    drops, j, l = _drops(delta, ks), _int(j, "j"), _int(l, "l", 0)
    p, k = ks.p, ks.k
    ring, ring_t = Ring(m, n, False, p), Ring(m - 1, n - 1, True, p)
    rhs = [(k, bracket_brace(delta, l, j - 1, ks, ring_t)),
           ((l + 1) * (p - k), bracket_square(delta, j, ks, ring_t)),
           (l * (p - k), bracket_square(delta, j - 1, ks, ring_t))]
    for i, smaller in drops:
        rhs += [(ks.kvals[i], bracket_brace(smaller, l, j - 1, ks, ring_t)),
                (ks.kvals[i - 1], bracket_brace(smaller, l, j, ks, ring_t))]
    return _collapses(bracket_brace(delta, l, j, ks, ring), rhs, ring_t)


def round_identity_check(delta: tuple, j: int, m: int, n: int, ks: KSeq) -> bool:
    """Check the round substitution identity up to the kernel of d/dT:
    the image of (delta, j) at level (m, n) under x_m = y_n = T matches
    T^k (delta, j-1) + T^(s(p-k)) [delta, j]
    + sum over the values i of delta
      (T^(kvals[i]) (delta-i, j-1) + T^(kvals[i-1]) (delta-i, j)
       + T^((s-i)(p-k)) [delta-i, j]),
    all at level (m-1, n-1).
    """
    drops, j = _drops(delta, ks), _int(j, "j")
    p, k, s = ks.p, ks.k, ks.s
    ring, ring_t = Ring(m, n, False, p), Ring(m - 1, n - 1, True, p)
    rhs = [(k, bracket_round(delta, j - 1, ks, ring_t)),
           (s * (p - k), bracket_square(delta, j, ks, ring_t))]
    for i, smaller in drops:
        rhs += [(ks.kvals[i], bracket_round(smaller, j - 1, ks, ring_t)),
                (ks.kvals[i - 1], bracket_round(smaller, j, ks, ring_t)),
                ((s - i) * (p - k), bracket_square(smaller, j, ks, ring_t))]
    return _collapses(bracket_round(delta, j, ks, ring), rhs, ring_t)


def psi_w_check(m: int, n: int, ks: KSeq) -> bool:
    """Check that the image of w under x_m = y_n = T collapses, modulo
    the kernel of d/dT, to (-1)^(s+1) s T^(p-k) [empty, 0] one level down."""
    p, k, s = ks.p, ks.k, ks.s
    ring, ring_t = Ring(m, n, False, p), Ring(m - 1, n - 1, True, p)
    sign = 1 if (s + 1) % 2 == 0 else -1
    return _collapses(w_poly(ks, ring), [(p - k, (sign * s) * bracket_square((), 0, ks, ring_t))], ring_t)
