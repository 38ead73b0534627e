"""Formal expressions in the generator symbols C, EX, EY and U.

A GenExpr is a polynomial whose variables are generator symbols at a
fixed level (m, n) over F_p: C[r] stands for c_r, EX[i] for
sigma_i(x)^p, EY[j] for sigma_j(y)^p and U[k] for the core product
u_k.  Terms map a multiset of symbols to a coefficient.  A GenExpr is a
certificate, not a normal form: the generator algebra has relations, so
different expressions may expand to the same polynomial.

A GenExpr is an F_p-polynomial just as a Poly is, and the two share one
arithmetic, ``poly_core._Terms``: GenExpr adds only its symbol-merging
product.  Its level is its ``ring``, Ring(m, n, False, p), so a level
Ring refuses is refused where it enters and two levels do not combine
(RingMismatchError).

``expand``, the lift step of ``decompose`` and GenSpan all expand
through ``poly_core``'s power chains, which ``poly_core._expand_sum``
sums; each caller passes only a bound on the degree.

GenSpan row-reduces the expansions of the symbol monomials of one
weighted degree whose C powers are below p, in orbit-leader
coordinates; the others add no row.  It can write any polynomial of
the spanned space as a GenExpr, tracking the combination exactly over
F_p.
"""

from __future__ import annotations

import itertools
import re
from functools import partial

from .errors import InternalInvariantViolation, PolyParseError
from .generators import generator_poly
from .poly_core import (
    FpEchelon,
    Poly,
    Ring,
    _clean,
    _expand_sum,
    _format_terms,
    _int,
    _Memo,
    _OrbitLeaders,
    _parse_terms,
    _pieces,
    _power_chains,
    _require_ring,
    _set_ring,
    _set_terms,
    _Terms,
)

_KIND_RANK = {"C": 0, "EX": 1, "EY": 2, "U": 3}


def symbol_weight(kind: str, index: int, ring: Ring) -> int:
    """Total degree of the expanded symbol, which must exist at the level
    ``ring``: C[r] for r >= 1, EX[i] for i <= m, EY[j] for j <= n and
    U[k] for 0 < k < p when n >= 1.  Raises ValueError otherwise."""
    m, n, p = ring.m, ring.n, ring.p
    _int(index, "symbol index")
    if kind == "C":
        if index >= 1:
            return index
    elif kind == "EX":
        if 1 <= index <= m:
            return p * index
    elif kind == "EY":
        if 1 <= index <= n:
            return p * index
    elif kind == "U":
        if 0 < index < p and n >= 1:
            return m * index + n * (p - index)
    raise ValueError(f"symbol {kind}[{index}] is invalid at level ({m},{n}), p={p}")


def level_symbols(m: int, n: int, p: int, max_weight: int) -> dict[tuple, int]:
    """{(kind, index): weight} of every symbol at level (m, n) of weight
    at most ``max_weight``, in canonical order: C, EX, EY, U, each by
    index.  Raises ValueError for a level that Ring refuses."""
    ring = Ring(m, n, False, p)
    out = {}
    for kind in _KIND_RANK:
        # Scan each kind in the direction its weight grows and stop at
        # the first missing or too-heavy index, so the scan costs one
        # call past the symbols it returns.  U[k] weighs m*k + n*(p - k),
        # which falls as k grows when m < n.
        indices = itertools.count(1) if kind != "U" or m >= n else range(p - 1, 0, -1)
        found = []
        for index in indices:
            try:
                weight = symbol_weight(kind, index, ring)
            except ValueError:
                break
            if weight > max_weight:
                break
            found.append(((kind, index), weight))
        out.update(sorted(found))
    return out


def _key_weight(key: tuple, ring: Ring) -> int:
    return sum(symbol_weight(kind, idx, ring) * e for (kind, idx), e in key)


class GenExpr(_Terms):
    """Immutable formal polynomial in the generator symbols of level
    (m, n) over F_p; its ring is the level, Ring(m, n, False, p)."""

    __slots__ = ()

    def __init__(self, m: int, n: int, p: int, terms):
        ring = Ring(m, n, False, p)
        clean = {}
        for key, c in terms.items():
            merged: dict = {}
            for (kind, idx), e in key:
                symbol_weight(kind, idx, ring)  # the symbol must exist
                if _int(e, "symbol exponent", 0):
                    merged[kind, idx] = merged.get((kind, idx), 0) + e
            c = _int(c, "coefficient") % p
            if not c:
                continue
            # kind names sort as _KIND_RANK does, so plain order is canonical
            parts = tuple(sorted(merged.items()))
            clean[parts] = (clean.get(parts, 0) + c) % p
        _set_ring(self, ring)
        _set_terms(self, {k: v for k, v in clean.items() if v})

    def weighted_degree(self):
        if not self.terms:
            return None
        return max(_key_weight(k, self.ring) for k in self.terms)

    def _constant(self, c: int) -> "GenExpr":
        c %= self.ring.p
        return _clean(self.ring, {(): c} if c else {}, GenExpr)

    def _product(self, other: "GenExpr") -> "GenExpr":
        """Merge the symbols of every pair of keys."""
        p = self.ring.p
        out: dict = {}
        for k1, c1 in self.terms.items():
            d1 = dict(k1)
            for k2, c2 in other.terms.items():
                merged = dict(d1)
                for sym, e in k2:
                    merged[sym] = merged.get(sym, 0) + e
                key = tuple(sorted(merged.items()))
                out[key] = (out.get(key, 0) + c1 * c2) % p
        return _clean(self.ring, {k: c for k, c in out.items() if c}, GenExpr)

    def __repr__(self):
        r = self.ring
        return f"GenExpr({r.m},{r.n},p={r.p}: {serialize_gen_expr(self)})"


def expand(e: GenExpr, ring: Ring) -> Poly:
    """Evaluate a GenExpr to the polynomial it denotes."""
    _require_ring(e.ring, ring)
    return _expand_sum(e.terms, ring, e.weighted_degree() or 0, partial(generator_poly, ring=ring))


# -- text form ---------------------------------------------------------------


def serialize_gen_expr(e: GenExpr) -> str:
    """Deterministic text form; weighted degree descending, then symbol order."""
    def order(key):
        return (-_key_weight(key, e.ring), key)
    return _format_terms(
        (e.terms[key], [(f"{kind}[{idx}]", exp) for (kind, idx), exp in key])
        for key in sorted(e.terms, key=order)
    )


_SYMBOL_PIECES = _pieces(r"(?:C|EX|EY|U)\s*\[\s*[0-9]+\s*\]")
_SYMBOL = re.compile(r"(C|EX|EY|U)\s*\[\s*([0-9]+)\s*\]")


def parse_gen_expr(text: str, m: int, n: int, p: int) -> GenExpr:
    """Inverse of serialize_gen_expr (also accepts '-' separators).

    The grammar is parse_poly's, with KIND[index] factors.
    """
    Ring(m, n, False, p)  # a bad level is refused before the text is read

    def read_symbol(text):
        match = _SYMBOL.fullmatch(text)
        if match is None:
            raise PolyParseError("expected a symbol C[r], EX[i], EY[j] or U[k]")
        return match[1], int(match[2])

    terms = _parse_terms(text, _SYMBOL_PIECES, read_symbol, tuple)  # GenExpr merges repeats
    try:
        return GenExpr(m, n, p, terms)
    except ValueError as exc:  # a symbol that does not exist at this level
        raise PolyParseError(str(exc)) from None


# -- the generated span at one degree ----------------------------------------


def _suffix_counts(weights: list[int], degree: int) -> list[list[int]]:
    """ways[idx][r]: the number of monomials of weight exactly r in the
    symbols of weights ``weights[idx:]``, for r up to ``degree``."""
    ways = [[0] * (degree + 1) for _ in range(len(weights) + 1)]
    ways[-1][0] = 1
    for idx in range(len(weights) - 1, -1, -1):
        w, row, rest = weights[idx], ways[idx], ways[idx + 1]
        for r in range(degree + 1):
            # no factor of symbol idx, or one more than in row[r - w]
            row[r] = rest[r] + (row[r - w] if r >= w else 0)
    return ways


def _count_gen_monomials(m: int, n: int, p: int, degree: int) -> int:
    """len(enumerate_gen_monomials(m, n, p, degree)), without the list."""
    weights = list(level_symbols(m, n, p, degree).values())
    return _suffix_counts(weights, degree)[0][degree] if degree >= 0 else 0


# ``decompose`` asks the count once per recursion entry, hence the memo
_gen_monomial_count = _Memo(_count_gen_monomials, maxsize=2048)


def enumerate_gen_monomials(m: int, n: int, p: int, degree: int) -> list[tuple]:
    """All symbol monomials of exact weighted degree over the symbols of
    ``level_symbols``, in ascending lex order of their exponents in
    that symbol order; each key lists its symbols in the canonical
    order ``level_symbols`` gives them.

    The suffix counts prune every branch whose remaining weight the
    later symbols cannot reach, so each call ends in a monomial."""
    symbols = list(level_symbols(m, n, p, _int(degree, "degree")).items())
    if degree < 0:
        return []
    ways = _suffix_counts([w for _, w in symbols], degree)
    found = []

    def rec(idx: int, remaining: int, prefix: list):
        if remaining == 0:
            found.append(tuple(prefix))
            return
        symbol, w = symbols[idx]
        rest = ways[idx + 1]
        if rest[remaining]:
            rec(idx + 1, remaining, prefix)
        e = 1
        while e * w <= remaining:
            if rest[remaining - e * w]:
                prefix.append((symbol, e))
                rec(idx + 1, remaining - e * w, prefix)
                prefix.pop()
            e += 1

    rec(0, degree, [])  # C[1]^degree is always a monomial
    return found


class GenSpan:
    """Row-reduced span of the symbol monomial expansions at one degree.

    The span lists only the monomials of ``enumerate_gen_monomials``
    whose every C power is below p, since no other one adds a row.
    Over F_p, Frobenius gives sum_r c_r^p s^r = (sum_i EX[i] s^i) /
    (sum_j EY[j] s^j), so C[r]^p M is a combination of monomials that
    keep M's C[1..r-1] powers and lower its C[r] power by p.  Those
    come earlier in the ascending lex order of exponents that
    ``enumerate_gen_monomials`` gives, so each left-out expansion lies
    in the span of earlier listed ones: the rows, their combinations
    and the rank are those of the full list.

    Every generator is supersymmetric, so every expansion is invariant
    under S_m x S_n, and the span keeps expansions in the orbit-leader
    coordinates of its own ``poly_core._OrbitLeaders``.  Its symbol
    powers come in full from one power chain per symbol (see
    ``poly_core._power_chains``), and each is checked to be
    block-symmetric once, so a broken generator cannot hide behind the
    projection.  ``solve`` refuses a polynomial that is not
    block-symmetric before it projects.

    Projection to leaders is injective on block-symmetric polynomials,
    and a leader is the largest key of its orbit, so each row is the
    full-coordinate row restricted to leaders, with the same pivot in
    the same order: the rank and certificates are unchanged.

    The i-th vector of the ``poly_core.FpEchelon`` is the expansion of
    the i-th listed monomial, built in monomial order only when the
    echelon draws it: ``solve`` draws until f's residue holds no term,
    ``dimension`` draws them all.  The echelon's ``combination`` of a
    member names monomials by index, and rows are never rewritten, so a
    member gets the same certificate from a partly drawn span as from a
    full one.  The power chains and leader memo go with the last row.
    The construction is deterministic.
    """

    def __init__(self, m: int, n: int, p: int, degree: int):
        self.ring = Ring(m, n, False, p)
        self.m, self.n, self.p, self.degree = m, n, p, _int(degree, "degree", 0)
        self.monomials = monomials = [
            key for key in enumerate_gen_monomials(m, n, p, degree)
            if all(e < p for (kind, _), e in key if kind == "C")
        ]
        self._orbits = orbits = _OrbitLeaders(self.ring, degree)
        power = _power_chains(degree, p, partial(generator_poly, ring=self.ring))
        leaders: dict = {}
        self.echelon = FpEchelon(
            p, len(monomials), lambda i: _expand(monomials[i], orbits, power, leaders)
        )

    @property
    def dimension(self) -> int:
        return self.echelon.rank

    def solve(self, f: Poly):
        """GenExpr with expand == f, or None when f is outside the span."""
        _require_ring(self.ring, f.ring)
        degree = self.degree
        if any(sum(exps) != degree for exps in f.terms):
            return None
        leaders = self._orbits.leader_terms(self._orbits.pack(f.terms))
        if leaders is None:
            return None
        combo = self.echelon.combination(leaders)
        if combo is None:
            return None
        return _clean(self.ring, {self.monomials[i]: c for i, c in combo.items()}, GenExpr)


def _expand(key: tuple, orbits: _OrbitLeaders, power, leaders: dict) -> dict[int, int]:
    """Leader coordinates of a symbol monomial's expansion, mod p.

    ``power`` gives the symbol powers (see ``_power_chains``), and
    ``leaders`` memoizes their leader terms once each power is checked
    to be block-symmetric.  The empty key is {0: 1}.
    """
    if not key:
        return {0: 1}
    entries = []
    for factor in key:
        full = power(factor)
        lead = leaders.get(factor)
        if lead is None:
            lead = leaders[factor] = orbits.leader_terms(full)
            if lead is None:
                (kind, idx), e = factor
                raise InternalInvariantViolation(
                    f"{kind}[{idx}]^{e} at level ({orbits.m},{orbits.n}), p={orbits.p} "
                    "is not block-symmetric"
                )
        entries.append((full, lead))
    # Only the first factor's leaders enter the pair loops, so start
    # from the largest expansion and apply the others largest first.
    entries.sort(key=lambda entry: -len(entry[0]))
    out = entries[0][1]
    for full, _ in entries[1:]:
        out = orbits.mul(out, full)
    return out


_SPANS = _Memo(GenSpan, maxsize=1024)


def gen_span(m: int, n: int, p: int, degree: int) -> GenSpan:
    """Memoized GenSpan, built once per key even under concurrent calls."""
    return _SPANS(m, n, p, degree)
