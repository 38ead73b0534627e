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

``expand`` and the lift step of ``decompose`` expand through
``poly_core``'s power chains, which ``poly_core._expand_sum`` sums; each
caller passes only a bound on the degree.

GenSpan row-reduces the expansions of the symbol monomials of one
weighted degree whose C powers are below p, in orbit-leader
coordinates; the others add no row.  The spans of one level and width
class share one table of symbol expansions and monomial leader terms,
and each draw is one product by a symbol.  It can write any polynomial
of the spanned space as a GenExpr, tracking the combination exactly
over F_p.
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
    _require_ring,
    _set_ring,
    _set_terms,
    _Terms,
    _width_class,
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

    ``monomials`` are those of ``enumerate_gen_monomials`` whose every C
    power is below p; the others add no row, so the rank and the
    certificates are those of the full list.  Rows are kept in
    orbit-leader coordinates, which change neither.  The i-th vector of
    the ``poly_core.FpEchelon`` is the leader terms of the i-th listed
    monomial's expansion, built only when the echelon draws it:
    ``solve`` draws until f's residue holds no term, ``dimension`` draws
    them all, and a member gets the same certificate from a partly drawn
    span as from a full one.  ``solve`` refuses a polynomial that is
    not block-symmetric before it projects.

    Each vector comes from the level table (``_LevelTable``), one per
    level and width class of the degree, which every span of that class
    shares: one product per draw, or none for a draw that a dead draw
    of a lower span already makes dead.  The echelon drops its vector
    function with the last row; the level table stays in its bounded
    memo.  The construction is deterministic.  README "Design notes"
    gives the Frobenius, orbit-leader, lazy-draw, shared-table and
    dead-draw arguments.
    """

    def __init__(self, m: int, n: int, p: int, degree: int):
        self.ring = Ring(m, n, False, p)
        self.m, self.n, self.p, self.degree = m, n, p, _int(degree, "degree", 0)
        self.monomials = monomials = [
            key for key in enumerate_gen_monomials(m, n, p, degree)
            if all(e < p for (kind, _), e in key if kind == "C")
        ]
        self._index = {key: i for i, key in enumerate(monomials)}
        table = _TABLES(self.ring, _width_class(degree))
        self._orbits = table.orbits
        self.echelon = FpEchelon(p, len(monomials), lambda i: table.vector(monomials[i], degree))

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

    def _drew_dead(self, key: tuple) -> bool:
        """Whether the echelon has drawn the listed monomial ``key`` and
        the draw added no row.  It reads the echelon's draw record
        without its lock: an entry is final once it is there."""
        i = self._index.get(key)
        added = self.echelon.added
        return i is not None and i < len(added) and not added[i]


def _quotient(key: tuple, j: int) -> tuple:
    """``key`` with the exponent of its j-th factor lowered by one."""
    symbol, e = key[j]
    return key[:j] + ((symbol, e - 1),) + key[j + 1:] if e > 1 else key[:j] + key[j + 1:]


class _LevelTable:
    """The spans' shared table of level ``ring`` for exponents up to
    ``bound``: the ``poly_core._OrbitLeaders`` helper, each symbol's
    packed expansion and weight, and the leader terms of every monomial
    expanded so far.  Each write stores the one value its key has, or
    {} for a monomial known to be a dead draw, which makes the same rows
    (README "Design notes")."""

    def __init__(self, ring: Ring, bound: int):
        self.ring = ring
        self.orbits = _OrbitLeaders(ring, bound)
        self.symbols: dict = {}  # symbol -> (packed expansion, weight)
        self.vectors: dict = {(): {0: 1}}  # monomial -> leader terms, {} if a known dead draw

    def vector(self, key: tuple, degree: int) -> dict[int, int]:
        """Leader coordinates, mod p, of the expansion of ``key``, a
        monomial of weight ``degree``; {} when it is known to be a dead
        draw.  The empty key is {0: 1}.

        Walk down from ``key``, each time dividing by its symbol with
        the fewest packed terms (the first in canonical order on a tie),
        to a monomial in the memo or one known dead, then multiply back
        up, one ``mul`` per step.  A monomial is known dead when a
        one-symbol quotient is a dead draw of the memoized span of its
        degree, and only if that span has drawn it already."""
        vectors = self.vectors
        symbols = {symbol: self._symbol(symbol) for symbol, _ in key}
        path = []
        vec = vectors.get(key)
        while vec is None:
            if self._known_dead(key, degree, symbols):
                vec = vectors[key] = {}
                break
            j = min(range(len(key)), key=lambda j: len(symbols[key[j][0]][0]))
            symbol = key[j][0]
            path.append((key, symbol))
            key, degree = _quotient(key, j), degree - symbols[symbol][1]
            vec = vectors.get(key)  # found by symbol^1 at the latest (see _symbol)
        mul = self.orbits.mul
        for key, symbol in reversed(path):
            vec = vectors[key] = mul(vec, symbols[symbol][0]) if vec else {}
        return vec

    def _known_dead(self, key: tuple, degree: int, symbols: dict) -> bool:
        """Whether a one-symbol quotient of ``key`` is a dead draw of the
        memoized span of its degree, as far as that span has drawn."""
        ring, spans = self.ring, _SPANS.values
        for j, (symbol, _) in enumerate(key):
            lower = spans.get((ring.m, ring.n, ring.p, degree - symbols[symbol][1]))
            if lower is not None and lower._drew_dead(_quotient(key, j)):
                return True
        return False

    def _symbol(self, symbol: tuple) -> tuple:
        """(packed expansion, weight) of ``symbol``.  The first call
        checks that the expansion is block-symmetric, raising
        ``InternalInvariantViolation`` otherwise, so a broken generator
        cannot hide behind the projection, and stores its leader terms
        as the monomial symbol^1 before the symbol itself."""
        entry = self.symbols.get(symbol)
        if entry is None:
            packed = self.orbits.pack(generator_poly(*symbol, ring=self.ring).terms)
            lead = self.orbits.leader_terms(packed)
            if lead is None:
                kind, idx = symbol
                raise InternalInvariantViolation(
                    f"{kind}[{idx}] at level ({self.ring.m},{self.ring.n}), p={self.ring.p} "
                    "is not block-symmetric"
                )
            self.vectors[((symbol, 1),)] = lead
            entry = self.symbols[symbol] = (packed, symbol_weight(*symbol, self.ring))
        return entry


_TABLES = _Memo(_LevelTable, maxsize=512)
_SPANS = _Memo(GenSpan, maxsize=1024)


def gen_span(m: int, n: int, p: int, degree: int) -> GenSpan:
    """Memoized GenSpan, built once per key even under concurrent calls."""
    return _SPANS(m, n, p, degree)
