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
``poly_core``'s power chains, which ``poly_core._expand_sum`` sums in
Horner order; each caller passes only a bound on the degree, and
``expand`` up to weight 255 the chains of the level's table.

GenSpan row-reduces the expansions of the symbol monomials of one
weighted degree whose C powers are below p, in orbit-leader
coordinates; the others add no row.  Each level has one table of
symbol expansions and monomial leader terms, which also holds the
level's spans, engine counts and v_k pairs, and each draw is one
product by a symbol.  A span can write any polynomial of the spanned
space as a GenExpr, tracking the combination exactly over F_p.
"""

from __future__ import annotations

import itertools
import re
from functools import partial
from types import MappingProxyType

from .errors import InternalInvariantViolation, PolyParseError
from .generators import generator_poly, kseq, v_k
from .poly_core import (
    FpEchelon,
    Poly,
    Ring,
    _block_symmetry,
    _Chains,
    _clean,
    _expand_sum,
    _format_terms,
    _int,
    _leaders,
    _LeaderTerms,
    _Memo,
    _OrbitLeaders,
    _parse_terms,
    _pieces,
    _require_ring,
    _set_ring,
    _set_terms,
    _SPAN_BOUND,
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
    degrees: dict = {}  # each weighted degree's terms, summed apart
    for key, c in e.terms.items():
        degrees.setdefault(_key_weight(key, ring), {})[key] = c
    bound = max(degrees, default=0)
    # up to the span bound the level table's chains, packed for it, serve every call
    chains = _TABLES(ring.m, ring.n, ring.p).chains if bound <= _SPAN_BOUND else None
    return _expand_sum(degrees.values(), ring, bound, partial(generator_poly, ring=ring), chains)


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


def _span_degree(degree: int) -> int:
    """``degree``, refused unless an int in [0, poly_core._SPAN_BOUND]:
    the domain of spans and of both dimension functions (``oracle``)."""
    if _int(degree, "degree", 0) > _SPAN_BOUND:
        raise ValueError(f"degree {degree} is above {_SPAN_BOUND}, the largest span degree")
    return degree


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
    not block-symmetric (``poly_core._block_symmetry``, the package's
    one block-symmetry test) before it projects, and takes a
    ``poly_core._LeaderTerms`` value as the leader terms it holds.

    Each vector comes from the level's table, ``_TABLES(m, n, p)``: one
    product per draw, or none for a draw that a known dead draw makes
    dead.  The echelon reports each dead draw as it finds it, and the
    span writes the one shared empty vector over its table entry, the
    one record of dead draws.  The echelon drops its vector function
    with the last row; the table stays in its bounded memo.  A degree
    above ``poly_core._SPAN_BOUND``, 255, is refused before anything is
    listed: it lists at least p(256) > 3e14 monomials.  The construction
    is deterministic.  README "Design notes" gives the Frobenius,
    orbit-leader, lazy-draw, shared-table and dead-draw arguments.
    """

    def __init__(self, m: int, n: int, p: int, degree: int):
        self.ring = Ring(m, n, False, p)
        _span_degree(degree)
        self.m, self.n, self.p, self.degree = m, n, p, degree
        self.monomials = monomials = [
            key for key in enumerate_gen_monomials(m, n, p, degree)
            if all(e < p for (kind, _), e in key if kind == "C")
        ]
        self._table = table = _TABLES(m, n, p)

        def dead(i):
            table.vectors[monomials[i]] = _DEAD

        self.echelon = FpEchelon(p, len(monomials), lambda i: table.vector(monomials[i]), dead)

    @property
    def dimension(self) -> int:
        return self.echelon.rank

    def solve(self, f: Poly):
        """GenExpr with expand == f, or None when f is outside the span."""
        _require_ring(self.ring, f.ring)
        degree = self.degree
        if any(sum(exps) != degree for exps in f.terms):
            return None
        if f.__class__ is not _LeaderTerms:
            sym_x, sym_y, f = _block_symmetry(f)
            if not (sym_x and sym_y):
                return None
        combo = self.echelon.combination(self._table.orbits.pack(f.terms))
        if combo is None:
            return None
        return _clean(self.ring, {self.monomials[i]: c for i, c in combo.items()}, GenExpr)


def _quotient(key: tuple, j: int) -> tuple:
    """``key`` with the exponent of its j-th factor lowered by one."""
    symbol, e = key[j]
    return key[:j] + ((symbol, e - 1),) + key[j + 1:] if e > 1 else key[:j] + key[j + 1:]


class _LevelTable:
    """Everything kept for the level (m, n, p): the ``_OrbitLeaders``
    helper, each symbol's power chain (``chains``, which ``expand``
    shares; at power 1 the symbol's packed expansion), the leader
    terms of every monomial expanded so far, the memos ``spans`` (a
    ``GenSpan`` per degree) and ``vk_pairs`` (v_k and its certificate
    per k), and ``count_row``, the engine's monomial count of each
    degree up to the largest asked (``counts``).  Each vector write
    stores the one value its key has, or the shared empty ``_DEAD`` for
    a monomial known to be a dead draw or whose expansion is 0, which
    makes the same rows (README "Design notes").  The spans' echelons
    write ``_DEAD`` over each dead draw's entry as they find it, so the
    table is the one record of dead draws, of every degree it holds."""

    def __init__(self, m: int, n: int, p: int):
        self.ring = ring = Ring(m, n, False, p)
        self.orbits = _OrbitLeaders(ring, _SPAN_BOUND)
        self.chains = _Chains(self._symbol)  # symbol -> its power chain, at 1 its packed expansion
        self.vectors: dict = {(): {0: 1}}  # monomial -> leader terms, _DEAD if a known dead draw
        self.spans = _Memo(partial(GenSpan, m, n, p), maxsize=_SPAN_BOUND + 1)
        self.count_row = [1]  # monomials of each weight, see counts
        self.vk_pairs = _Memo(partial(_vk_pair, ring), maxsize=p - 1)

    def counts(self, degree: int) -> int:
        """len(enumerate_gen_monomials(m, n, p, degree)), without the
        list: entry ``degree`` of ``count_row``, extended up to
        ``degree`` when it is shorter, one entry at a time, each built
        once.  The row counts the partitions of a weight into symbol
        weights, so r * a(r) = sum over k <= r of sigma(k) * a(r - k),
        with sigma(k) the sum of the symbol weights that divide k (the
        log-derivative of prod 1 / (1 - t^w)).  Callers that grow it at
        once each extend and read a copy of their own, equal where both
        reach; the one stored last is kept."""
        if _int(degree, "degree") < 0:
            return 0
        row = self.count_row
        if degree >= len(row):
            ring, row, sigma = self.ring, row[:], [0] * (degree + 1)
            for w in level_symbols(ring.m, ring.n, ring.p, degree).values():
                for k in range(w, degree + 1, w):
                    sigma[k] += w
            for r in range(len(row), degree + 1):
                row.append(sum(sigma[k] * row[r - k] for k in range(1, r + 1)) // r)
            self.count_row = row
        return row[degree]

    def vector(self, key: tuple) -> dict[int, int]:
        """Leader coordinates, mod p, of the expansion of the monomial
        ``key``; empty when it is known to be a dead draw.  The empty
        key is {0: 1}.

        Walk down from ``key``, each time dividing by its symbol with
        the fewest packed terms (the first in canonical order on a tie),
        to a monomial in the memo or one known dead, then multiply back
        up, one ``mul`` per step.  A monomial is known dead when one of
        its one-symbol quotients is ``_DEAD`` in this table."""
        vectors = self.vectors
        symbols = {symbol: self.chains[symbol][1] for symbol, _ in key}
        path = []
        vec = vectors.get(key)
        while vec is None:
            if any(vectors.get(_quotient(key, j)) is _DEAD for j in range(len(key))):
                vec = vectors[key] = _DEAD
                break
            j = min(range(len(key)), key=lambda j: len(symbols[key[j][0]]))
            path.append((key, key[j][0]))
            key = _quotient(key, j)
            vec = vectors.get(key)  # found by symbol^1 at the latest (see _symbol)
        for key, symbol in reversed(path):
            vec = vectors[key] = (vec and self.orbits.mul(vec, symbols[symbol])) or _DEAD
        return vec

    def _symbol(self, symbol: tuple) -> dict[int, int]:
        """Packed expansion of ``symbol``, the start of its chain in
        ``chains``, which calls this once per symbol.  It takes the
        expansion's leader terms through the checked projection
        ``poly_core._leaders``, which raises ``InternalInvariantViolation``
        unless it is block-symmetric, so a broken generator cannot hide
        behind the projection, and stores them as the monomial symbol^1
        before the chain is stored."""
        (kind, idx), ring, pack = symbol, self.ring, self.orbits.pack
        generator = generator_poly(kind, idx, ring=ring)
        lead = _leaders(generator, f"{kind}[{idx}] at level ({ring.m},{ring.n}), p={ring.p}")
        self.vectors[((symbol, 1),)] = pack(lead.terms) or _DEAD  # C[r] for r > m is 0 at n = 0
        return pack(generator.terms)


# the one empty vector, of every known dead draw and every zero
# expansion, shared and never mutated
_DEAD = MappingProxyType({})
_TABLES = _Memo(_LevelTable, maxsize=512)


def gen_span(m: int, n: int, p: int, degree: int) -> GenSpan:
    """Memoized GenSpan from its level table, built once per key even
    under concurrent calls."""
    return _TABLES(m, n, p).spans(degree)


def _span_solve(f: Poly, degree: int) -> GenExpr:
    """Certificate of the homogeneous f from the span of its degree."""
    ring = f.ring
    expr = gen_span(ring.m, ring.n, ring.p, degree).solve(f)
    if expr is None:
        raise InternalInvariantViolation(
            f"a degree {degree} polynomial at level ({ring.m},{ring.n}), p={ring.p} "
            "is outside the generator span"
        )
    return expr


def _vk_pair(ring: Ring, k: int) -> tuple[Poly, GenExpr]:
    v = v_k(kseq(ring.p, k), ring)
    return v, _span_solve(v, v.degree())
