"""Formal expressions in the generator symbols C, EX, EY and U.

A GenExpr is a polynomial whose variables are generator symbols at a
fixed level (m, n) over F_p: C[r] stands for c_r, EX[i] for
sigma_i(x)^p, EY[j] for sigma_j(y)^p and U[k] for the core product
u_k.  Terms map a multiset of symbols to a coefficient.  A GenExpr is a
certificate, not a normal form: the generator algebra has relations, so
different expressions may expand to the same polynomial.

``expand``, the lift step of ``decompose`` and GenSpan all expand
through one packed path: ``_expand_sum`` and its power chains.

GenSpan row-reduces the expansions of all symbol monomials of one
weighted degree, in orbit-leader coordinates, and can write any
polynomial of the spanned space as a GenExpr, tracking the combination
exactly over F_p.
"""

from __future__ import annotations

import math
import threading
from functools import partial

from .errors import InternalInvariantViolation, PolyParseError
from .generators import generator_poly
from .poly_core import (
    FpEchelon,
    Poly,
    Ring,
    _clean,
    _pack,
    _packed_mul,
    _packed_power,
    _parse_terms,
    _reduce_mod,
    _unpack,
)

_KIND_RANK = {"C": 0, "EX": 1, "EY": 2, "U": 3}


def symbol_weight(kind: str, index: int, m: int, n: int, p: int) -> int:
    """Total degree of the expanded symbol, which must exist at level
    (m, n): C[r] for r >= 1, EX[i] for i <= m, EY[j] for j <= n and
    U[k] for 0 < k < p when n >= 1.  Raises ValueError otherwise."""
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
    index."""
    out = {}
    for kind in _KIND_RANK:
        # a kind's indices run from 1 to its bound (m, n or p - 1), and
        # C's, unbounded, weigh their index: the range holds every
        # symbol light enough, and the first missing index ends a kind
        for index in range(1, max(max_weight, m, n, p - 1) + 1):
            try:
                weight = symbol_weight(kind, index, m, n, p)
            except ValueError:
                break
            if weight <= max_weight:
                out[kind, index] = weight
    return out


def _key_weight(key: tuple, m: int, n: int, p: int) -> int:
    return sum(symbol_weight(kind, idx, m, n, p) * e for (kind, idx), e in key)


class GenExpr:
    """Immutable formal polynomial in generator symbols at level (m, n)."""

    __slots__ = ("m", "n", "p", "terms")

    def __init__(self, m: int, n: int, p: int, terms):
        clean = {}
        for key, c in terms.items():
            merged: dict = {}
            for (kind, idx), e in key:
                symbol_weight(kind, idx, m, n, p)  # the symbol must exist
                if e < 0:
                    raise ValueError("symbol exponents must be nonnegative")
                if e:
                    merged[kind, idx] = merged.get((kind, idx), 0) + e
            c %= p
            if not c:
                continue
            # kind names sort as _KIND_RANK does, so plain order is canonical
            parts = tuple(sorted(merged.items()))
            clean[parts] = (clean.get(parts, 0) + c) % p
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "terms", {k: v for k, v in clean.items() if v})

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("GenExpr is immutable")

    @classmethod
    def zero(cls, m: int, n: int, p: int) -> "GenExpr":
        return cls(m, n, p, {})

    @classmethod
    def const(cls, m: int, n: int, p: int, c: int) -> "GenExpr":
        return cls(m, n, p, {(): c})

    @classmethod
    def symbol(cls, m: int, n: int, p: int, kind: str, index: int, exp: int = 1) -> "GenExpr":
        return cls(m, n, p, {(((kind, index), exp),): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def weighted_degree(self):
        if not self.terms:
            return None
        return max(_key_weight(k, self.m, self.n, self.p) for k in self.terms)

    def _require_compatible(self, other: "GenExpr"):
        if (self.m, self.n, self.p) != (other.m, other.n, other.p):
            raise ValueError("generator expressions at different levels")

    def __add__(self, other):
        if not isinstance(other, GenExpr):
            if not isinstance(other, int):
                return NotImplemented
            other = GenExpr.const(self.m, self.n, self.p, other)
        self._require_compatible(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = (out.get(k, 0) + c) % self.p
        return _trusted(self.m, self.n, self.p, out)

    __radd__ = __add__

    def __neg__(self):
        return self * (self.p - 1)

    def __sub__(self, other):
        if not isinstance(other, (GenExpr, int)):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        p = self.p
        if not isinstance(other, GenExpr):
            if not isinstance(other, int):
                return NotImplemented
            return _trusted(self.m, self.n, p, {k: c * other % p for k, c in self.terms.items()})
        self._require_compatible(other)
        out: dict = {}
        for k1, c1 in self.terms.items():
            d1 = dict(k1)
            for k2, c2 in other.terms.items():
                merged = dict(d1)
                for sym, e in k2:
                    merged[sym] = merged.get(sym, 0) + e
                key = tuple(sorted(merged.items()))
                out[key] = (out.get(key, 0) + c1 * c2) % p
        return _trusted(self.m, self.n, p, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if e == 0:
            return GenExpr.const(self.m, self.n, self.p, 1)
        result = None
        base = self
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    def __eq__(self, other):
        if not isinstance(other, GenExpr):
            return NotImplemented
        return (self.m, self.n, self.p, self.terms) == (other.m, other.n, other.p, other.terms)

    __hash__ = None

    def __repr__(self):
        return f"GenExpr({self.m},{self.n},p={self.p}: {serialize_gen_expr(self)})"


def _trusted(m: int, n: int, p: int, terms: dict) -> GenExpr:
    """Trusted constructor: ``terms`` already has canonical keys of
    symbols valid at the level and residues in [0, p); zeros are dropped."""
    e = object.__new__(GenExpr)
    object.__setattr__(e, "m", m)
    object.__setattr__(e, "n", n)
    object.__setattr__(e, "p", p)
    object.__setattr__(e, "terms", {k: c for k, c in terms.items() if c})
    return e


def expand(e: GenExpr, ring: Ring) -> Poly:
    """Evaluate a GenExpr to the polynomial it denotes."""
    if (ring.m, ring.n, ring.p) != (e.m, e.n, e.p) or ring.has_t:
        raise ValueError(f"ring {ring} does not match level ({e.m},{e.n}), p={e.p}")
    return _expand_sum(e.terms, ring, (e.weighted_degree() or 0).bit_length() or 1,
                       partial(generator_poly, ring=ring))


def _expand_sum(terms: dict, ring: Ring, width: int, symbol_poly) -> Poly:
    """The sum of ``c * expansion(key)`` over ``terms``, accumulated
    packed and unpacked once.  ``symbol_poly(kind, index)`` is the
    polynomial a symbol stands for; ``width`` must hold the degree of
    every term's expansion."""
    p = ring.p
    power = _power_chains(width, p, symbol_poly)
    acc: dict[int, int] = {}
    for key, c in terms.items():
        if not key:
            acc[0] = acc.get(0, 0) + c
            continue
        head = _expand_packed(key[:-1], power, p)
        _packed_mul({k: c * v for k, v in head.items()}, power(key[-1]), acc)
    return _clean(ring, _unpack(acc, width, ring.nvars, p))


def _power_chains(width: int, p: int, symbol_poly):
    """``power(((kind, index), e))``: a symbol's packed power mod p, from
    one ``poly_core._packed_power`` chain per symbol that lives as long
    as ``power``.  Symbols are homogeneous, so a chain's powers have
    degree at most that of the term asking: a ``width`` that holds every
    term's degree holds every chain, and the Frobenius step (keys times
    p) never carries into the next field."""
    chains: dict = {}

    def power(factor: tuple) -> dict[int, int]:
        symbol, e = factor
        chain = chains.get(symbol)
        if chain is None:
            chain = chains[symbol] = {1: _pack(symbol_poly(*symbol).terms, width)}
        return _packed_power(chain, e, p)

    return power


def _expand_packed(key: tuple, power, p: int) -> dict[int, int]:
    """Packed expansion of a symbol monomial, reduced mod p, with its
    symbol powers from ``power`` (see ``_power_chains``).  The empty key
    packs to {0: 1}; a one-symbol key is the chain's own dict."""
    out = None
    for factor in key:
        packed = power(factor)
        out = packed if out is None else _reduce_mod(_packed_mul(out, packed), p)
    return {0: 1} if out is None else out


# -- text form ---------------------------------------------------------------


def serialize_gen_expr(e: GenExpr) -> str:
    """Deterministic text form; weighted degree descending, then symbol order."""
    if e.is_zero:
        return "0"
    def order(key):
        return (-_key_weight(key, e.m, e.n, e.p), key)
    parts = []
    for key in sorted(e.terms, key=order):
        c = e.terms[key]
        factors = []
        for (kind, idx), exp in key:
            s = f"{kind}[{idx}]"
            if exp > 1:
                s += f"^{exp}"
            factors.append(s)
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append(str(c) + "*" + "*".join(factors))
    return " + ".join(parts)


def parse_gen_expr(text: str, m: int, n: int, p: int) -> GenExpr:
    """Inverse of serialize_gen_expr (also accepts '-' separators).

    The grammar is parse_poly's, with KIND[index] factors.
    """

    def read_symbol(tokens, pos):
        kind, name = tokens[pos]
        if not (kind == "name" and name[0] in _KIND_RANK and name[1] is None
                and tokens[pos + 1][0] == "[" and tokens[pos + 2][0] == "int"
                and tokens[pos + 3][0] == "]"):
            raise PolyParseError("expected a symbol C[r], EX[i], EY[j] or U[k]")
        return (name[0], tokens[pos + 2][1]), pos + 4

    terms = _parse_terms(text, read_symbol, tuple)  # GenExpr merges repeats
    try:
        return GenExpr(m, n, p, terms)
    except ValueError as exc:  # a symbol that does not exist at this level
        raise PolyParseError(str(exc)) from None


# -- the generated span at one degree ----------------------------------------


def enumerate_gen_monomials(m: int, n: int, p: int, degree: int) -> list[tuple]:
    """All symbol monomials of exact weighted degree over the symbols of
    ``level_symbols``, in a fixed order; each key lists its symbols in
    the canonical order ``level_symbols`` gives them."""
    symbols = list(level_symbols(m, n, p, degree).items())
    found = []

    def rec(idx: int, remaining: int, prefix: list):
        if remaining == 0:
            found.append(tuple(prefix))
            return
        if idx == len(symbols):
            return
        symbol, w = symbols[idx]
        rec(idx + 1, remaining, prefix)
        e = 1
        while e * w <= remaining:
            prefix.append((symbol, e))
            rec(idx + 1, remaining - e * w, prefix)
            prefix.pop()
            e += 1

    rec(0, degree, [])
    return found


class GenSpan:
    """Row-reduced span of the symbol monomial expansions at one degree.

    Every expansion is homogeneous of the span's degree, so no exponent
    exceeds it and one bit field width, ``degree.bit_length()``, packs
    every term (see ``poly_core._pack``).  Packed order is lexicographic
    tuple order.

    Every generator is supersymmetric, so every expansion is invariant
    under S_m x S_n and is fixed by its coefficients on orbit leaders,
    the exponent tuples sorted nonincreasing inside each block.  The
    span keeps expansions in leader coordinates only.  Its symbol
    powers come in full from one packed power chain per symbol (see
    ``_power_chains``), local to the build, and each is checked to be
    block-symmetric once.  A key's product starts from the leader terms
    of its largest factor; each other factor multiplies the leader
    terms, weighted by their orbit sizes, into the factor's full
    expansion, and the products are summed on the leaders of their
    keys.  Over Z that sum is orbit_size(e) times the product's
    coefficient at the leader e, so it is divided exactly before it is
    reduced mod p (m! n! may be 0 mod p).

    Projection to leaders is injective on block-symmetric polynomials,
    and a leader is the lexicographic maximum of its orbit.  So each row
    is the full-coordinate row restricted to leaders, with the same
    pivot, in the same order, and the rank and certificates are
    unchanged.  ``solve`` refuses a polynomial that is not
    block-symmetric before it projects.  The leader memos fill during
    ``solve`` too; every write stores the one value a key has, so
    concurrent solves on a shared span are safe.

    Rows keep the exact combination of generator monomials they came
    from: the i-th monomial enters the echelon as its expansion plus the
    label coordinate ``-1 - i`` with coefficient 1 (the augmented-matrix
    trick).  Labels sort below every packed key, which is at least 0, so
    pivots are always terms, and a residue whose largest key is a label
    is a member; its labels give the certificate.  The construction is
    deterministic.
    """

    def __init__(self, m: int, n: int, p: int, degree: int):
        self.m, self.n, self.p, self.degree = m, n, p, degree
        self.ring = Ring(m, n, False, p)
        self.width = degree.bit_length() or 1
        self.monomials = enumerate_gen_monomials(m, n, p, degree)
        self.echelon = FpEchelon(p)
        self._leader: dict[int, int] = {}  # packed key -> its orbit leader
        self._orbit: dict[int, int] = {}  # leader -> orbit size
        # packed x or y block -> (its fields sorted, their orbit size)
        self._xblocks: dict[int, tuple] = {}
        self._yblocks: dict[int, tuple] = {}
        # the power chains and leader memo serve this build only
        power = _power_chains(self.width, p, partial(generator_poly, ring=self.ring))
        leaders: dict = {}
        for i, key in enumerate(self.monomials):
            # a fresh dict: a one-symbol expansion is the memoized power itself
            vec = {**self._expand(key, power, leaders), -1 - i: 1}
            residue = self.echelon.reduce(vec)
            if max(residue) >= 0:
                self.echelon.insert(residue)

    @property
    def dimension(self) -> int:
        return self.echelon.rank

    def solve(self, f: Poly):
        """GenExpr with expand == f, or None when f is outside the span."""
        if f.ring != self.ring:
            raise ValueError("polynomial ring does not match the span")
        degree = self.degree
        if any(sum(exps) != degree for exps in f.terms):
            return None
        leaders = self._leader_terms(_pack(f.terms, self.width))
        if leaders is None:
            return None
        residue = self.echelon.reduce(leaders)
        if residue and max(residue) >= 0:
            return None
        # the residue's labels hold minus the combination of monomials
        p, monomials = self.p, self.monomials
        return _trusted(self.m, self.n, p, {monomials[-1 - i]: p - c for i, c in residue.items()})

    def _expand(self, key: tuple, power, leaders: dict) -> dict[int, int]:
        """Leader coordinates of a symbol monomial's expansion, mod p.

        ``power`` gives the packed symbol powers (see ``_power_chains``)
        and ``leaders`` memoizes their leader terms.  The empty key is
        {0: 1}.
        """
        if not key:
            return {0: 1}
        # Only the first factor's leaders enter the pair loops, so start
        # from the largest expansion and apply the others largest first.
        entries = sorted((self._power(f, power, leaders) for f in key),
                         key=lambda entry: -len(entry[0]))
        out = entries[0][1]
        for full, _ in entries[1:]:
            out = self._mul(out, full)
        return out

    def _power(self, factor: tuple, power, leaders: dict) -> tuple[dict, dict]:
        """(full packed terms, leader terms) of a symbol power; the leader
        terms are memoized in ``leaders`` once the power is checked to be
        block-symmetric."""
        full = power(factor)
        lead = leaders.get(factor)
        if lead is None:
            lead = leaders[factor] = self._leader_terms(full)
            if lead is None:
                (kind, idx), e = factor
                raise InternalInvariantViolation(
                    f"{kind}[{idx}]^{e} at level ({self.m},{self.n}), p={self.p} "
                    "is not block-symmetric"
                )
        return full, lead

    def _mul(self, leaders: dict, full: dict) -> dict[int, int]:
        """Leader terms of the product of a block-symmetric polynomial,
        given by its leader terms, and one given in full."""
        p = self.p
        orbit, leader_of, find = self._orbit, self._leader, self._find_leader
        acc = _packed_mul({k: c * orbit[k] for k, c in leaders.items()}, full)
        sums: dict[int, int] = {}
        get = sums.get
        for k, c in acc.items():
            lead = leader_of.get(k)
            if lead is None:
                lead = find(k)
            sums[lead] = get(lead, 0) + c
        return {k: r for k, c in sums.items() if (r := c // orbit[k] % p)}

    def _leader_terms(self, packed: dict) -> dict | None:
        """The terms of ``packed`` at orbit leaders, or None unless it is
        block-symmetric: constant on each orbit, with every orbit point
        present."""
        leader_of, find = self._leader, self._find_leader
        out = {}
        for k, c in packed.items():
            lead = leader_of.get(k)
            if lead is None:
                lead = find(k)
            if lead == k:
                out[k] = c
            elif packed.get(lead) != c:
                return None
        # every key lies in the orbit of a leader in ``out``, so the keys
        # fill those orbits exactly when their sizes add up to the count
        orbit = self._orbit
        if sum(orbit[k] for k in out) != len(packed):
            return None
        return out

    def _find_leader(self, k: int) -> int:
        """Orbit leader of packed key ``k``, memoized with the leader's
        orbit size."""
        shift = self.width * self.n
        xblock, yblock = k >> shift, k & ((1 << shift) - 1)
        xlead, xsize = self._xblocks.get(xblock) or self._sort_block(xblock, self.m, self._xblocks)
        ylead, ysize = self._yblocks.get(yblock) or self._sort_block(yblock, self.n, self._yblocks)
        lead = self._leader[k] = (xlead << shift) | ylead
        self._orbit[lead] = xsize * ysize
        return lead

    def _sort_block(self, block: int, size: int, memo: dict) -> tuple[int, int]:
        """(fields sorted nonincreasing, number of distinct orderings) of
        the ``size`` packed fields of one block, memoized in ``memo``."""
        w = self.width
        mask = (1 << w) - 1
        fields = [(block >> s) & mask for s in range(0, w * size, w)]
        fields.sort(reverse=True)
        lead = 0
        for a in fields:
            lead = (lead << w) | a
        found = memo[block] = (lead, _orbit_size(fields))
        return found


def _orbit_size(parts: list) -> int:
    """Number of distinct orderings of the sorted list ``parts``."""
    size, run = math.factorial(len(parts)), 1
    for a, b in zip(parts, parts[1:]):
        run = run + 1 if a == b else 1
        size //= run
    return size


_SPAN_CACHE: dict[tuple, GenSpan] = {}
_SPAN_KEY_LOCKS: dict[tuple, threading.Lock] = {}
_SPAN_LOCK = threading.Lock()  # guards _SPAN_KEY_LOCKS


def gen_span(m: int, n: int, p: int, degree: int) -> GenSpan:
    """Memoized GenSpan, built once per key even under concurrent calls.

    A build holds only its own key's lock, so a slow span does not hold
    up calls for other keys.
    """
    key = (m, n, p, degree)
    span = _SPAN_CACHE.get(key)
    if span is None:
        with _SPAN_LOCK:
            key_lock = _SPAN_KEY_LOCKS.setdefault(key, threading.Lock())
        with key_lock:
            span = _SPAN_CACHE.get(key)
            if span is None:
                span = _SPAN_CACHE[key] = GenSpan(m, n, p, degree)
    return span
