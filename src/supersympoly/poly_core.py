"""Exact sparse multivariate polynomials over a prime field F_p.

A polynomial lives in a fixed :class:`Ring` that describes two blocks of
variables, x_1..x_m and y_1..y_n, plus an optional auxiliary variable T.
Terms are stored as a dict mapping flat exponent tuples (x block, then
y block, then T) to nonzero residues in [1, p).  The zero polynomial has
an empty term dict, so equality is plain structural equality of the
canonical form.

Every value is immutable after construction, which makes sharing across
threads safe, and lets a sum with a zero operand return the other
operand.  There is no global mutable state in this module; the
package's caches are ``_Memo`` instances in the modules that use them.
"""

from __future__ import annotations

import math
import operator
import re
import threading
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Iterable, Mapping

from .errors import DivisibilityError, PolyParseError, RingMismatchError


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def fp_inv(a: int, p: int) -> int:
    """Multiplicative inverse of a nonzero residue mod p."""
    return pow(a % p, -1, p)


def _int(value, what: str, least: int | None = None) -> int:
    """The one check of an outside int (a count, index, degree,
    exponent or coefficient): ``value`` if it is an int, not a bool,
    and at least ``least``."""
    if value.__class__ is not int:
        raise ValueError(f"{what} {value!r} is not an int")
    if least is not None and value < least:
        raise ValueError(f"{what} must be at least {least}" if least else f"{what} must be nonnegative")
    return value


@dataclass(frozen=True)
class Ring:
    """Variable layout (m x-variables, n y-variables, optional T) over F_p."""

    m: int
    n: int
    has_t: bool
    p: int

    def __post_init__(self):
        if self.has_t.__class__ is not bool:
            raise ValueError(f"has_t {self.has_t!r} is not a bool")
        _int(self.m, "variable count", 0)
        _int(self.n, "variable count", 0)
        if not is_odd_prime(_int(self.p, "characteristic")):
            raise ValueError(f"characteristic must be an odd prime, got {self.p}")

    @property
    def nvars(self) -> int:
        return self.m + self.n + (1 if self.has_t else 0)

    def var_names(self) -> list[str]:
        names = [f"x{i}" for i in range(1, self.m + 1)]
        names += [f"y{j}" for j in range(1, self.n + 1)]
        if self.has_t:
            names.append("T")
        return names


class Block(Enum):
    X = "x"
    Y = "y"


def block_span(ring: Ring, block: Block) -> tuple[int, int]:
    """(offset, size) of the block's slots inside the flat exponent tuple."""
    if block is Block.X:
        return 0, ring.m
    if block is Block.Y:
        return ring.m, ring.n
    raise ValueError(f"block must be Block.X or Block.Y, got {block!r}")


def _term_key(exps: tuple) -> tuple:
    # graded lexicographic: total degree first, then the exponent tuple
    return (sum(exps), exps)


class _Terms:
    """The arithmetic Poly and genexpr.GenExpr share: an immutable
    sparse polynomial over F_p whose ``terms`` map keys to residues in
    [1, p) of its ``ring``, so zero has no terms and equality is
    structural.  A value combines with ints and with values of its own
    type and ring.  A subclass gives ``_constant(c)``, the constant
    polynomial c, and ``_product(other)``, its product with a value of
    its type and ring.
    """

    __slots__ = ("ring", "terms")

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if other.__class__ is not self.__class__:
            if not isinstance(other, int):
                return NotImplemented
            other = self._constant(other)
        ring = self.ring
        _require_ring(ring, other.ring)
        if not (self.terms and other.terms):  # values are immutable: f + 0 is f itself
            return self if self.terms else other
        out = dict(self.terms)
        p = ring.p
        for key, c in other.terms.items():
            nc = (out.get(key, 0) + c) % p
            if nc:
                out[key] = nc
            else:
                out.pop(key, None)
        return _clean(ring, out, self.__class__)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.p
        return _clean(self.ring, {key: p - c for key, c in self.terms.items()}, self.__class__)

    def __sub__(self, other):
        if other.__class__ is not self.__class__ and not isinstance(other, int):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is self.__class__:
            _require_ring(self.ring, other.ring)
            return self._product(other)
        if not isinstance(other, int):
            return NotImplemented
        p = self.ring.p
        c = other % p  # p is prime: a nonzero c keeps every term nonzero
        terms = {key: v * c % p for key, v in self.terms.items()} if c else {}
        return _clean(self.ring, terms, self.__class__)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        """f^e as f^(e-1) * f: one product by the sparse base per step."""
        if not _int(e, "exponent", 0):
            return self._constant(1)
        out = self
        for _ in range(e - 1):
            out = out * self
        return out

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    __hash__ = None


_set_ring, _set_terms = _Terms.ring.__set__, _Terms.terms.__set__
_INTS = frozenset({int})


def _require_ring(ring: Ring, other: Ring) -> None:
    """The one ring check: values of two rings do not combine."""
    if other is not ring and other != ring:
        raise RingMismatchError(f"ring mismatch: {ring} vs {other}")


class Poly(_Terms):
    """Immutable sparse polynomial attached to a Ring."""

    __slots__ = ()

    def __init__(self, ring: Ring, terms: Mapping[tuple, int]):
        nvars = ring.nvars
        # one cheap test of every term, whatever its coefficient; _int names what fails it
        if not (_INTS.issuperset(map(type, terms.values()))
                and _INTS.issuperset(map(type, chain.from_iterable(terms)))
                and set(map(len, terms)) <= {nvars}
                and min(chain.from_iterable(terms), default=0) >= 0):
            for exps, c in terms.items():
                for e in exps:
                    _int(e, "exponent", 0)
                _int(c, "coefficient")
                if len(exps) != nvars:
                    raise ValueError(f"exponent tuple {exps} does not fit ring with {nvars} variables")
        p = ring.p
        _set_ring(self, ring)
        _set_terms(self, {tuple(exps): r for exps, c in terms.items() if (r := c % p)})

    # perfbench/tracer.py wraps only what Poly's own namespace binds
    __add__ = __radd__ = _Terms.__add__
    __mul__ = __rmul__ = _Terms.__mul__

    # -- basic queries -------------------------------------------------

    def degree(self):
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def leading(self) -> tuple[tuple, int]:
        """(exponents, coefficient) of the graded-lex largest term."""
        exps = max(self.terms, key=_term_key)
        return exps, self.terms[exps]

    # -- arithmetic ----------------------------------------------------

    def _constant(self, c: int) -> "Poly":
        c %= self.ring.p
        return _clean(self.ring, {(0,) * self.ring.nvars: c} if c else {})

    def _product(self, other: "Poly") -> "Poly":
        ring = self.ring
        if not self.terms or not other.terms:
            return _clean(ring, {})
        nvars = ring.nvars
        width = _field_width(max(map(max, self.terms)) + max(map(max, other.terms)) if nvars else 0)
        acc = _packed_mul(_pack(self.terms, width), _pack(other.terms, width))
        return _clean(ring, _unpack(acc, width, nvars, ring.p))

    def __pow__(self, e: int):
        if not self.terms or e.__class__ is not int or e < 1:
            return _Terms.__pow__(self, e)  # the exponent check, f^0 and 0^e
        # the one-term sum of f as a symbol to the e: f's power chain
        return _expand_sum({((("f",), e),): 1}, self.ring, e * self.degree(), lambda _: self)

    def __repr__(self):
        return f"Poly({self.ring.m},{self.ring.n},p={self.ring.p}: {poly_to_str(self)})"


def _clean(ring: Ring, terms: dict, cls: type = Poly) -> _Terms:
    """The trusted constructor of Poly and the other ``_Terms`` types, for
    every value the package builds itself: ``terms`` already has keys of
    the ring's kind and residues in [1, p).  Outside values enter by Poly(...)."""
    f = object.__new__(cls)
    _set_ring(f, ring)
    _set_terms(f, terms)
    return f


# -- memos ----------------------------------------------------------------

_MISS = object()  # a cached value may be falsy, such as a count of 0
_KEY_TYPES = frozenset({int, str, Ring})


class _Memo:
    """``memo(*key)``: ``build(*key)``, built once per key even under
    concurrent calls, with at most ``maxsize`` values kept.

    A build holds only its own key's lock, so a slow build holds up no
    call for another key.  The lock leaves ``locks`` when the build ends
    and a build that raises stores nothing, so ``locks`` holds only
    builds in progress and a failed key is built again on its next
    call.  Past ``maxsize`` the oldest value goes.

    A key part that is not an int, str or Ring by exact type is refused
    with ValueError before the lookup: 2.0 and True hash as 2 and 1 do,
    so a warm memo would return the value stored for the int.
    """

    def __init__(self, build, maxsize: int):
        self.build, self.maxsize = build, maxsize
        self.values, self.locks = {}, {}
        self._lock = threading.Lock()  # guards the writes to both dicts

    def __call__(self, *key):
        if not _KEY_TYPES.issuperset(map(type, key)):
            raise ValueError(f"memo key {key!r} has a part that is not an int, str or Ring")
        value = self.values.get(key, _MISS)
        if value is not _MISS:
            return value
        with self._lock:
            key_lock = self.locks.setdefault(key, threading.Lock())
        try:
            with key_lock:
                value = self.values.get(key, _MISS)
                if value is _MISS:
                    value = self.build(*key)
                    with self._lock:
                        self.values[key] = value
                        if len(self.values) > self.maxsize:
                            del self.values[next(iter(self.values))]
        finally:
            # the value is stored (or the build raised) before the lock
            # goes, so a later caller finds the value or builds anew;
            # waiters keep the old lock
            with self._lock:
                if self.locks.get(key) is key_lock:
                    del self.locks[key]
        return value


# -- packed exponents ----------------------------------------------------
#
# A packed key holds an exponent tuple in one int, one bit field of
# ``width`` bits per slot with the first slot in the top field.  While
# every field stays below 2^width, adding keys multiplies monomials and
# comparing keys compares the tuples lexicographically; every key is at
# least 0.  No other module knows this layout: callers give an exponent
# bound, and ``_field_width`` turns it into a width.


def _field_width(bound: int) -> int:
    """Bits per field that hold every exponent from 0 to ``bound``."""
    return bound.bit_length() or 1


def _width_class(degree: int) -> int:
    """The largest bound with ``degree``'s field width, 2^w - 1: every
    degree of one class (4-7, 8-15, ...) packs keys the same way."""
    return (1 << _field_width(degree)) - 1


def _pack(terms: Mapping[tuple, int], width: int) -> dict[int, int]:
    """{packed exponents: coefficient} of a tuple-keyed term dict."""
    packed = {}
    for exps, c in terms.items():
        key = 0
        for a in exps:
            key = (key << width) | a
        packed[key] = c
    return packed


def _packed_mul(a: dict, b: dict, acc: dict | None = None) -> dict[int, int]:
    """Packed ``a`` times packed ``b``, with coefficients summed into
    ``acc`` (a new dict by default) but not reduced mod p: the pair loop
    of ``Poly`` products, powers and ``_expand_sum``.  The caller makes
    the fields wide enough for every exponent sum."""
    if acc is None:
        acc = {}
    get = acc.get
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2
    return acc


def _packed_power(powers: dict, e: int, p: int) -> dict[int, int]:
    """f^e, packed and reduced mod p; f^0 is {0: 1}.

    ``powers`` is a memo {exponent: packed power} that holds f at 1; it
    gains every power on the way to e.  Over F_p, f^(qp) is f^q with
    every key times p (the Frobenius map: (sum c*M)^p = sum c*M^p, as
    c^p = c), and any other f^e is f^(e-1) * f, one product by the
    sparse base.  The caller's width must hold every field of f^e.
    """
    if not e:
        return {0: 1}
    todo = []
    while e not in powers:
        todo.append(e)
        e = e - 1 if e % p else e // p
    f = powers[1]
    out = powers[e]
    for e in reversed(todo):
        if e % p:
            out = _reduce_mod(_packed_mul(f, out), p)
        else:
            out = {k * p: c for k, c in out.items()}
        powers[e] = out
    return out


def _reduce_mod(acc: dict, p: int) -> dict[int, int]:
    """Packed terms with coefficients reduced mod p, zeros dropped."""
    return {k: r for k, c in acc.items() if (r := c % p)}


def _unpack(acc: dict, width: int, nvars: int, p: int) -> dict[tuple, int]:
    """Reduce packed coefficients mod p and unpack the nonzero terms to
    exponent tuples, in one pass."""
    mask = (1 << width) - 1
    shifts = range(width * (nvars - 1), -1, -width)
    out = {}
    for k, c in acc.items():
        c %= p
        if c:
            out[tuple([(k >> s) & mask for s in shifts])] = c
    return out


# -- expansion of symbol expressions ---------------------------------------


def _expand_sum(terms: dict, ring: Ring, bound: int, symbol_poly) -> Poly:
    """The sum of ``c * expansion(key)`` over ``terms``, accumulated
    packed and unpacked once.  A key is a tuple of (symbol, exponent)
    factors, ``symbol_poly(*symbol)`` is the polynomial a symbol stands
    for, and ``bound`` is at least the sum of exponent * degree over the
    factors of every key: the degree of its expansion, as every
    generator symbol is homogeneous."""
    p = ring.p
    power = _power_chains(bound, p, symbol_poly)
    acc: dict[int, int] = {}
    for key, c in terms.items():
        head = {0: c}
        for factor in key[:-1]:
            head = _reduce_mod(_packed_mul(head, power(factor)), p)
        _packed_mul(head, power(key[-1]) if key else {0: 1}, acc)
    return _clean(ring, _unpack(acc, _field_width(bound), ring.nvars, p))


def _power_chains(bound: int, p: int, symbol_poly):
    """``power((symbol, e))``: the symbol's packed power mod p, from one
    ``_packed_power`` chain per symbol that lives as long as ``power``.
    A chain's powers up to e have degree at most e times the symbol's,
    so a ``bound`` as ``_expand_sum`` takes it holds every chain, and the
    Frobenius step (keys times p) never carries into the next field."""
    width = _field_width(bound)
    chains: dict = {}

    def power(factor: tuple) -> dict[int, int]:
        symbol, e = factor
        chain = chains.get(symbol)
        if chain is None:
            chain = chains[symbol] = {1: _pack(symbol_poly(*symbol).terms, width)}
        return _packed_power(chain, e, p)

    return power


# -- orbit-leader coordinates ---------------------------------------------


class _OrbitLeaders:
    """Orbit leaders of packed keys, exponents up to ``bound``, at (m, n).

    S_m x S_n permutes the exponents inside each block.  A leader, the
    tuple sorted nonincreasing inside each block, is the lexicographic
    maximum of its orbit, and a block-symmetric polynomial is fixed by
    its coefficients on leaders.  The memos live as long as the helper,
    which the spans of one level and width class share; each write
    stores the one value its key has, and a leader's orbit size is
    stored before any key maps to it, so sharing is safe.
    """

    def __init__(self, ring: Ring, bound: int):
        self.m, self.n, self.p = ring.m, ring.n, ring.p
        self.width = _field_width(bound)
        self._leader: dict[int, int] = {}  # packed key -> leader (0, falsy, is found anew)
        self._orbit: dict[int, int] = {}  # leader -> orbit size
        # packed x or y block -> (its fields sorted, their orbit size)
        self._xblocks: dict[int, tuple] = {}
        self._yblocks: dict[int, tuple] = {}

    def pack(self, terms: Mapping[tuple, int]) -> dict[int, int]:
        """Packed form of a tuple-keyed term dict, for ``leader_terms``."""
        return _pack(terms, self.width)

    def leader_terms(self, packed: dict) -> dict | None:
        """The terms of ``packed`` at orbit leaders, or None unless it is
        block-symmetric: constant on each orbit, with every orbit point
        present."""
        leader_of, find = self._leader.get, self._find_leader
        out = {}
        for k, c in packed.items():
            lead = leader_of(k) or find(k)
            if lead == k:
                out[k] = c
            elif packed.get(lead) != c:
                return None
        # every key lies in the orbit of a leader in ``out``, so the keys
        # fill those orbits exactly when their sizes add up to the count
        orbit = self._orbit
        return out if sum(orbit[k] for k in out) == len(packed) else None

    def mul(self, leaders: dict, full: dict) -> dict[int, int]:
        """Leader terms, mod p, of the product of a block-symmetric
        polynomial given by its leader terms and one given in full: the
        leader terms, weighted by their orbit sizes, times the full
        terms, summed on the leaders of their keys.  Over Z that sum is
        orbit_size(e) times the product's coefficient at the leader e,
        so it is divided exactly before it is reduced mod p (m! n! may
        be 0 mod p).  The pair loop folds each pair onto its leader as
        it goes, so no dict of the full product is built: many pairs
        share a key, and many keys a leader."""
        p, orbit = self.p, self._orbit
        leader_of, find = self._leader.get, self._find_leader
        sums: dict[int, int] = {}
        get = sums.get
        for k1, c1 in leaders.items():
            c1 *= orbit[k1]
            for k2, c2 in full.items():
                k = k1 + k2
                lead = leader_of(k) or find(k)
                sums[lead] = get(lead, 0) + c1 * c2
        return {k: r for k, c in sums.items() if (r := c // orbit[k] % p)}

    def _find_leader(self, k: int) -> int:
        """Orbit leader of packed key ``k``, memoized with its orbit size."""
        shift = self.width * self.n
        xblock, yblock = k >> shift, k & ((1 << shift) - 1)
        xlead, xsize = self._xblocks.get(xblock) or self._sort_block(xblock, self.m, self._xblocks)
        ylead, ysize = self._yblocks.get(yblock) or self._sort_block(yblock, self.n, self._yblocks)
        lead = (xlead << shift) | ylead
        self._orbit[lead] = xsize * ysize
        self._leader[k] = lead
        return lead

    def _sort_block(self, block: int, size: int, memo: dict) -> tuple[int, int]:
        """(leader, orbit size) of a block of ``size`` packed fields."""
        w = self.width
        mask, shifts = (1 << w) - 1, range(0, w * size, w)
        # ascending from the bottom field up: nonincreasing from the top
        fields = sorted((block >> s) & mask for s in shifts)
        lead = sum(a << s for a, s in zip(fields, shifts))
        return memo.setdefault(block, (lead, _orbit_size(fields)))


def _orbit_size(parts: list) -> int:
    """Number of distinct orderings of the sorted list ``parts``."""
    size, run = math.factorial(len(parts)), 1
    for a, b in zip(parts, parts[1:]):
        run = run + 1 if a == b else 1
        size //= run
    return size


# -- sparse row reduction -----------------------------------------------


class FpEchelon:
    """Row echelon form over F_p of ``count`` sparse vectors, drawn on
    demand: the one way the package fills an echelon.

    ``vector(i)`` gives the i-th vector, a dict from int keys of at least
    0 to residues in [1, p), which the echelon does not modify.  Vectors
    are drawn in order under the echelon's lock, only when
    ``combination`` or ``rank`` needs one; a draw that raises is retried
    at the same i, and after the last draw ``vector`` is dropped, with
    whatever it holds.  ``added``, read-only, records the draws so far:
    ``added[i]`` is 1 when the i-th draw added a row and 0 when it did
    not, and an entry is final once it is there, so it may be read
    without the lock.  The i-th vector enters with the label key
    ``-1 - i``, below every term key, so a row's labels are its exact
    combination of vectors and its pivot, its largest key, is a term
    with coefficient 1.  Rows are never rewritten, so a partly drawn
    echelon gives the combinations of a full one (README "Design
    notes").
    """

    def __init__(self, p: int, count: int, vector):
        self._p = p
        self.rows: dict = {}
        self._count = count
        self._vector = vector if count else None
        self.added = bytearray()
        self._lock = threading.Lock()

    def combination(self, vec: Mapping) -> dict | None:
        """{i: c} with vec == sum of c * vector(i), or None when ``vec``
        (int keys of at least 0, residues in [1, p)) is outside the span.
        Draws vectors only while the residue holds a term."""
        with self._lock:
            vec = self._reduce(dict(vec))
            top = max(vec, default=-1)
            while top >= 0 and self._vector is not None:
                if self._draw() == top:  # only a row at the top key reduces further
                    vec = self._reduce(vec)
                    top = max(vec, default=-1)
        p = self._p  # the residue's labels hold minus the combination
        return {-1 - k: p - c for k, c in vec.items()} if top < 0 else None

    @property
    def rank(self) -> int:
        """Rank of all ``count`` vectors."""
        with self._lock:
            while self._vector is not None:
                self._draw()
        return len(self.rows)

    def _draw(self):
        """Draw the next vector; the pivot of the row it adds, or None."""
        i = len(self.added)
        residue = self._reduce({**self._vector(i), -1 - i: 1})
        if i + 1 == self._count:
            self._vector = None  # the rows are final
        piv = max(residue)  # never empty: no earlier row holds the label -1 - i
        if piv < 0:
            self.added.append(0)
            return None
        p = self._p
        inv = fp_inv(residue[piv], p)
        self.rows[piv] = {k: (inv * c) % p for k, c in residue.items()}
        self.added.append(1)
        return piv

    def _reduce(self, vec: dict) -> dict:
        """``vec`` reduced in place against the rows stored so far."""
        p = self._p
        rows = self.rows
        while vec:
            piv = max(vec)
            row = rows.get(piv)
            if row is None:
                break
            c = vec[piv]
            for k, v in row.items():
                nv = (vec.get(k, 0) - c * v) % p
                if nv:
                    vec[k] = nv
                else:
                    vec.pop(k, None)
        return vec


# -- constructors -------------------------------------------------------


def zero(ring: Ring) -> Poly:
    return _clean(ring, {})


def one(ring: Ring) -> Poly:
    return _clean(ring, {(0,) * ring.nvars: 1})


def x_var(ring: Ring, i: int) -> Poly:
    """The variable x_i, 1-based."""
    if not 1 <= _int(i, "variable index") <= ring.m:
        raise ValueError(f"x{i} is not a variable of {ring}")
    exps = [0] * ring.nvars
    exps[i - 1] = 1
    return _clean(ring, {tuple(exps): 1})


# -- structural operations ----------------------------------------------


def psi(f: Poly) -> Poly:
    """Substitute x_m = y_n = T, mapping (m, n) into (m-1, n-1, T)."""
    ring = f.ring
    if ring.has_t:
        raise ValueError("psi expects a polynomial without T")
    if ring.m < 1 or ring.n < 1:
        raise ValueError("psi needs at least one variable in each block")
    target = Ring(ring.m - 1, ring.n - 1, True, ring.p)
    m, n, p = ring.m, ring.n, ring.p
    out: dict[tuple, int] = {}
    for exps, c in f.terms.items():
        ne = exps[: m - 1] + exps[m : m + n - 1] + (exps[m - 1] + exps[m + n - 1],)
        out[ne] = (out.get(ne, 0) + c) % p
    return _clean(target, {ne: c for ne, c in out.items() if c})


def d_dT(g: Poly) -> Poly:
    """Formal derivative in T; kills T-exponents divisible by p."""
    ring = g.ring
    if not ring.has_t:
        raise ValueError("d_dT needs a ring with T")
    p = ring.p
    out: dict[tuple, int] = {}
    for exps, c in g.terms.items():
        e = exps[-1]
        if e:
            nc = (c * e) % p
            if nc:
                out[exps[:-1] + (e - 1,)] = nc
    return _clean(ring, out)


def set_xm_zero(f: Poly) -> Poly:
    """Restrict x_m = 0, re-housing the result at (m-1, n)."""
    ring = f.ring
    if ring.m < 1:
        raise ValueError("set_xm_zero needs m >= 1")
    target = Ring(ring.m - 1, ring.n, ring.has_t, ring.p)
    m = ring.m
    out = {}
    for exps, c in f.terms.items():
        if exps[m - 1] == 0:
            out[exps[: m - 1] + exps[m:]] = c
    return _clean(target, out)


def exact_monomial_div(f: Poly, divisor: Iterable[int]) -> Poly:
    """Divide every term by the monomial with the given exponents.

    Raises DivisibilityError naming the first term, in ``f.terms``
    order, that the monomial does not divide.
    """
    d = tuple([_int(e, "divisor exponent", 0) for e in divisor])
    if len(d) != f.ring.nvars:
        raise ValueError("divisor exponent tuple has the wrong length")
    sub = operator.sub
    quotients = [tuple(map(sub, exps, d)) for exps in f.terms]
    if d and quotients and min(map(min, quotients)) < 0:
        exps = next(e for e, q in zip(f.terms, quotients) if min(q) < 0)
        raise DivisibilityError(f"term with exponents {exps} is not divisible by {d}")
    return _clean(f.ring, dict(zip(quotients, f.terms.values())))


def homogeneous_components(f: Poly) -> list[tuple[int, Poly]]:
    """Split into homogeneous parts, listed by strictly increasing degree."""
    buckets: dict[int, dict] = {}
    for exps, c in f.terms.items():
        buckets.setdefault(sum(exps), {})[exps] = c
    return [(d, _clean(f.ring, t)) for d, t in sorted(buckets.items())]


# -- text form -----------------------------------------------------------

def poly_to_str(f: Poly) -> str:
    """Canonical text form: graded-lex descending, residues in [0, p)."""
    names = f.ring.var_names()
    return _format_terms(
        (f.terms[exps], zip(names, exps))
        for exps in sorted(f.terms, key=_term_key, reverse=True)
    )


# -- the term grammar, shared with generator certificates -----------------
#
#     text   := [sign] term (sign term)*            sign := '+' | '-'
#     term   := int ('*' factor)* | factor ('*' factor)*
#     factor := base ['^' int]
#
# The base is x<i>, y<j> or T here and KIND[index] in
# genexpr.parse_gen_expr.

_STRAY = re.compile(r"[^\sA-Za-z0-9+\-*^\[\]]")
_LONG_DIGITS = re.compile(r"[0-9]{641,}")  # int() takes 640 digits under any limit


def _pieces(base: str) -> re.Pattern:
    """The regex that splits text into factor runs, '*'-joined factors
    of base regex ``base`` with no whitespace around '*' or '^', and else
    into the small pieces ``[0-9]+``, ``[A-Za-z]+[0-9]*`` and ``\\S``.  A
    ``base`` match ends where a small piece would: a run is whole pieces."""
    factor = rf"(?:{base})(?:\^[0-9]+)?"
    return re.compile(rf"{factor}(?:\*{factor})*|[0-9]+|[A-Za-z]+[0-9]*|\S")


def _tokenize(text: str, pieces: re.Pattern) -> list:
    """The text split by a grammar's ``_pieces`` regex, ending with "".

    Whitespace, the set str.isspace accepts, separates pieces; digits
    are ASCII only.  The first stray character or digit string that
    int() refuses, in text order, raises PolyParseError.
    """
    tokens = pieces.findall(text)
    stray = _STRAY.search(text)
    if stray or max(map(len, tokens), default=0) > 640:  # a long digit string is in one piece
        for digits in _LONG_DIGITS.finditer(text, 0, stray.start() if stray else len(text)):
            try:
                int(digits.group())
            except ValueError as exc:
                raise PolyParseError(str(exc)) from None
        if stray:
            raise PolyParseError(f"unexpected character {stray[0]!r} at position {stray.start()}")
    tokens.append("")
    return tokens


def _format_terms(terms) -> str:
    """Write (coefficient, factors) pairs, in the order given, in the
    term grammar; each factor is a (base text, exponent) pair, and a
    factor of exponent 0 is left out.

    A coefficient of 1 is left out before factors, and no terms at all
    is "0".  ``poly_to_str`` and ``genexpr.serialize_gen_expr`` write
    through here, so the inverse is ``_parse_terms``.
    """
    parts = []
    for c, factors in terms:
        body = "*".join([base if e == 1 else f"{base}^{e}" for base, e in factors if e])
        if not body:
            parts.append(str(c))
        elif c == 1:
            parts.append(body)
        else:
            parts.append(f"{c}*{body}")
    return " + ".join(parts) or "0"


class _Factors(dict):
    """{factor text: (base, exponent)}: each distinct factor is read once per call."""

    def __init__(self, read_base):
        self.read_base = read_base

    def __missing__(self, text: str):
        base, caret, power = text.partition("^")
        factor = self[text] = (self.read_base(base), int(power) if caret else 1)
        return factor


def _parse_terms(text: str, pieces: re.Pattern, read_base, term_key) -> dict:
    """Parse the term grammar into {term key: integer coefficient}.

    ``pieces`` is the grammar's ``_pieces`` regex; ``read_base(text)``
    returns the base a match of its base regex stands for and raises
    PolyParseError for any other text; ``term_key`` maps a term's list
    of (base, exponent) pairs to its key.  The caller reduces
    coefficients mod p.
    """
    tokens = _tokenize(text, pieces)
    factor = _Factors(read_base).__getitem__
    terms: dict = {}
    pos = 0
    while True:
        piece = tokens[pos]  # starts with an ASCII digit or letter or one of +-*^[]; "" ends
        sign = -1 if piece == "-" else 1
        if piece == "+" or piece == "-":
            pos += 1
        elif pos:
            kind = "int" if piece[0].isdigit() else "name" if piece[0].isalpha() else piece
            raise PolyParseError(f"expected '+' or '-', found {kind!r}")
        piece = tokens[pos]
        if piece[:1].isdigit():
            coeff = int(piece)
            pos += 1
            more = tokens[pos] == "*"
            pos += more
        elif piece[:1].isalpha():
            coeff, more = 1, True
        elif not piece:
            raise PolyParseError("dangling sign at end of input" if pos else "empty input")
        else:
            raise PolyParseError("expected a term")
        factors = []
        while more:
            factors += map(factor, tokens[pos].split("*"))
            pos += 1
            # a '^' gives the run's last factor its power, unless it has one
            if tokens[pos] == "^" and "^" not in tokens[pos - 1].rpartition("*")[2]:
                if not tokens[pos + 1][:1].isdigit():
                    raise PolyParseError("expected an integer exponent after '^'")
                factors[-1] = factors[-1][0], int(tokens[pos + 1])
                pos += 2
            more = tokens[pos] == "*"
            pos += more
        key = term_key(factors)
        terms[key] = terms.get(key, 0) + sign * coeff
        if not tokens[pos]:
            return terms


_VAR_PIECES = _pieces(r"[xy][0-9]+|T(?![A-Za-z0-9])")
_VAR = re.compile(r"([xy])([0-9]+)|T")


def parse_poly(text: str, ring: Ring) -> Poly:
    """Parse the CLI polynomial grammar into a Poly of the given ring.

    Grammar: terms separated by + or -, each term an optional integer
    coefficient and '*'-joined factors, each factor a variable x<i>,
    y<j> or T with an optional '^' power.  A sign is also allowed before
    the first term.
    """
    nvars = ring.nvars
    blocks = {"x": (0, ring.m, "m"), "y": (ring.m, ring.n, "n")}

    def read_var(text):
        match = _VAR.fullmatch(text)
        if match is None:
            raise PolyParseError("expected a variable x<i>, y<j> or T")
        letter, index = match.groups()
        if letter is None:
            if ring.has_t:
                return nvars - 1
            raise PolyParseError("T is not a variable of this ring")
        offset, size, count = blocks[letter]
        idx = int(index)
        if 1 <= idx <= size:
            return offset + idx - 1
        raise PolyParseError(f"{letter}{idx} out of range for {count}={size}")

    def exponents(factors):
        exps = [0] * nvars
        for slot, e in factors:
            exps[slot] += e
        return tuple(exps)

    return Poly(ring, _parse_terms(text, _VAR_PIECES, read_var, exponents))
