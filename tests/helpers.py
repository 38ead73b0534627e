"""Shared strategies and small builders for the test suite."""

import itertools
import math
from collections import Counter

import hypothesis.strategies as st

from supersympoly import DivisibilityError, GenExpr, Poly, PolyParseError, Ring
from supersympoly.generators import generator_poly, kseq, placed_sym, v_k
from supersympoly.genexpr import level_symbols, symbol_weight
from supersympoly.oracle import partitions_max_parts
from supersympoly.poly_core import block_span, d_dT, fp_inv, psi


def build_poly(ring, pairs):
    terms = {}
    for exps, c in pairs:
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + c
    return Poly(ring, terms)


@st.composite
def ring_and_polys(
    draw,
    count=1,
    ps=(3, 5, 7),
    min_m=0,
    max_m=2,
    min_n=0,
    max_n=2,
    has_t=False,
    max_exp=3,
    max_terms=6,
):
    p = draw(st.sampled_from(ps))
    m = draw(st.integers(min_m, max_m))
    n = draw(st.integers(min_n, max_n))
    ring = Ring(m, n, has_t, p)
    exps = st.tuples(*([st.integers(0, max_exp)] * ring.nvars))
    pair = st.tuples(exps, st.integers(1, p - 1))
    polys = [
        build_poly(ring, draw(st.lists(pair, max_size=max_terms)))
        for _ in range(count)
    ]
    return (ring, *polys)


def reference_mul(f, g):
    """Product by the plain loop over exponent tuples, the reference for
    the packed-exponent kernel behind ``Poly.__mul__``."""
    p = f.ring.p
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            exps = tuple(a + b for a, b in zip(e1, e2))
            out[exps] = (out.get(exps, 0) + c1 * c2) % p
    return Poly(f.ring, out)


def reference_placed(families, block, ring):
    """One-block placed sum by brute force: every injective map of the
    slots to the block's variables, with each family's slots labeled,
    then divided by the relabelings inside each family."""
    off, size = block_span(ring, block)
    slots = [v for v, c in families for _ in range(c)]
    relabelings = math.prod(math.factorial(c) for _, c in families)
    counts = {}
    for chosen in itertools.permutations(range(size), len(slots)):
        exps = [0] * ring.nvars
        for value, var in zip(slots, chosen):
            exps[off + var] = value
        counts[tuple(exps)] = counts.get(tuple(exps), 0) + 1
    return Poly(ring, {e: c // relabelings for e, c in counts.items()})


def orbit_sym(exponents, block, ring):
    """Monomial symmetric function of an exponent multiset (zeros
    dropped): every distinct arrangement of the exponents on the block's
    variables, with coefficient one.  Built from permutations, so it is
    independent of the placement routine behind the oracle's basis."""
    off, size = block_span(ring, block)
    if any(e < 0 for e in exponents):
        raise ValueError("exponents must be natural numbers")
    parts = [e for e in exponents if e]
    if len(parts) > size:
        raise ValueError(f"{len(parts)} nonzero exponents do not fit in a block of size {size}")
    terms = {}
    for arrangement in set(itertools.permutations(parts + [0] * (size - len(parts)))):
        exps = [0] * ring.nvars
        exps[off:off + size] = arrangement
        terms[tuple(exps)] = 1
    return Poly(ring, terms)


def hook_partition_count(d, m, n):
    """Partitions of d whose (m+1)-th part is at most n, the partitions
    inside the (m, n) hook.  In characteristic 0 they count the degree d
    piece of the supersymmetric algebra (Berele & Regev, Adv. Math. 64,
    1987).  A recursion on the next part, sharing no code with
    ``as_dimension`` or ``generated_dimension``."""
    def count(left, largest, index):
        if left == 0:
            return 1
        top = min(left, largest if index < m else min(largest, n))
        return sum(count(left - part, part, index + 1) for part in range(1, top + 1))

    return count(d, d, 0)


def symmetric_basis(m, n, p, d):
    """Products m_lambda(x) m_mu(y) spanning the block-symmetric degree d,
    one ``placed_sym`` call each (one slot family per distinct part)."""
    ring = Ring(m, n, False, p)
    basis = []
    for dx in range(d + 1):
        for lam in partitions_max_parts(dx, m):
            xfams = Counter(lam).items()
            for mu in partitions_max_parts(d - dx, n):
                basis.append(placed_sym(xfams, Counter(mu).items(), ring))
    return basis


def reference_as_dimension(m, n, p, d):
    """``as_dimension`` by the polynomial route: build the basis, map each
    element through ``psi`` and ``d_dT``, and subtract the rank of the
    images (``ReferenceEchelon``) from the basis size."""
    basis = symmetric_basis(m, n, p, d)
    if m == 0 or n == 0:
        return len(basis)
    echelon = ReferenceEchelon(p)
    for f in basis:
        echelon.add(d_dT(psi(f)).terms)
    return len(basis) - echelon.rank


def reference_pow(f, e):
    out = Poly(f.ring, {(0,) * f.ring.nvars: 1})
    for _ in range(e):
        out = reference_mul(out, f)
    return out


def reference_expand_key(key, ring):
    """Expansion of a symbol monomial by ``reference_mul`` products."""
    out = Poly(ring, {(0,) * ring.nvars: 1})
    for (kind, idx), e in key:
        out = reference_mul(out, reference_pow(generator_poly(kind, idx, ring), e))
    return out


def reference_lift_poly(h, ring):
    """The polynomial half of ``decompose._lift`` by its per-term formula:
    each term of the level (m-1, n) expression ``h`` becomes
    v_k^e for every U[k]^e times the expansion of its other symbols at
    level (m, n), through ``reference_pow`` and ``reference_expand_key``."""
    total = Poly(ring, {})
    for key, c in h.terms.items():
        part = Poly(ring, {(0,) * ring.nvars: c})
        plain = []
        for (kind, idx), e in key:
            if kind == "U":
                part = reference_mul(part, reference_pow(v_k(kseq(ring.p, idx), ring), e))
            else:
                plain.append(((kind, idx), e))
        total = total + reference_mul(part, reference_expand_key(plain, ring))
    return total


def expansion_cap(nvars, p):
    """The largest weight w <= 2p + 1 with at most 1500 monomials of
    degree w in ``nvars`` variables: a bound on the terms of random
    expressions that keeps their reference expansions quick."""
    if not nvars:
        return 2 * p + 1
    return max(w for w in range(2 * p + 2) if math.comb(w + nvars - 1, w) <= 1500)


@st.composite
def gen_exprs(draw, m, n, p, cap, max_terms=4):
    """A GenExpr at level (m, n) of up to ``max_terms`` terms, each of
    weighted degree at most ``cap``, with up to three factors (a repeated
    symbol merges) and symbol exponents up to 2p + 1.  Terms of different
    degrees, the constant key and cancellation to zero all occur."""
    symbols = [("C", r, r) for r in range(1, cap + 1)]
    symbols += [("EX", i, p * i) for i in range(1, m + 1)]
    symbols += [("EY", j, p * j) for j in range(1, n + 1)]
    if n:
        symbols += [("U", k, m * k + n * (p - k)) for k in range(1, p)]
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        room, key = cap, []
        for _ in range(draw(st.integers(0, 3))):
            options = [s for s in symbols if s[2] <= room]
            if not options:
                break
            kind, idx, w = draw(st.sampled_from(options))
            e = draw(st.integers(1, min(2 * p + 1, room // w)))
            key.append(((kind, idx), e))
            room -= e * w
        key = tuple(key)
        terms[key] = terms.get(key, 0) + draw(st.integers(1, p - 1))
    return GenExpr(m, n, p, terms)


def reference_level_symbols(m, n, p, max_weight):
    """``level_symbols`` by the full scan it made before each kind's
    scan stopped at ``max_weight``: every kind runs its indices up to
    max(max_weight, m, n, p - 1), so the scan costs O(p) at any weight."""
    ring, out = Ring(m, n, False, p), {}
    for kind in ("C", "EX", "EY", "U"):
        for index in range(1, max(max_weight, m, n, p - 1) + 1):
            try:
                weight = symbol_weight(kind, index, ring)
            except ValueError:
                break
            if weight <= max_weight:
                out[kind, index] = weight
    return out


def reference_enumerate_gen_monomials(m, n, p, degree):
    """The generator monomials of one weighted degree, by the unpruned
    recursion ``enumerate_gen_monomials`` used before it read suffix
    counts: every branch runs until its weight is spent or the symbols
    run out."""
    symbols = list(level_symbols(m, n, p, degree).items())
    found = []

    def rec(idx, remaining, prefix):
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


class ReferenceSpan:
    """The generated span with tuple keys: ``reference_mul`` expansions and
    the row reduction GenSpan used before it packed exponents, over every
    monomial of ``reference_enumerate_gen_monomials``.  ``live`` lists
    the monomials whose draw added a row, in order."""

    def __init__(self, m, n, p, degree):
        self.m, self.n, self.p = m, n, p
        ring = Ring(m, n, False, p)
        self.rows, self.live = {}, []
        for key in reference_enumerate_gen_monomials(m, n, p, degree):
            vec, acc = self._reduce(reference_expand_key(key, ring).terms)
            if not vec:
                continue
            self.live.append(key)
            lead = max(vec)
            inv = fp_inv(vec[lead], p)
            rvec = {e: (inv * c) % p for e, c in vec.items()}
            combo = {key: 1}
            for k2, c2 in acc.items():
                combo[k2] = (combo.get(k2, 0) - c2) % p
            rcombo = {k2: (inv * c2) % p for k2, c2 in combo.items() if (inv * c2) % p}
            self.rows[lead] = (rvec, rcombo)

    def _reduce(self, vec):
        p = self.p
        vec = dict(vec)
        acc = {}
        while vec:
            piv = max(vec)
            row = self.rows.get(piv)
            if row is None:
                break
            rvec, rcombo = row
            c = vec[piv]
            for e, v in rvec.items():
                nv = (vec.get(e, 0) - c * v) % p
                if nv:
                    vec[e] = nv
                else:
                    vec.pop(e, None)
            for k2, v in rcombo.items():
                nv = (acc.get(k2, 0) + c * v) % p
                if nv:
                    acc[k2] = nv
                else:
                    acc.pop(k2, None)
        return vec, acc

    def solve(self, f):
        vec, acc = self._reduce(f.terms)
        return None if vec else GenExpr(self.m, self.n, self.p, acc)


class ReferenceEchelon:
    """The echelon the oracle used before it shared ``poly_core.FpEchelon``:
    one ``add`` that reduces a vector and stores it when independent."""

    def __init__(self, p):
        self.p = p
        self.rows = {}

    def add(self, vec):
        """Reduce and insert; True when the vector was independent."""
        p = self.p
        vec = {k: v % p for k, v in vec.items() if v % p}
        while vec:
            piv = max(vec)
            row = self.rows.get(piv)
            if row is None:
                inv = fp_inv(vec[piv], p)
                self.rows[piv] = {k: (inv * v) % p for k, v in vec.items()}
                return True
            c = vec[piv]
            for k, v in row.items():
                nv = (vec.get(k, 0) - c * v) % p
                if nv:
                    vec[k] = nv
                else:
                    vec.pop(k, None)
        return False

    @property
    def rank(self):
        return len(self.rows)


@st.composite
def wide_operands(draw, max_terms=4):
    """A ring with up to five variables (T included or not) and two
    polynomials with exponents up to 2^20.  The exponent bounds of f and
    g add up to 2^w - 1, 2^w or 2^20, and each polynomial may get a term
    at its bound, so the largest exponent sum of a product lands on the
    edges of a w-bit field."""
    p = draw(st.sampled_from((3, 5, 7)))
    has_t = draw(st.booleans())
    m = draw(st.integers(0, 5 - has_t))
    n = draw(st.integers(0, 5 - has_t - m))
    ring = Ring(m, n, has_t, p)
    nvars = ring.nvars
    w = draw(st.integers(1, 20))
    top = draw(st.sampled_from(((1 << w) - 1, 1 << w, 1 << 20)))
    split = draw(st.integers(0, top))
    polys = []
    for bound in (split, top - split):
        exps = st.tuples(*([st.integers(0, bound)] * nvars))
        pairs = draw(st.lists(st.tuples(exps, st.integers(1, p - 1)), max_size=max_terms))
        if nvars and draw(st.booleans()):
            slot = draw(st.integers(0, nvars - 1))
            pairs.append((tuple(bound if i == slot else 0 for i in range(nvars)), 1))
        polys.append(build_poly(ring, pairs))
    return (ring, *polys)


_END = ("end", None)
_DIGITS = frozenset("0123456789")
_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")


def reference_tokenize(text):
    """The character scanner ``poly_core._tokenize`` used before it split
    the text with one regex: the reference for its tokens and errors."""
    tokens = []
    append = tokens.append
    size = len(text)
    i = 0
    try:
        while i < size:
            ch = text[i]
            if ch in _DIGITS:
                j = i + 1
                while j < size and text[j] in _DIGITS:
                    j += 1
                append(("int", int(text[i:j])))
                i = j
            elif ch in _LETTERS:
                j = i + 1
                while j < size and text[j] in _LETTERS:
                    j += 1
                k = j
                while k < size and text[k] in _DIGITS:
                    k += 1
                append(("name", (text[i:j], int(text[j:k]) if k > j else None)))
                i = k
            elif ch in "+-*^[]":
                append((ch, None))
                i += 1
            elif ch.isspace():
                i += 1
            else:
                raise PolyParseError(f"unexpected character {ch!r} at position {i}")
    except ValueError as exc:  # int() refuses overlong digit strings
        raise PolyParseError(str(exc)) from None
    append(_END)
    return tokens


def _reference_parse_terms(text, read_base, term_key):
    """The term loop ``poly_core._parse_terms`` ran over one token per
    name, '^' and int, before it read a factor run at a time: the
    reference for its values and errors.  The tokens are
    ``reference_tokenize``'s, which the regex tokenizer of that loop
    matched token for token."""
    tokens = reference_tokenize(text)
    terms = {}
    pos = 0
    while True:
        kind = tokens[pos][0]
        sign = -1 if kind == "-" else 1
        if kind == "+" or kind == "-":
            pos += 1
        elif pos:
            raise PolyParseError(f"expected '+' or '-', found {kind!r}")
        kind, coeff = tokens[pos]
        if kind == "int":
            pos += 1
            more = tokens[pos][0] == "*"
            pos += more
        elif kind == "name":
            coeff, more = 1, True
        elif kind == "end":
            raise PolyParseError("dangling sign at end of input" if pos else "empty input")
        else:
            raise PolyParseError("expected a term")
        factors = []
        while more:
            base, pos = read_base(tokens, pos)
            e = 1
            if tokens[pos][0] == "^":
                kind, e = tokens[pos + 1]
                if kind != "int":
                    raise PolyParseError("expected an integer exponent after '^'")
                pos += 2
            factors.append((base, e))
            more = tokens[pos][0] == "*"
            pos += more
        key = term_key(factors)
        terms[key] = terms.get(key, 0) + sign * coeff
        if tokens[pos] is _END:
            return terms


def reference_parse_poly(text, ring):
    """``parse_poly`` over ``_reference_parse_terms``."""
    nvars = ring.nvars
    blocks = {"x": (0, ring.m, "m"), "y": (ring.m, ring.n, "n")}

    def read_var(tokens, pos):
        kind, name = tokens[pos]
        if kind == "name":
            letters, idx = name
            if letters in blocks and idx is not None:
                offset, size, count = blocks[letters]
                if 1 <= idx <= size:
                    return offset + idx - 1, pos + 1
                raise PolyParseError(f"{letters}{idx} out of range for {count}={size}")
            if name == ("T", None):
                if ring.has_t:
                    return nvars - 1, pos + 1
                raise PolyParseError("T is not a variable of this ring")
        raise PolyParseError("expected a variable x<i>, y<j> or T")

    def exponents(factors):
        exps = [0] * nvars
        for slot, e in factors:
            exps[slot] += e
        return tuple(exps)

    return Poly(ring, _reference_parse_terms(text, read_var, exponents))


def reference_parse_gen_expr(text, m, n, p):
    """``parse_gen_expr`` over ``_reference_parse_terms``."""
    Ring(m, n, False, p)

    def read_symbol(tokens, pos):
        kind, name = tokens[pos]
        if not (kind == "name" and name[0] in ("C", "EX", "EY", "U") and name[1] is None
                and tokens[pos + 1][0] == "[" and tokens[pos + 2][0] == "int"
                and tokens[pos + 3][0] == "]"):
            raise PolyParseError("expected a symbol C[r], EX[i], EY[j] or U[k]")
        return (name[0], tokens[pos + 2][1]), pos + 4

    terms = _reference_parse_terms(text, read_symbol, tuple)
    try:
        return GenExpr(m, n, p, terms)
    except ValueError as exc:
        raise PolyParseError(str(exc)) from None


def reference_exact_monomial_div(f, divisor):
    """The per-term loop ``poly_core.exact_monomial_div`` used before it
    built quotients with ``map``: the reference for its quotients and
    for the term its ``DivisibilityError`` names."""
    d = tuple(divisor)
    out = {}
    for exps, c in f.terms.items():
        if any(a < b for a, b in zip(exps, d)):
            raise DivisibilityError(f"term with exponents {exps} is not divisible by {d}")
        out[tuple(a - b for a, b in zip(exps, d))] = c
    return Poly(f.ring, out)


# -- the x <-> y swap -----------------------------------------------------------
#
# Trading the blocks maps the algebra at level (m, n) onto the one at
# (n, m).  These two maps are written from the definitions, with public
# names only, so that the membership test, the dimension routines and the
# certificates can be checked against the swap.


def swap_poly(f):
    """f at level (m, n) with the blocks traded: y_j becomes x_j and x_i
    becomes y_i, at level (n, m) (T stays T)."""
    ring = f.ring
    m, n = ring.m, ring.n
    swapped = Ring(n, m, ring.has_t, ring.p)
    return Poly(swapped, {e[m:m + n] + e[:m] + e[m + n:]: c for e, c in f.terms.items()})


def swap_certificate(e):
    """A certificate at level (m, n), m, n >= 1, rewritten at (n, m) so
    that it expands to the swapped polynomial.

    EX[i] and EY[i] trade places, and U[k] becomes U[p - k].  The
    generating function of the c_r is prod(1 + x t) / prod(1 + y t), so
    the swap sends it to its inverse: C[r] becomes
    c'_r = -sum_{i=1..r} C[i] c'_{r-i}, with c'_0 = 1.
    """
    m, n, p = e.ring.m, e.ring.n, e.ring.p
    if not (m and n):
        raise ValueError("the symbol swap needs both blocks")

    def sym(kind, idx):
        return GenExpr(n, m, p, {(((kind, idx), 1),): 1})

    inverse = [GenExpr(n, m, p, {(): 1})]  # c'_r over the C symbols at (n, m)

    def image(kind, idx):
        if kind == "EX":
            return sym("EY", idx)
        if kind == "EY":
            return sym("EX", idx)
        if kind == "U":
            return sym("U", p - idx)
        while len(inverse) <= idx:
            r = len(inverse)
            inverse.append(-sum((sym("C", i) * inverse[r - i] for i in range(1, r + 1)),
                                GenExpr(n, m, p, {})))
        return inverse[idx]

    total = GenExpr(n, m, p, {})
    for key, c in e.terms.items():
        term = GenExpr(n, m, p, {(): c})
        for (kind, idx), power in key:
            term = term * image(kind, idx) ** power
        total = total + term
    return total
