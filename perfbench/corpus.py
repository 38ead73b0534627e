"""Seeded benchmark inputs, built without the package under test.

Every input is made here from the workload seed (and a fixed stream of
symbol shapes), with a small F_p polynomial expander of our own, and
written as one text line per op.  The worker only ever sees that text, and the output checks can
compare the program's results against polynomials it did not compute.

A polynomial is a dict mapping flat exponent tuples (x block, then y
block) to residues in [1, p).  The canonical text matches the grammar
and term order of the command line: graded lexicographic, descending.
"""

from __future__ import annotations

import itertools
import random

# Levels and primes of each workload.  Sizes are the per-pass op counts:
# a pass is one fresh worker process that runs the whole corpus once.
#
# For roundtrip and core_peel the symbols of each expression e come from
# a fixed stream and the seed picks only the coefficients.  The symbols
# and the order set an op's cost and decide which ops pay for building
# the cold caches; a seed that chose them moved the median and tail
# latency by 20-40%, more than the program would.
ROUNDTRIP_LEVELS = ((1, 1), (2, 1), (1, 2), (2, 2))
ROUNDTRIP_PRIMES = (3, 5)
ROUNDTRIP_WEIGHTS = tuple(range(1, 11))
ROUNDTRIP_TERMS = (1, 2, 3)
ROUNDTRIP_REPEATS = 2  # per stratum: 8 x 10 x 3 x 2 = 480 ops

CORE_PEEL_LEVELS = ((2, 2), (3, 3), (3, 2))
CORE_PEEL_TOTALS = {3: (3, 6, 9, 12), 5: (5, 10)}  # p -> core degrees a + b
CORE_PEEL_WEIGHTS = (4, 6, 8)  # of e, which has two terms: 3 x 6 x 3 x 2 = 108 ops

# (m, n, p, dmax): every degree DIMS_MIN_D..dmax of each level is one op.
# Degrees below 3 take well under a millisecond.
DIMS_GRID = ((2, 2, 3, 13), (3, 3, 3, 10), (2, 3, 5, 11))
DIMS_MIN_D = 3

LIFT_PRIMES = (7, 11, 13, 17)
LIFT_LEVELS = tuple((m, n) for m in (1, 2, 3) for n in (1, 2, 3))
LIFT_MIN_S = 3  # lifts with s < 3 take well under a millisecond
LIFT_MAX_S = 8
# At s = 8 only (m, n) in {1, 2}^2: the five lifts with m or n = 3 take
# 0.2-1.5 s each, would be four fifths of a pass and leave too few
# passes in a run for a steady median.
LIFT_MAX_S_LEVELS = tuple((m, n) for m in (1, 2) for n in (1, 2))


# -- a minimal independent polynomial expander -------------------------------


def poly_mul(f: dict, g: dict, p: int) -> dict:
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = (out.get(e, 0) + c1 * c2) % p
    return {e: c for e, c in out.items() if c}


def _add_into(acc: dict, f: dict, scale: int, p: int):
    for e, c in f.items():
        v = (acc.get(e, 0) + scale * c) % p
        if v:
            acc[e] = v
        else:
            acc.pop(e, None)


def _block_poly(exponent_rows, offset: int, nvars: int) -> dict:
    out: dict = {}
    for row in exponent_rows:
        exps = [0] * nvars
        for slot, e in enumerate(row):
            exps[offset + slot] = e
        key = tuple(exps)
        out[key] = out.get(key, 0) + 1
    return out


def _elementary(i: int, offset: int, size: int, nvars: int) -> dict:
    if i > size:
        return {}
    rows = []
    for combo in itertools.combinations(range(size), i):
        rows.append([1 if v in combo else 0 for v in range(size)])
    return _block_poly(rows, offset, nvars)


def _complete(j: int, offset: int, size: int, nvars: int, p: int) -> dict:
    if size == 0:
        return {(0,) * nvars: 1} if j == 0 else {}
    rows = []
    for combo in itertools.combinations_with_replacement(range(size), j):
        rows.append([combo.count(v) for v in range(size)])
    return {e: c % p for e, c in _block_poly(rows, offset, nvars).items() if c % p}


class Expander:
    """Expands generator monomials at one level (m, n) over F_p."""

    def __init__(self, m: int, n: int, p: int):
        self.m, self.n, self.p = m, n, p
        self.nvars = m + n
        self._symbols: dict = {}
        self._keys: dict = {}

    def symbol(self, kind: str, idx: int) -> dict:
        sym = self._symbols.get((kind, idx))
        if sym is None:
            sym = self._build_symbol(kind, idx)
            self._symbols[(kind, idx)] = sym
        return sym

    def _build_symbol(self, kind: str, idx: int) -> dict:
        m, n, p, nv = self.m, self.n, self.p, self.nvars
        if kind == "C":
            out: dict = {}
            for i in range(0, min(idx, m) + 1):
                term = poly_mul(_elementary(i, 0, m, nv), _complete(idx - i, m, n, nv, p), p)
                _add_into(out, term, 1 if (idx - i) % 2 == 0 else -1, p)
            return out
        if kind in ("EX", "EY"):
            offset, size = (0, m) if kind == "EX" else (m, n)
            base = _elementary(idx, offset, size, nv)
            # Frobenius: over F_p, (sum of monomials)^p scales exponents by p.
            return {tuple(a * p for a in e): c for e, c in base.items()}
        if kind == "U":
            return {tuple([idx] * m + [p - idx] * n): 1}
        raise ValueError(f"unknown symbol kind {kind!r}")

    def key(self, key: tuple) -> dict:
        out = self._keys.get(key)
        if out is None:
            out = {(0,) * self.nvars: 1}
            for (kind, idx), e in key:
                for _ in range(e):
                    out = poly_mul(out, self.symbol(kind, idx), self.p)
            self._keys[key] = out
        return out

    def expand(self, terms: dict) -> dict:
        out: dict = {}
        for key, c in terms.items():
            _add_into(out, self.key(key), c, self.p)
        return out


def symbol_weight(kind: str, idx: int, m: int, n: int, p: int) -> int:
    if kind == "C":
        return idx
    if kind in ("EX", "EY"):
        return p * idx
    return m * idx + n * (p - idx)


_KIND_RANK = {"C": 0, "EX": 1, "EY": 2, "U": 3}


def random_gen_terms(shapes: random.Random, coeffs: random.Random, m: int, n: int,
                     p: int, weight: int, nterms: int) -> dict:
    """Generator expression of up to ``nterms`` distinct terms, each of
    weighted degree exactly ``weight`` (a C[1] always fits, so every term
    fills up).  ``shapes`` picks the symbols, ``coeffs`` the coefficients."""
    symbols = [("C", r) for r in range(1, weight + 1)]
    symbols += [("EX", i) for i in range(1, m + 1)]
    symbols += [("EY", j) for j in range(1, n + 1)]
    symbols += [("U", k) for k in range(1, p)]
    keys: list = []
    for _ in range(4 * nterms):
        budget = weight
        acc: dict = {}
        while budget:
            sym = shapes.choice([s for s in symbols if symbol_weight(*s, m, n, p) <= budget])
            acc[sym] = acc.get(sym, 0) + 1
            budget -= symbol_weight(*sym, m, n, p)
        key = tuple(sorted(acc.items(), key=lambda kv: (_KIND_RANK[kv[0][0]], kv[0][1])))
        if key not in keys:
            keys.append(key)
            if len(keys) == nterms:
                break
    return {key: coeffs.randint(1, p - 1) for key in keys}


def poly_text(f: dict, m: int, n: int) -> str:
    """Canonical text: graded-lex descending, the command line grammar."""
    if not f:
        return "0"
    names = [f"x{i}" for i in range(1, m + 1)] + [f"y{j}" for j in range(1, n + 1)]
    parts = []
    for exps in sorted(f, key=lambda e: (sum(e), e), reverse=True):
        c = f[exps]
        factors = [names[s] if e == 1 else f"{names[s]}^{e}" for s, e in enumerate(exps) if e]
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append(f"{c}*" + "*".join(factors))
    return " + ".join(parts)


# -- per-workload corpora ----------------------------------------------------


def _expanders():
    cache: dict = {}

    def get(m, n, p):
        if (m, n, p) not in cache:
            cache[(m, n, p)] = Expander(m, n, p)
        return cache[(m, n, p)]

    return get


def roundtrip_inputs(rng: random.Random) -> list[str]:
    """expand(e) for e of weighted degree 1..10 and 1..3 terms, two of
    each per (m, n, p), in that order."""
    shapes, get = random.Random("roundtrip:shapes"), _expanders()
    lines = []
    for m, n in ROUNDTRIP_LEVELS:
        for p in ROUNDTRIP_PRIMES:
            for weight in ROUNDTRIP_WEIGHTS:
                for nterms in ROUNDTRIP_TERMS * ROUNDTRIP_REPEATS:
                    e = random_gen_terms(shapes, rng, m, n, p, weight, nterms)
                    lines.append(f"{m} {n} {p} {poly_text(get(m, n, p).expand(e), m, n)}")
    return lines


def core_peel_inputs(rng: random.Random) -> list[str]:
    """(x_1..x_m)^a (y_1..y_n)^b * expand(e), e of two terms, one per
    (m, n, p, a + b, weight of e, a) with a in {1, a + b}."""
    shapes, get = random.Random("core_peel:shapes"), _expanders()
    lines = []
    for m, n in CORE_PEEL_LEVELS:
        for p, totals in CORE_PEEL_TOTALS.items():
            for total in totals:
                for weight in CORE_PEEL_WEIGHTS:
                    for a in (1, total):
                        e = get(m, n, p).expand(
                            random_gen_terms(shapes, rng, m, n, p, weight, 2))
                        core = tuple([a] * m + [total - a] * n)
                        f = {tuple(x + y for x, y in zip(exps, core)): c
                             for exps, c in e.items()}
                        lines.append(f"{m} {n} {p} {poly_text(f, m, n)}")
    return lines


def dims_cells() -> list[tuple]:
    return [(m, n, p, d) for m, n, p, dmax in DIMS_GRID for d in range(DIMS_MIN_D, dmax + 1)]


def dims_inputs(rng: random.Random) -> list[str]:
    """Every (m, n, p, d) cell of the grid once, in seeded order."""
    cells = dims_cells()
    rng.shuffle(cells)
    return [" ".join(map(str, c)) for c in cells]


def lift_cells() -> list[tuple]:
    cells = []
    for p in LIFT_PRIMES:
        for k in range(1, p):
            s = -(-k // (p - k))
            if LIFT_MIN_S <= s <= LIFT_MAX_S:
                levels = LIFT_MAX_S_LEVELS if s == LIFT_MAX_S else LIFT_LEVELS
                cells.extend((p, k, m, n) for m, n in levels)
    return cells


def lift_inputs(rng: random.Random) -> list[str]:
    """Every (p, k, m, n) lift with 3 <= s <= 8 once, in seeded order."""
    cells = lift_cells()
    rng.shuffle(cells)
    return [" ".join(map(str, c)) for c in cells]


GENERATORS = {
    "roundtrip": roundtrip_inputs,
    "core_peel": core_peel_inputs,
    "dims": dims_inputs,
    "lift": lift_inputs,
}
WORKLOADS = tuple(GENERATORS)


def make_inputs(workload: str, seed: int) -> str:
    """The workload's corpus as text, one op per line."""
    rng = random.Random(f"{workload}:{seed}")
    return "\n".join(GENERATORS[workload](rng)) + "\n"
