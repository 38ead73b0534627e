"""Verification suites shared by the CLI selftest and the test suite.

Each function sweeps one documented property over its full grid and
tallies one (label, ok) pair per case into (ok, detail).  run_all
executes everything with timings.  The residual exponent law is a
deliberate exception: it asserts a stronger statement than the
decomposition actually guarantees and fails on documented
counterexamples, so it carries expected_ok=False.  See the README for
the analysis.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .decompose import _decompose, decompose, trace_decomposition, verify_decomposition
from .generators import enumerate_deltas, kseq, make_v, sigma_x_p, sigma_y_p, u_k
from .genexpr import GenExpr, expand, level_symbols
from .oracle import (as_dimension, brace_identity_check, cr_generating_check,
                     generated_dimension, psi_w_check, round_identity_check)
from .poly_core import Ring, set_xm_zero
from .supersym import is_p_balanced, is_strictly_supersymmetric, is_supersymmetric

FULL_PRIMES = (3, 5, 7)
SMALL_PRIMES = (3, 5)
FULL_DIMS = (1, 2, 3)
CELLS = ((1, 1), (2, 1), (1, 2), (2, 2))
DIMENSION_DMAX = 12  # criterion 4: degrees 0..12 of every (p, cell)
ROUNDTRIP_COUNT = 200  # criterion 5: inputs per (p, cell)
ROUNDTRIP_MAX_WEIGHT = 10
ROUNDTRIP_SEED = 20240801
CR_RMAX = 6  # criterion 7: c_1 .. c_6
MEMBERSHIP_DIMS = (1, 2)  # criterion 8


@dataclass
class CheckResult:
    name: str
    ok: bool
    expected_ok: bool
    detail: str
    seconds: float


def _grid():
    for p in FULL_PRIMES:
        for k in range(1, p):
            for m in FULL_DIMS:
                for n in FULL_DIMS:
                    yield p, k, m, n


def _tally(noun: str, outcomes) -> tuple[bool, str]:
    """(ok, detail) of a suite from its (label, ok) pairs: the count of
    pairs in ``noun``, then the labels of the first three failures."""
    count, bad = 0, []
    for count, (label, ok) in enumerate(outcomes, 1):
        if not ok:
            bad.append(label)
    return not bad, f"{count} {noun}" + (f", failures: {bad[:3]}..." if bad else "")


def check_vk_contract() -> tuple[bool, str]:
    """v_k is block symmetric, homogeneous of degree (m-1)k + (p-k)n,
    killed by d/dT after x_m = y_n = T, and restricts to u_k(m-1|n)."""
    def outcomes():
        for p, k, m, n in _grid():
            v = make_v(p, k, m, n)
            yield (p, k, m, n), (
                is_supersymmetric(v).overall
                and {sum(e) for e in v.terms} == {(m - 1) * k + (p - k) * n}
                and set_xm_zero(v) == u_k(k, Ring(m - 1, n, False, p))
            )
    return _tally("cells", outcomes())


def check_psi_w() -> tuple[bool, str]:
    """The closed form of the T image of w, modulo the kernel of d/dT."""
    return _tally("cells", (((p, k, m, n), psi_w_check(m, n, kseq(p, k)))
                            for p, k, m, n in _grid()))


def check_bracket_identities() -> tuple[bool, str]:
    """Both bracket substitution identities, exhaustively.

    Admissible tuples: every delta sequence for s, l from 0 to s for the
    brace family (the signed sum only uses 1 <= l <= s-1), j over the
    defining range of the left side bracket.
    """
    def outcomes():
        for p in FULL_PRIMES:
            for k in range(1, p):
                ks = kseq(p, k)
                deltas = enumerate_deltas(ks.s)
                for m in FULL_DIMS:
                    for n in FULL_DIMS:
                        for delta in deltas:
                            for j in range(0, n + 1):
                                for l in range(0, ks.s + 1):
                                    yield (("brace", p, k, m, n, delta, l, j),
                                           brace_identity_check(delta, l, j, m, n, ks))
                            for j in range(0, n):
                                yield (("round", p, k, m, n, delta, j),
                                       round_identity_check(delta, j, m, n, ks))
    return _tally("identities", outcomes())


def check_dimensions() -> tuple[bool, str]:
    """Kernel dimension equals generated dimension, degree by degree."""
    def outcomes():
        for p in SMALL_PRIMES:
            for m, n in CELLS:
                for d in range(DIMENSION_DMAX + 1):
                    da = as_dimension(m, n, p, d)
                    dg = generated_dimension(m, n, p, d)
                    yield (m, n, p, d, da, dg), da == dg
    return _tally("degree cells", outcomes())


def random_gen_expr(rng: random.Random, m: int, n: int, p: int,
                    max_weight: int = 10, max_terms: int = 4) -> GenExpr:
    """Random formal generator polynomial of bounded weighted degree."""
    symbols = level_symbols(m, n, p, max_weight)
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        budget = max_weight
        acc: dict = {}
        while True:
            options = [s for s, w in symbols.items() if w <= budget]
            if not options or (acc and rng.random() < 0.4):
                break
            sym = rng.choice(options)
            acc[sym] = acc.get(sym, 0) + 1
            budget -= symbols[sym]
        key = tuple(sorted(acc.items()))
        terms[key] = (terms.get(key, 0) + rng.randint(1, p - 1)) % p
    return GenExpr(m, n, p, terms)


def _roundtrip_inputs():
    """The criterion-5 inputs: (ring, e) for ``ROUNDTRIP_COUNT`` random
    expressions per prime and cell, each cell with its own seeded stream."""
    for p in SMALL_PRIMES:
        for m, n in CELLS:
            ring = Ring(m, n, False, p)
            rng = random.Random(ROUNDTRIP_SEED + 1000 * p + 10 * m + n)
            for _ in range(ROUNDTRIP_COUNT):
                yield ring, random_gen_expr(rng, m, n, p, ROUNDTRIP_MAX_WEIGHT)


def check_roundtrip():
    """expand -> decompose -> expand is the identity on random inputs,
    and every core the recursion peels on the way has a > 0 and a + b
    divisible by p.

    The inputs run through the pure recursion (span limit 0), so that
    its residues and peels are exercised at every degree.  Returns (ok,
    detail, trace); the trace records every residue the recursion
    factored, for the exponent law check below.
    """
    def outcomes(trace):
        for ring, e in _roundtrip_inputs():
            f = expand(e, ring)
            level = (ring.p, ring.m, ring.n)
            first_peel = len(trace.peels)
            try:
                e2 = _decompose(f, 0)
            except Exception as exc:  # InternalInvariantViolation included
                yield (*level, repr(exc)), False
                continue
            broken = [r for r in trace.peels[first_peel:] if not _is_lawful_peel(*r)]
            if broken:
                yield (*level, "peeled core", broken[0]), False
            else:
                yield (*level, "re-expansion mismatch"), verify_decomposition(f, e2)

    with trace_decomposition() as trace:
        results = list(outcomes(trace))
    ok, detail = _tally(f"roundtrips, {len(trace.residues)} residues factored", results)
    return ok, detail, trace


def _is_lawful_peel(m: int, n: int, p: int, a: int, b: int) -> bool:
    """The peeled core law, which is all ``_core_term`` needs at n >= 1."""
    return a > 0 and b >= 0 and (a + b) % p == 0


def check_residual_exponent_law(trace) -> tuple[bool, str]:
    """Literal exponent law on every factored residue: its maximal core
    (a, b) has a > 0 and a + b divisible by p.

    The decomposition only guarantees the law for the cores it actually
    peels; residues such as the one forced by u_1 * c_2 at level (1, 1),
    p = 3 (maximal core (1, 3)) violate the raw statement.  This check
    is kept deliberately and is expected to fail; see the README.
    """
    bad = [r for r in trace.residues if not (r[4] > 0 and (r[4] + r[5]) % r[2] == 0)]
    detail = f"{len(trace.residues)} residues, {len(bad)} violate the law"
    if bad:
        detail += f"; first: (m,n,p,degree,a,b)={bad[0]}"
    return not bad, detail


def check_cr_properties() -> tuple[bool, str]:
    """c_r is supersymmetric and strictly so; the generating identity holds."""
    from .generators import c_r

    def outcomes():
        for p in FULL_PRIMES:
            for m in FULL_DIMS:
                for n in FULL_DIMS:
                    ring = Ring(m, n, False, p)
                    for r in range(1, CR_RMAX + 1):
                        yield (p, m, n, r), is_strictly_supersymmetric(c_r(r, ring))
                    yield (p, m, n, "generating"), cr_generating_check(m, n, p, m + n + 3)
    return _tally("checks", outcomes())


def check_vk_membership() -> tuple[bool, str]:
    """decompose succeeds on every v_k and the certificate verifies."""
    def outcomes():
        for p in SMALL_PRIMES:
            for k in range(1, p):
                for m in MEMBERSHIP_DIMS:
                    for n in MEMBERSHIP_DIMS:
                        v = make_v(p, k, m, n)
                        try:
                            e = decompose(v)
                        except Exception as exc:
                            yield (p, k, m, n, repr(exc)), False
                            continue
                        yield (p, k, m, n, "mismatch"), verify_decomposition(v, e)
    return _tally("lifts", outcomes())


def check_balanced_generators() -> tuple[bool, str]:
    """sigma_i(x)^p, sigma_j(y)^p and u_k are all p balanced."""
    def outcomes():
        for p in FULL_PRIMES:
            for m in FULL_DIMS:
                for n in FULL_DIMS:
                    ring = Ring(m, n, False, p)
                    polys = [sigma_x_p(i, ring) for i in range(1, m + 1)]
                    polys += [sigma_y_p(j, ring) for j in range(1, n + 1)]
                    polys += [u_k(k, ring) for k in range(1, p)]
                    for f in polys:
                        yield (p, m, n), is_p_balanced(f)
    return _tally("generators", outcomes())


def run_all() -> list[CheckResult]:
    """Run the nine acceptance suites; used by the CLI selftest."""
    results = []

    def run(name, fn, expected_ok=True):
        t0 = time.perf_counter()
        out = fn()
        results.append(CheckResult(name, out[0], expected_ok, out[1], time.perf_counter() - t0))
        return out

    run("1 lift contract", check_vk_contract)
    run("2 collapsed image of w", check_psi_w)
    run("3 bracket identities", check_bracket_identities)
    run("4 dimension agreement", check_dimensions)
    _, _, trace = run("5 decomposition roundtrip", check_roundtrip)
    run("6 residual exponent law", lambda: check_residual_exponent_law(trace), expected_ok=False)
    run("7 c_r properties", check_cr_properties)
    run("8 lift decomposes over generators", check_vk_membership)
    run("9 balanced generator family", check_balanced_generators)
    return results
