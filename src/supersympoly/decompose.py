"""Constructive decomposition over the generator families.

Any supersymmetric polynomial is rewritten as a GenExpr in C, EX, EY
and U symbols, one homogeneous component at a time.  The generator
property says the generator monomials of degree d span the degree d
piece of the algebra, so there are two engines, and each component
(and each component the recursion reaches) picks one by the number of
generator monomials of its degree at its level:

* Up to ``_SPAN_LIMIT`` monomials, the component is written directly in
  their span by exact linear algebra over F_p (``GenSpan.solve``).
* Above it, the recursion behind the generator property runs: restrict
  x_m to 0, decompose the restriction one level down, lift the result
  back (sending each U[k] to the explicit lift polynomial v_k, which
  restricts to the core u_k one level down), and subtract.  The residue
  vanishes under the restriction, so its variable cores can be peeled
  off as products of EX[m], EY[n] and U[k] symbols whenever the peeled
  core degree is a multiple of p, and the cofactor is again
  supersymmetric of lower degree.

The span also serves two cases the recursion cannot handle itself:

* The residue's maximal core (a, b) can have a + b below p and not a
  multiple of p (for example x1^3 + x1*y1^2 at level (1, 1), p = 3,
  whose residue is forced to be the input itself).  No core can be
  peeled then, and the residue is solved in the span.
* Expressing v_k itself over the generators through the recursion would
  be self referential (its restriction decomposes to the bare symbol
  U[k], whose lift is v_k again), so the v_k certificates also come
  from the span solver, once per k in the level table's ``vk_pairs``.

Below the input's membership check, every step runs on leader terms
(``poly_core._LeaderTerms``), and a peel's cofactor is checked by the
derivative clause alone.  The input enters leader form through
``poly_core._block_symmetry`` and every expansion through its checked
form ``poly_core._leaders``; README "Design notes" gives why each step
keeps leader terms leader terms.

``_decompose(f, 0)`` runs the pure recursion (every degree has at least
one monomial), which the acceptance suite uses to exercise it.  Every
certificate is built trusted (``poly_core._clean``), a peeled core's
term by ``_core_term``, and ``verify_decomposition`` re-expands it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from math import prod
from operator import itemgetter

from .errors import InternalInvariantViolation, NotSupersymmetricError
# gen_span and v_k stay bound here: the benchmark's tracer test reads both
from .genexpr import _TABLES, GenExpr, _span_solve, expand, gen_span
from .generators import core_exponents, generator_poly, v_k
from .poly_core import (
    Poly,
    Ring,
    _clean,
    _expand_sum,
    _leaders,
    _LeaderTerms,
    _term_key,
    exact_monomial_div,
    homogeneous_components,
    set_xm_zero,
)
from .supersym import _leader_derivative_vanishes, is_supersymmetric


def _core_degrees(f: Poly) -> tuple[int, int]:
    """The largest (a, b) such that (x_1...x_m)^a (y_1...y_n)^b divides
    the nonzero block-symmetric polynomial whose leader terms are f: the
    least last x field and the least last y field over the leaders, as a
    leader's last field is its block's least exponent."""
    m, n = f.ring.m, f.ring.n
    a = min(map(itemgetter(m - 1), f.terms)) if m else 0
    b = min(map(itemgetter(m + n - 1), f.terms)) if n else 0
    return a, b


def _core_term(ring: Ring, a: int, b: int) -> GenExpr:
    """A peel's core (x_1..x_m)^a (y_1..y_n)^b, a + b divisible by p and
    n >= 1, as one term: with a = alpha*p + k0 it is EX[m]^alpha * U[k0]
    * EY[n]^beta, where U[k0] absorbs the off-multiple parts for k0 > 0
    and the remaining y core (y_1..y_n)^(p*beta) is a p-th power."""
    m, n, p = ring.m, ring.n, ring.p
    alpha, k0 = divmod(a, p)
    beta = (b - (p - k0 if k0 else 0)) // p
    # in canonical key order: EX, EY, U
    factors = ((("EX", m), alpha), (("EY", n), beta), (("U", k0), 1 if k0 else 0))
    return _clean(ring, {tuple(f for f in factors if f[1]): 1}, GenExpr)


# -- v_k certificates ---------------------------------------------------------

def vk_gen_expr(m: int, n: int, p: int, k: int) -> GenExpr:
    """GenExpr certificate for v_k at level (m, n), solved once."""
    return _TABLES(m, n, p).vk_pairs(k)[1]


# -- decomposition trace ------------------------------------------------------


@dataclass
class DecomposeTrace:
    """Observational record of one or more decomposition runs."""

    residues: list = field(default_factory=list)  # (m, n, p, degree, a, b)
    peels: list = field(default_factory=list)  # (m, n, p, a_peel, b_peel)
    span_solves: list = field(default_factory=list)  # (m, n, p, degree), unpeelable residues
    span_first: list = field(default_factory=list)  # (m, n, p, degree), small spans
    calls: list = field(default_factory=list)  # (m, degree) per recursion entry


_TRACE = threading.local()


@contextmanager
def trace_decomposition():
    """Collect residue and peel data from decompositions run inside."""
    trace = DecomposeTrace()
    prev = getattr(_TRACE, "current", None)
    _TRACE.current = trace
    try:
        yield trace
    finally:
        _TRACE.current = prev


def _trace_event(kind: str, data):
    trace = getattr(_TRACE, "current", None)
    if trace is not None:
        getattr(trace, kind).append(data)


# -- the algorithm ------------------------------------------------------------

# Components with at most this many generator monomials of their degree
# are solved in the span; fitted on the benchmark corpora (see README).
_SPAN_LIMIT = 130


def decompose(f: Poly) -> GenExpr:
    """Express a supersymmetric polynomial over the generator symbols.

    The result E satisfies expand(E, f.ring) == f; it is a valid
    representation, not a canonical one.  The membership check and the
    input's leader terms come from one block-symmetry pass.  Raises
    NotSupersymmetricError for inputs outside the algebra and
    InternalInvariantViolation if an internal step contradicts the
    theory (which would indicate a bug).
    """
    return _decompose(f, _SPAN_LIMIT)


def _decompose(f: Poly, span_limit: int) -> GenExpr:
    """``decompose`` with the span limit as a parameter; 0 runs the
    pure restrict / lift / peel recursion."""
    ring = f.ring
    if ring.has_t:
        raise ValueError("decompose applies to polynomials without T")
    verdict = is_supersymmetric(f)
    if not verdict.overall:
        raise NotSupersymmetricError(
            f"input is not supersymmetric: symmetric_x={verdict.symmetric_x}, "
            f"symmetric_y={verdict.symmetric_y}, "
            f"derivative_vanishes={verdict.derivative_vanishes}"
        )
    total = _clean(ring, {}, GenExpr)
    for _, comp in homogeneous_components(verdict.leaders):
        total = total + _decompose_homogeneous(comp, None, span_limit)
    return total


def verify_decomposition(f: Poly, e: GenExpr) -> bool:
    """True iff the certificate expands back to f exactly."""
    return expand(e, f.ring) == f


def _decompose_homogeneous(f: _LeaderTerms, parent: tuple | None, span_limit: int) -> GenExpr:
    """Certificate of the homogeneous supersymmetric polynomial whose
    leader terms are f."""
    ring = f.ring
    m, n, p = ring.m, ring.n, ring.p
    degree = f.degree()
    key = (m, degree)
    if parent is not None and key >= parent:
        raise InternalInvariantViolation(
            f"termination metric did not decrease: {parent} -> {key}"
        )
    _trace_event("calls", key)

    if degree == 0:
        return _clean(ring, {(): next(iter(f.terms.values()))}, GenExpr)
    if _TABLES(m, n, p).counts(degree) <= span_limit:
        _trace_event("span_first", (m, n, p, degree))
        return _span_solve(f, degree)
    if m == 0 or n == 0:
        return _base_one_block(f)

    f0 = set_xm_zero(f)
    if f0.is_zero:
        lifted_expr = _clean(ring, {}, GenExpr)
        residue = f
    else:
        h = _decompose_homogeneous(f0, key, span_limit)
        lifted_poly, lifted_expr = _lift(h, ring)
        residue = f - _leaders(lifted_poly, "the lifted polynomial")
        if not set_xm_zero(residue).is_zero:
            raise InternalInvariantViolation(
                "lifted expression does not match the restriction"
            )
    if residue.is_zero:
        return lifted_expr

    a, b = _core_degrees(residue)
    _trace_event("residues", (m, n, p, degree, a, b))
    if a < 1:
        raise InternalInvariantViolation("residue is not divisible by x_m")

    peel_total = (a + b) - (a + b) % p
    if peel_total > 0:
        a_peel = min(a, peel_total)
        b_peel = peel_total - a_peel
        cofactor = exact_monomial_div(residue, core_exponents(ring, a_peel, b_peel))
        # block symmetry holds by construction: the cofactor is leader terms
        if not _leader_derivative_vanishes(cofactor):
            raise InternalInvariantViolation(
                "core cofactor left the supersymmetric algebra"
            )
        _trace_event("peels", (m, n, p, a_peel, b_peel))
        core_expr = _core_term(ring, a_peel, b_peel)
        return lifted_expr + core_expr * _decompose_homogeneous(cofactor, key, span_limit)

    # 0 < a + b < p: no admissible core; certify through the span directly.
    expr = _span_solve(residue, degree)
    _trace_event("span_solves", (m, n, p, degree))
    return lifted_expr + expr


def _lift(h: GenExpr, ring: Ring) -> tuple[Poly, GenExpr]:
    """Lift a level (m-1, n) certificate to level (m, n).

    C, EX and EY symbols keep their names (their level (m, n) versions
    restrict to the level (m-1, n) ones when x_m = 0), while each U[k]
    becomes the lift v_k: as a polynomial for the subtraction step, and
    as its span certificate for the returned expression.  The polynomial
    is one ``_expand_sum`` of h's terms with U[k] standing for v_k,
    bounded by h's weighted degree: deg v_k = (m-1)k + (p-k)n is the
    weight of U[k] at level (m-1, n).
    """
    m, n, p = ring.m, ring.n, ring.p
    expr_total = _clean(ring, {}, GenExpr)
    for hkey, c in h.terms.items():
        plain = []
        expr_part = _clean(ring, {(): c}, GenExpr)
        for (kind, idx), e in hkey:
            if kind == "U":
                expr_part = expr_part * vk_gen_expr(m, n, p, idx) ** e
            else:
                plain.append(((kind, idx), e))
        if plain:
            expr_part = expr_part * _clean(ring, {tuple(plain): 1}, GenExpr)
        expr_total = expr_total + expr_part

    def symbol_poly(kind: str, idx: int) -> Poly:
        return _TABLES(m, n, p).vk_pairs(idx)[0] if kind == "U" else generator_poly(kind, idx, ring)

    return _expand_sum([h.terms], ring, h.weighted_degree() or 0, symbol_poly), expr_total


def _base_one_block(f: _LeaderTerms) -> GenExpr:
    """Levels (m, 0) and (0, n): eliminate over e_r of the one block,
    straight into C symbols.

    The elimination runs in x, on leader terms.  Each step takes the
    graded-lex leading exponent lam of the work left, a leader and so a
    partition, writes c * prod_r C[r]^(lam_r - lam_{r+1}) into the
    certificate and subtracts the leader terms of its expansion, which
    has the same leading term, as c_r equals e_r(x) at (m, 0); the
    leading term of a symmetric polynomial is the leader of its orbit,
    so it stays the leading term of the leader terms.  A level (0, n)
    is the x <-> y swap of (n, 0) (Stembridge 1985): f's terms are the
    same exponent tuples at (n, 0), and each C[r] of that certificate is
    then read as e_r(y), which the generating function
    sum_r c_r t^r * prod_j (1 + y_j t) = 1 writes as
    e_r(y) = -sum_{i=1..r} C[i] e_{r-i}(y).
    """
    ring = f.ring
    out = {}  # the certificate's terms
    work = _clean(Ring(ring.m + ring.n, 0, False, ring.p), f.terms, _LeaderTerms)
    c_poly = partial(generator_poly, ring=work.ring)
    while not work.is_zero:
        exps, c = work.leading()
        lam = exps + (0,)  # the ring holds the block alone
        top = lam.index(0)
        key = tuple((("C", r), lam[r - 1] - lam[r]) for r in range(1, top + 1) if lam[r - 1] > lam[r])
        out[key] = c
        work = work - _leaders(_expand_sum([{key: c}], work.ring, sum(exps), c_poly), "a C monomial's expansion")
        # This check also ends the loop: graded-lex leading terms of
        # bounded degree cannot decrease forever.
        if not work.is_zero and _term_key(work.leading()[0]) >= _term_key(exps):
            raise InternalInvariantViolation("leading term did not decrease")
    if ring.n == 0:
        return _clean(ring, out, GenExpr)
    elem = [1]  # e_r(y) over C for r <= n, from e_0 = 1
    for r in range(1, ring.n + 1):
        elem.append(-sum(_clean(ring, {((("C", i), 1),): 1}, GenExpr) * elem[r - i]
                         for i in range(1, r + 1)))
    return sum((c * prod(elem[r] ** d for (_, r), d in key) for key, c in out.items()),
               _clean(ring, {}, GenExpr))
