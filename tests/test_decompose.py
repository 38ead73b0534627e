import hashlib
import importlib
import random
import threading
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from supersympoly import (
    Block,
    InternalInvariantViolation,
    NotSupersymmetricError,
    Poly,
    Ring,
    c_r,
    complete,
    decompose,
    elementary,
    exact_monomial_div,
    expand,
    homogeneous_components,
    make_v,
    one,
    parse_poly,
    parse_gen_expr,
    poly_to_str,
    serialize_gen_expr,
    u_k,
    verify_decomposition,
    vk_gen_expr,
    zero,
)
from supersympoly.decompose import (
    _SPAN_LIMIT,
    _core_degrees,
    _core_term,
    _decompose,
    _decompose_homogeneous,
    _lift,
    trace_decomposition,
)
from supersympoly.generators import core_exponents
from supersympoly import generators, genexpr, poly_core
from supersympoly.genexpr import gen_span
from supersympoly.oracle import as_dimension, generated_dimension, partitions_max_parts
from supersympoly.poly_core import _block_symmetry, _Memo
from supersympoly.selfcheck import _roundtrip_inputs, random_gen_expr

from helpers import expansion_cap, gen_exprs, is_leader, orbit_sym, reference_lift_poly

# the module, which the package's ``decompose`` function shadows
decompose_module = importlib.import_module("supersympoly.decompose")

R11 = Ring(1, 1, False, 3)
R21 = Ring(2, 1, False, 3)


def recursion(f):
    """decompose with no span-first components: the pure restrict /
    lift / peel recursion, for the tests about the recursion itself."""
    return _decompose(f, 0)


class TestFactorCore:
    """The maximal core (a, b) the peel step reads with ``_core_degrees``,
    and the cofactor left by dividing it off."""

    def test_mixed_core(self):
        # on leader terms, as the peel reads them; the block-symmetric
        # cofactor is coprime to both cores
        g = parse_poly("x1 + x2 + y1", R21)
        f = _block_symmetry(parse_poly("x1*x2*y1", R21) * g)[2]
        assert _core_degrees(f) == (1, 1)
        assert exact_monomial_div(f, core_exponents(R21, 1, 1)) == _block_symmetry(g)[2]

    def test_pure_x_power(self):
        r10 = Ring(1, 0, False, 3)
        f = parse_poly("x1^3", r10)
        assert _core_degrees(f) == (3, 0)
        assert exact_monomial_div(f, core_exponents(r10, 3, 0)) == parse_poly("1", r10)

    def test_maximality(self):
        f = parse_poly("x1^2*y1^3 + x1^3*y1^2", R11)
        assert _core_degrees(f) == (2, 2)


class TestCoreToGenerators:
    """A peeled core written over the generators as one term, by ``_core_term``."""

    def test_pure_p_power(self):
        e = _core_term(R11, 3, 0)
        assert serialize_gen_expr(e) == "EX[1]"

    def test_single_core(self):
        e = _core_term(R11, 1, 2)
        assert serialize_gen_expr(e) == "U[1]"

    def test_mixed(self):
        e = _core_term(R21, 4, 5)
        assert serialize_gen_expr(e) == "EX[2]*EY[1]*U[1]"

    def test_expansion_matches_core(self):
        for p in (3, 5):
            for m in (1, 2):
                for n in (1, 2):
                    ring = Ring(m, n, False, p)
                    for a in range(0, 2 * p):
                        for b in range(0, 2 * p):
                            if (a + b) % p:
                                continue
                            core = (a,) * m + (b,) * n
                            assert expand(_core_term(ring, a, b), ring) == Poly(ring, {core: 1})


class TestDecompose:
    def test_constant(self):
        e = decompose(parse_poly("2", R11))
        assert serialize_gen_expr(e) == "2"

    def test_c2_round_trip(self):
        f = c_r(2, R11)
        e = decompose(f)
        assert verify_decomposition(f, e)

    def test_mixed_degrees(self):
        f = c_r(1, R11) + c_r(2, R11) * c_r(1, R11)
        e = decompose(f)
        assert verify_decomposition(f, e)

    def test_product_example(self):
        f = u_k(1, R11) * c_r(1, R11)
        e = decompose(f)
        assert verify_decomposition(f, e)
        # weighted symbol degrees sum to the polynomial degree
        assert e.weighted_degree() == f.degree() == 4

    def test_rejects_non_member(self):
        # the one-block levels too, before the base case sees the input
        for ring, text in ((R11, "x1"), (Ring(2, 0, False, 3), "x1"), (Ring(0, 2, False, 5), "y1*y2^2")):
            with pytest.raises(NotSupersymmetricError):
                decompose(parse_poly(text, ring))

    def test_verify_distinguishes(self):
        f = c_r(1, R11)
        good = parse_gen_expr("C[1]", 1, 1, 3)
        bad = parse_gen_expr("C[2]", 1, 1, 3)
        assert verify_decomposition(f, good)
        assert not verify_decomposition(f, bad)

    def test_zero_input(self):
        assert decompose(zero(R11)).is_zero


class TestCornerResiduals:
    # inputs whose forced residual has a maximal core that is not a
    # multiple of p; in the recursion they exercise the span fallback,
    # and ``decompose`` solves these small degrees in the span directly

    def test_px_power_plus_core(self):
        f = parse_poly("x1^3 + x1*y1^2", R11)
        e = decompose(f)
        assert verify_decomposition(f, e)
        assert serialize_gen_expr(e) == "EX[1] + U[1]"

    def test_stuck_core_degree_four(self):
        f = parse_poly("x1^4 - x1^2*y1^2", R11)
        e = decompose(f)
        assert verify_decomposition(f, e)

    def test_core_times_c2(self):
        f = u_k(1, R11) * c_r(2, R11)
        with trace_decomposition() as trace:
            e = recursion(f)
        assert verify_decomposition(f, e)
        # the documented counterexample: maximal core (1, 3), sum 4
        assert (1, 1, 3, 5, 1, 3) in trace.residues

    def test_level_two_relation_residual(self):
        f = c_r(1, R21) * c_r(3, R21) - c_r(2, R21) ** 2
        e = decompose(f)
        assert verify_decomposition(f, e)


class TestBaseLevels:
    def test_y_only(self):
        r = Ring(0, 2, False, 3)
        f = parse_poly("y1^2*y2 + y1*y2^2", r)
        e = recursion(f)
        assert verify_decomposition(f, e)
        assert all(kind == "C" for key in e.terms for (kind, _), _ in key)

    def test_x_only(self):
        r = Ring(2, 0, False, 3)
        f = parse_poly("x1^2 + x1*x2 + x2^2", r)
        e = decompose(f)
        assert verify_decomposition(f, e)
        assert all(kind == "C" for key in e.terms for (kind, _), _ in key)

    def test_complete_is_signed_c(self):
        # at (0, n), c_r = (-1)^r h_r(y)
        r = Ring(0, 2, False, 3)
        e = decompose(parse_poly("y1^2 + y1*y2 + y2^2", r))
        assert serialize_gen_expr(e) == "C[2]"

    def test_elementary_y_over_c(self):
        r = Ring(0, 2, False, 3)
        e = recursion(elementary(2, Block.Y, r))
        assert e == parse_gen_expr("C[1]^2 - C[2]", 0, 2, 3)

    def test_certificates_are_pinned(self):
        """The base-level certificates of every monomial symmetric
        function of degree <= 10, blocks of size 1-3, both blocks,
        p in {3, 5, 7}, hash to the digest they had when this test was
        written."""
        digest = hashlib.sha256()
        count = 0
        for p in (3, 5, 7):
            for size in (1, 2, 3):
                for block in (Block.X, Block.Y):
                    ring = Ring(size, 0, False, p) if block is Block.X else Ring(0, size, False, p)
                    for degree in range(1, 11):
                        for lam in partitions_max_parts(degree, size):
                            f = orbit_sym(lam, block, ring)
                            cert = serialize_gen_expr(recursion(f))
                            digest.update(f"{ring.m} {ring.n} {p} {poly_to_str(f)} {cert}\n".encode())
                            count += 1
        assert count == 666
        assert digest.hexdigest() == "46a40a79bc1ea298787f2a5b3bf5aeba1bf5ffe162a8801759a74f61504bb3ef"


def _benchmark_corpus():
    """``perfbench/corpus.py``, read only: its source runs in a fresh
    module namespace, so nothing is written beside it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    corpus = types.ModuleType("corpus")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), corpus.__dict__)
    return corpus


def test_benchmark_certificates_are_pinned():
    """Every ``decompose`` certificate of the benchmark's roundtrip and
    core_peel corpora, seeds 1-3, hashes to the digest the CI step pins:
    certificates are text outputs, so a change that keeps them must keep
    every byte.  The path is pinned too: the repr of the trace's five
    lists (residues, peels, span solves, span-first components and
    recursion calls) over the same inputs hashes to its own digest."""
    corpus = _benchmark_corpus()
    digest = hashlib.sha256()
    count = 0
    with trace_decomposition() as trace:
        for workload in ("roundtrip", "core_peel"):
            for seed in (1, 2, 3):
                for line in corpus.make_inputs(workload, seed).splitlines():
                    m, n, p, text = line.split(" ", 3)
                    f = parse_poly(text, Ring(int(m), int(n), False, int(p)))
                    digest.update((serialize_gen_expr(decompose(f)) + "\n").encode())
                    count += 1
    assert count == 3 * (480 + 108)
    assert digest.hexdigest() == "fca875ff17c0891a55245a3224c020789697f39d6a3360e41696b3f9f8bfd4df"
    path = (trace.residues, trace.peels, trace.span_solves, trace.span_first, trace.calls)
    assert [len(kind) for kind in path] == [387, 360, 27, 1747, 2180]
    assert hashlib.sha256(repr(path).encode()).hexdigest() == (
        "58043dd627f742dfc085963bf2b24d946bd421b7e781314eb59139c55adf3d31")



def _cold_tables(patch):
    """A fresh, empty ``_TABLES`` in ``genexpr`` and in ``decompose``,
    which binds it by import; a cold ``_TABLES`` holds no span, count
    or v_k pair either."""
    tables = _Memo(genexpr._TABLES.build, genexpr._TABLES.maxsize)
    patch.setattr(genexpr, "_TABLES", tables)
    patch.setattr(decompose_module, "_TABLES", tables)
    return tables


def _cold_memos(patch):
    """Fresh, empty ``_Memo``s in place of the package's two, as in a
    new process."""
    _cold_tables(patch)
    memo = generators._GENERATORS
    patch.setattr(generators, "_GENERATORS", _Memo(memo.build, memo.maxsize))


def test_span_products_per_cold_benchmark_pass_are_pinned():
    """One seed-1 pass of the benchmark's dims, roundtrip and core_peel
    corpora, each with every memo cold, makes exactly the pinned number
    of ``_OrbitLeaders.mul`` products, and leaves in the level tables
    the pinned numbers of spans, of monomials they list and of draws
    their echelons make.  A change that keeps rows and certificates but
    does more span work, or less on purpose, moves a pin: the span work
    is pinned as the certificates are."""
    corpus = _benchmark_corpus()
    products, spans, held = {}, {}, {}
    original = genexpr._OrbitLeaders.mul

    def counting(self, leaders, full):
        products[workload] += 1
        return original(self, leaders, full)

    for workload in ("dims", "roundtrip", "core_peel"):
        products[workload] = 0
        with pytest.MonkeyPatch.context() as patch:
            _cold_memos(patch)
            patch.setattr(genexpr._OrbitLeaders, "mul", counting)
            for line in corpus.make_inputs(workload, 1).splitlines():
                if workload == "dims":
                    m, n, p, d = map(int, line.split())
                    as_dimension(m, n, p, d)
                    generated_dimension(m, n, p, d)
                else:
                    m, n, p, text = line.split(" ", 3)
                    f = parse_poly(text, Ring(int(m), int(n), False, int(p)))
                    assert verify_decomposition(f, decompose(f))
            tables = genexpr._TABLES.values.values()
            built = [span for table in tables for span in table.spans.values.values()]
            spans[workload] = (len(built), sum(len(span.monomials) for span in built),
                               sum(span.echelon._drawn for span in built))
            held[workload] = (sum(len(table.count_row) - 1 for table in tables),
                              sum(len(table.vk_pairs.values) for table in tables))
    assert products == {"dims": 1010, "roundtrip": 864, "core_peel": 401}
    # (spans, listed monomials, draws)
    assert spans == {"dims": (28, 1180, 1180), "roundtrip": (79, 1794, 1202), "core_peel": (19, 379, 332)}
    # (count row entries past degree 0, v_k pairs)
    assert held == {"dims": (0, 0), "roundtrip": (100, 2), "core_peel": (224, 0)}


def test_verify_pairs_per_cold_benchmark_pass_are_pinned(monkeypatch):
    """One seed-1 pass of the benchmark's roundtrip and core_peel
    corpora, each with every memo cold, makes exactly the pinned number
    of ``_packed_mul`` pairs inside ``verify_decomposition``: the
    Horner-order re-expansion on the level tables' power chains.  Flat,
    the sum made 72,008 and 156,034 pairs.  A change that keeps every
    certificate but expands them with more work, or less on purpose,
    moves a pin."""
    corpus = _benchmark_corpus()
    original = poly_core._packed_mul
    pairs, counting = {}, [False]

    def counted(a, b, acc=None):
        if counting[0]:
            pairs[workload] += len(a) * len(b)
        return original(a, b, acc)

    monkeypatch.setattr(poly_core, "_packed_mul", counted)
    for workload in ("roundtrip", "core_peel"):
        pairs[workload] = 0
        with pytest.MonkeyPatch.context() as patch:
            _cold_memos(patch)
            for line in corpus.make_inputs(workload, 1).splitlines():
                m, n, p, text = line.split(" ", 3)
                f = parse_poly(text, Ring(int(m), int(n), False, int(p)))
                e = decompose(f)
                counting[0] = True
                assert verify_decomposition(f, e)
                counting[0] = False
    assert pairs == {"roundtrip": 50399, "core_peel": 114283}


def test_a_parent_key_equal_to_its_own_is_refused():
    """The termination metric (m, degree) must fall strictly on every
    recursive call: handed a parent key equal to its own, the recursion
    raises, and handed a larger one it certifies."""
    ring = Ring(2, 2, False, 3)
    f = c_r(2, ring) * c_r(1, ring)
    _, _, leaders = _block_symmetry(f)
    with pytest.raises(InternalInvariantViolation, match="did not decrease"):
        _decompose_homogeneous(leaders, (2, 3), _SPAN_LIMIT)
    assert expand(_decompose_homogeneous(leaders, (2, 4), _SPAN_LIMIT), ring) == f

@st.composite
def one_block_inputs(draw):
    """A level (m, 0) or (0, n) and a sum of products of elementary and
    complete symmetric functions of its one block, degree <= 8."""
    p = draw(st.sampled_from((3, 5)))
    size = draw(st.integers(1, 3))
    block = draw(st.sampled_from((Block.X, Block.Y)))
    ring = Ring(size, 0, False, p) if block is Block.X else Ring(0, size, False, p)
    f = zero(ring)
    for _ in range(draw(st.integers(1, 3))):
        term = draw(st.integers(1, p - 1)) * one(ring)
        budget = 8
        for _ in range(draw(st.integers(1, 3))):
            family = draw(st.sampled_from((elementary, complete)))
            idx = draw(st.integers(1, min(size + 1, budget)))
            term = term * family(idx, block, ring)
            budget -= idx
            if budget == 0:
                break
        f = f + term
    return f


@settings(max_examples=60, deadline=None)
@given(one_block_inputs())
def test_one_block_round_trip(f):
    e = recursion(f)
    assert all(kind == "C" for key in e.terms for (kind, _), _ in key)
    assert expand(e, f.ring) == f


class TestVkCertificates:
    def test_cached_and_valid(self):
        e1 = vk_gen_expr(2, 2, 3, 2)
        e2 = vk_gen_expr(2, 2, 3, 2)
        assert e1 is e2
        ring = Ring(2, 2, False, 3)
        assert expand(e1, ring) == make_v(3, 2, 2, 2)

    def test_single_flight(self, monkeypatch):
        """A second first call for one key waits for the build under way
        and shares its certificate: v_k is built once."""
        _cold_tables(monkeypatch)
        started, release = threading.Event(), threading.Event()
        builds = []
        original = genexpr.v_k

        def slow_v_k(ks, ring):
            builds.append((ks.k, ring))
            if len(builds) == 1:
                started.set()
                release.wait(30)
            return original(ks, ring)

        monkeypatch.setattr(genexpr, "v_k", slow_v_k)
        results = {}

        def call(name):
            results[name] = vk_gen_expr(2, 1, 3, 1)

        first = threading.Thread(target=call, args=("first",), daemon=True)
        second = threading.Thread(target=call, args=("second",), daemon=True)
        try:
            first.start()
            assert started.wait(30), "the build did not start"
            second.start()
            second.join(0.2)
            assert "second" not in results
        finally:
            release.set()
        first.join(30)
        second.join(30)
        assert not first.is_alive() and not second.is_alive()
        assert results["second"] is results["first"]
        assert builds == [(1, Ring(2, 1, False, 3))]

    def test_an_evicted_level_takes_its_v_k_pairs_with_it(self, monkeypatch):
        """A v_k pair lives in its level's table: once the level is
        evicted, the certificate is solved anew in a new table, whose
        engine counts start empty.  A table holds one pair for each
        0 < k < p."""
        tables = _cold_tables(monkeypatch)
        tables.maxsize = 1
        first = vk_gen_expr(1, 1, 3, 1)
        vk_gen_expr(2, 1, 3, 1)
        again = vk_gen_expr(1, 1, 3, 1)
        assert again is not first
        assert serialize_gen_expr(again) == serialize_gen_expr(first)
        assert tables(1, 1, 3).count_row == [1]
        for k in range(1, 5):
            vk_gen_expr(1, 1, 5, k)
        assert len(tables(1, 1, 5).vk_pairs.values) == 4

    def test_decompose_vk_round_trip(self):
        for p in (3, 5):
            for k in range(1, p):
                for m in (1, 2):
                    for n in (1, 2):
                        v = make_v(p, k, m, n)
                        e = decompose(v)
                        assert verify_decomposition(v, e), (p, k, m, n)


class TestTraceInvariants:
    def test_peeled_cores_obey_exponent_law(self):
        rng = random.Random(11)
        with trace_decomposition() as trace:
            for _ in range(60):
                e = random_gen_expr(rng, 2, 1, 3, max_weight=8)
                f = expand(e, R21)
                e2 = recursion(f)
                assert verify_decomposition(f, e2)
        assert trace.peels, "expected at least one peeled core"
        for (m, n, p, a, b) in trace.peels:
            assert a > 0
            assert (a + b) % p == 0

    def test_recursion_depth_metric_recorded(self):
        with trace_decomposition() as trace:
            recursion(u_k(1, R21) * c_r(2, R21))
        assert trace.calls

    @pytest.mark.parametrize("m, n, p, a, b, text, residues, peels", [
        # a one-x core whose residues peel twice, the second time both blocks
        (2, 2, 3, 1, 5, "C[3] + 2*C[1]*U[1]",
         [(2, 2, 3, 15, 1, 5), (1, 2, 3, 3, 1, 0), (2, 2, 3, 19, 2, 7)],
         [(2, 2, 3, 1, 5), (2, 2, 3, 2, 7)]),
        # maximal core (4, 0), of which only (3, 0) is peeled
        (2, 2, 3, 3, 0, "EX[2] + U[1]",
         [(2, 2, 3, 12, 4, 0), (2, 2, 3, 6, 1, 0)],
         [(2, 2, 3, 3, 0)]),
        (3, 2, 5, 10, 0, "EY[1] + C[2]*C[3]",
         [(3, 2, 5, 35, 10, 0), (1, 2, 5, 5, 1, 0)],
         [(3, 2, 5, 10, 0)]),
    ])
    def test_core_peel_records(self, m, n, p, a, b, text, residues, peels):
        ring = Ring(m, n, False, p)
        f = Poly(ring, {(a,) * m + (b,) * n: 1}) * expand(parse_gen_expr(text, m, n, p), ring)
        with trace_decomposition() as trace:
            e = recursion(f)
        assert verify_decomposition(f, e)
        assert trace.residues == residues
        assert trace.peels == peels


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_recursion_agrees_with_span_certificates(data):
    """Two independent certificates for each homogeneous component f of
    a random expansion: the restrict / lift / peel recursion and the
    span of all generator monomials of f's degree."""
    m, n = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    p = data.draw(st.sampled_from((3, 5)))
    ring = Ring(m, n, False, p)
    for degree, f in homogeneous_components(expand(data.draw(gen_exprs(m, n, p, 8)), ring)):
        assert expand(recursion(f), ring) == f
        assert expand(gen_span(m, n, p, degree).solve(f), ring) == f


class TestEnginePolicy:
    """Which engine ``decompose`` picks for a homogeneous component, read
    from the trace: ``span_first`` records the components the policy
    sends to the span, and ``calls`` every recursion entry."""

    def _paths(self, f):
        with trace_decomposition() as trace:
            e = decompose(f)
        assert verify_decomposition(f, e)
        return trace

    def test_limit_is_inclusive(self, monkeypatch):
        f = c_r(5, R11)
        count = genexpr._TABLES(1, 1, 3).counts(5)
        assert count == 15
        monkeypatch.setattr(decompose_module, "_SPAN_LIMIT", count)
        trace = self._paths(f)
        assert trace.span_first == [(1, 1, 3, 5)] and trace.calls == [(1, 5)]
        monkeypatch.setattr(decompose_module, "_SPAN_LIMIT", count - 1)
        trace = self._paths(f)
        assert (1, 1, 3, 5) not in trace.span_first
        assert trace.calls[0] == (1, 5) and len(trace.calls) > 1

    def test_crossover_at_level_2_2_3(self):
        # 119 monomials at degree 10 and 173 at degree 11
        limit = decompose_module._SPAN_LIMIT
        ring = Ring(2, 2, False, 3)
        counts = genexpr._TABLES(2, 2, 3).counts
        assert counts(10) <= limit < counts(11)
        assert self._paths(c_r(10, ring)).span_first == [(2, 2, 3, 10)]
        trace = self._paths(c_r(11, ring))
        assert (2, 2, 3, 11) not in trace.span_first and len(trace.calls) > 1

    def test_pinned_recursion_takes_no_span_first(self):
        with trace_decomposition() as trace:
            e = recursion(c_r(5, R11))
        assert verify_decomposition(c_r(5, R11), e)
        assert trace.span_first == [] and len(trace.calls) > 1

    def test_public_decompose_on_criterion_5_inputs(self):
        """The policy certifies every criterion-5 input; criterion 5
        itself runs them through the pure recursion."""
        with trace_decomposition() as trace:
            for ring, e in _roundtrip_inputs():
                f = expand(e, ring)
                assert verify_decomposition(f, decompose(f))
        # both engines run on this corpus
        assert trace.span_first and trace.peels


# Levels (m, n, p) whose lifts v_k and their span certificates build in
# well under a second; (3, 3) at p = 5 and n = 3 at p = 7 take seconds.
_LIFT_LEVELS = [(m, n, p) for p in (3, 5, 7) for m in (1, 2, 3) for n in (1, 2, 3)
                if (p, n) != (7, 3) and (p, m, n) != (5, 3, 3)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lift_matches_per_term_formula(data):
    """The packed lift of a level (m-1, n) expression equals the old
    per-term product of v_k powers and expanded symbols, and its
    expression half expands to the same polynomial."""
    m, n, p = data.draw(st.sampled_from(_LIFT_LEVELS))
    ring = Ring(m, n, False, p)
    h = data.draw(gen_exprs(m - 1, n, p, min(expansion_cap(m + n, p), p + 1)))
    poly, expr = _lift(h, ring)
    assert poly == reference_lift_poly(h, ring)
    assert expand(expr, ring) == poly


@pytest.mark.parametrize("p", [3, 5, 7])
def test_lift_of_frobenius_powers(p):
    # U[p-1] has weight 1 at level (0, 1), so its p-th and (p+1)-th
    # powers lift through the Frobenius step of v_{p-1}'s chain
    ring = Ring(1, 1, False, p)
    u = parse_gen_expr(f"U[{p - 1}]", 0, 1, p)
    c = parse_gen_expr("C[1]", 0, 1, p)
    h = u**p + 2 * u ** (p + 1) * c + c ** (2 * p) + 1
    poly, expr = _lift(h, ring)
    assert poly == reference_lift_poly(h, ring)
    assert expand(expr, ring) == poly


@pytest.mark.parametrize("break_it", ["drop an orbit point", "change an orbit point"])
def test_a_lifted_polynomial_that_is_not_block_symmetric_is_refused(monkeypatch, break_it):
    """The lifted polynomial enters leader form through the checked
    projection, so a lift that is not block-symmetric is refused with
    InternalInvariantViolation even where its leader terms are right,
    not read as the polynomial those leader terms stand for."""
    real_lift = decompose_module._lift
    lifts = []

    def broken_lift(h, ring):
        poly, expr = real_lift(h, ring)
        off = next((e for e in poly.terms if not is_leader(e, ring.m)), None)
        if off is None:  # a level with one variable per block: every term is a leader
            return poly, expr
        terms = dict(poly.terms)
        if break_it == "drop an orbit point":
            del terms[off]
        else:
            terms[off] = terms[off] % ring.p + 1
        lifts.append((poly, Poly(ring, terms)))
        return lifts[-1][1], expr

    monkeypatch.setattr(decompose_module, "_lift", broken_lift)
    ring = Ring(2, 1, False, 3)
    with pytest.raises(InternalInvariantViolation, match="the lifted polynomial is not block-symmetric"):
        recursion(c_r(2, ring) * c_r(1, ring))
    poly, broken = lifts[-1]
    assert {e: c for e, c in broken.terms.items() if is_leader(e, ring.m)} == _block_symmetry(poly)[2].terms


def test_the_checked_projection_keeps_leaders_and_refuses_the_rest():
    """``_block_symmetry`` gives the leader terms of a block-symmetric
    polynomial, and refuses x symmetry to one that misses an orbit point
    or is not constant on an orbit."""
    ring = Ring(2, 1, False, 3)
    sym_x, sym_y, lead = _block_symmetry(parse_poly("x1^2*y1 + x2^2*y1 + 2*x1*x2", ring))
    assert sym_x and sym_y and lead.terms == {(2, 0, 1): 1, (1, 1, 0): 2}
    assert _block_symmetry(parse_poly("x1^2*y1 + 2*x1*x2", ring))[:2] == (False, True)
    assert _block_symmetry(parse_poly("x1^2*y1 + 2*x2^2*y1", ring))[:2] == (False, True)
