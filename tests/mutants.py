"""Mutation harness: each row breaks the package on purpose, in a copy,
and names the tests that must catch it.

    python tests/mutants.py

A row gives a file under the repository root, an exact snippet of it,
the snippet's replacement and the test ids that must fail.  For each
row the script copies ``src/``, ``tests/``, ``perfbench/`` (whose corpus
the pinned tests read) and ``pyproject.toml`` to a temporary directory,
replaces the snippet there and runs only the row's tests, one pytest
process at a time, with a fixed Hypothesis seed.  It first runs every
named test on an unchanged copy, where each must pass, with Hypothesis's
default settings; a mutant's run skips the shrink phase, since a failure
found while generating fails its test whether or not it is shrunk.
It exits nonzero if a named test is not run, fails on the unchanged
copy or passes on its mutant, or if a snippet is not found exactly
once.  pytest does not collect this file: its name does not start with
``test_``.

A row is never deleted or weakened to make the harness pass; a change
that moves a snippet moves its row with it.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

from hypothesis import Phase, settings

ROOT = pathlib.Path(__file__).resolve().parents[1]
REPORT = "MUTANTS_REPORT"  # the environment variable naming the outcome file
NO_SHRINK = "mutant"  # the Hypothesis profile of a mutant's run


class Mutant(NamedTuple):
    name: str
    path: str
    snippet: str
    replacement: str
    tests: tuple


POLY_CORE = "src/supersympoly/poly_core.py"
GENEXPR = "src/supersympoly/genexpr.py"
ORACLE = "src/supersympoly/oracle.py"
DECOMPOSE = "src/supersympoly/decompose.py"
SUPERSYM = "src/supersympoly/supersym.py"
GENERATORS = "src/supersympoly/generators.py"
TUPLE_REFERENCE = "tests/test_genexpr.py::TestPackedSpan::test_matches_tuple_reference"
LOWER_DEGREES = "tests/test_genexpr.py::test_dead_draw_rule_reads_the_lower_degrees_in_the_one_table"
PRODUCT_PINS = "tests/test_decompose.py::test_span_products_per_cold_benchmark_pass_are_pinned"
TOP_COEFFICIENT = "tests/test_oracle.py::TestGeneratingFunctionCheck::test_a_wrong_top_coefficient_fails"
NOT_AN_INT = "tests/test_refusals.py::test_a_value_that_is_not_an_int_is_refused"
COUNT_ROW = "tests/test_genexpr.py::TestEnumeration::test_count_row_matches_enumeration"
C_R_DEFINITION = "tests/test_generators.py::test_c_r_matches_its_definition"
VERIFY_PAIRS = "tests/test_decompose.py::test_verify_pairs_per_cold_benchmark_pass_are_pinned"
BYTE_EDGE = "tests/test_poly_core.py::test_products_and_powers_at_the_byte_edge"

MUTANTS = [
    Mutant(
        "_leaders without its raise", POLY_CORE,
        '    if not (sym_x and sym_y):\n        raise InternalInvariantViolation(f"{what} is not block-symmetric")\n',
        "",
        ("tests/test_decompose.py::test_a_lifted_polynomial_that_is_not_block_symmetric_is_refused[drop an orbit point]",
         "tests/test_decompose.py::test_a_lifted_polynomial_that_is_not_block_symmetric_is_refused[change an orbit point]",
         "tests/test_genexpr.py::TestGenSpan::test_non_symmetric_generator_is_refused",
         "tests/test_symfun.py::TestRewriteSymmetric::test_rejects_asymmetric"),
    ),
    Mutant(
        "solve without its verdict test", GENEXPR,
        "            if not (sym_x and sym_y):\n                return None\n",
        "",
        ("tests/test_genexpr.py::TestGenSpan::test_solve_refuses_leader_aliases",
         "tests/test_genexpr.py::test_solve_refuses_a_broken_orbit",
         f"{TUPLE_REFERENCE}[2-1-3-7]",
         f"{TUPLE_REFERENCE}[3-3-3-6]"),
    ),
    Mutant(
        "_block_symmetry without the orbit count", POLY_CORE,
        "    return twins_x and points_x == count, twins_y and points_y == count,",
        "    return twins_x, twins_y,",
        ("tests/test_supersym.py::test_block_symmetry_matches_the_transposition_scan",
         "tests/test_decompose.py::test_a_lifted_polynomial_that_is_not_block_symmetric_is_refused[drop an orbit point]",
         "tests/test_symfun.py::TestRewriteSymmetric::test_rejects_asymmetric",
         "tests/test_decompose.py::TestDecompose::test_rejects_non_member"),
    ),
    Mutant(
        "mul without the orbit size of an unseen left key", POLY_CORE,
        "c1 *= orbit.get(k1) or orbit[find(k1)]",
        "c1 *= orbit[k1]",
        ("tests/test_poly_core.py::test_orbit_leaders_mul_takes_leaders_it_has_not_seen",
         f"{TUPLE_REFERENCE}[2-1-3-7]"),
    ),
    Mutant(
        "a span that reports no dead draw", GENEXPR,
        "lambda i: table.vector(monomials[i]), dead)",
        "lambda i: table.vector(monomials[i]))",
        ("tests/test_genexpr.py::test_dead_draw_rule_skips_products",
         "tests/test_genexpr.py::test_found_dead_draws_share_one_empty_vector[2-2-3-degrees0]",
         "tests/test_genexpr.py::test_found_dead_draws_share_one_empty_vector[1-1-3-degrees1]",
         "tests/test_genexpr.py::test_concurrent_callers_share_every_dead_draw",
         LOWER_DEGREES),
    ),
    Mutant(
        "a dead-draw rule that reads only the first quotient", GENEXPR,
        "is _DEAD for j in range(len(key))",
        "is _DEAD for j in range(1)",
        (LOWER_DEGREES, PRODUCT_PINS),
    ),
    Mutant(
        "a span that lists C[r]^p", GENEXPR,
        'if all(e < p for (kind, _), e in key if kind == "C")',
        'if all(e <= p for (kind, _), e in key if kind == "C")',
        (PRODUCT_PINS,),
    ),
    Mutant(
        "an echelon that reports every draw dead", POLY_CORE,
        "        if piv < 0:\n            if self._dead is not None:\n                self._dead(i)\n",
        "        if self._dead is not None:\n            self._dead(i)\n        if piv < 0:\n",
        ("tests/test_poly_core.py::test_echelon_reports_each_dead_draw_once",
         "tests/test_genexpr.py::test_dead_draw_rule_skips_products",
         f"{TUPLE_REFERENCE}[2-2-3-6]"),
    ),
    Mutant(
        "identity checks without the empty-block refusal", ORACLE,
        '    if m < 1 or n < 1:\n        raise ValueError("the x_m = y_n = T image needs m >= 1 and n >= 1")\n',
        "",
        ("tests/test_refusals.py::test_refusal[psi_w_check at m = 0]",
         "tests/test_refusals.py::test_refusal[brace identity at m = 0]",
         "tests/test_refusals.py::test_refusal[round identity at n = 0]"),
    ),
    Mutant(
        "a generating-function check blind to t-degree R", ORACLE,
        "if e[-1] <= R})",
        "if e[-1] < R})",
        (f"{TOP_COEFFICIENT}[1-1-3-4]", f"{TOP_COEFFICIENT}[2-1-5-5]", f"{TOP_COEFFICIENT}[2-2-3-4]"),
    ),
    Mutant(
        "a termination check that lets an equal key through", DECOMPOSE,
        "if parent is not None and key >= parent:",
        "if parent is not None and key > parent:",
        ("tests/test_decompose.py::test_a_parent_key_equal_to_its_own_is_refused",),
    ),
    Mutant(
        "restrictions without the zero padding", SUPERSYM,
        "    return pairs + [(0, lam)] if len(lam) < size else pairs\n",
        "    return pairs\n",
        ("tests/test_oracle.py::TestAsDimension::test_degree_one",
         "tests/test_oracle.py::TestAsDimension::test_restriction_identity"),
    ),
    Mutant(
        "as_dimension restricting each y partition at the x block's size", ORACLE,
        "[[_restrictions(mu, n) for mu in",
        "[[_restrictions(mu, m) for mu in",
        ("tests/test_oracle.py::TestAsDimension::test_agrees_with_the_polynomial_route",),
    ),
    Mutant(
        "c_r with its sign fixed at 1", GENERATORS,
        "sign = 1 if (r - i) % 2 == 0 else p - 1",
        "sign = 1",
        (f"{C_R_DEFINITION}[1-1-3-False]", f"{C_R_DEFINITION}[2-3-7-True]",
         "tests/test_oracle.py::TestGeneratingFunctionCheck::test_small_levels"),
    ),
    Mutant(
        "as_dimension without its level check", ORACLE,
        "    Ring(m, n, False, p)  # the level first, then the degree, as in generated_dimension\n",
        "",
        ("tests/test_oracle.py::test_bad_level_is_refused[1-1-4]",
         "tests/test_refusals.py::test_both_dimensions_refuse_a_bad_cell_with_one_message[(1, 1, 3.0, -1)]"),
    ),
    Mutant(
        "bracket_round without its int check of j", GENERATORS,
        '0 <= t <= M and 0 <= j < N."""\n    M, N = ring.m, ring.n\n    t, j = len(delta), _int(j, "j")\n',
        '0 <= t <= M and 0 <= j < N."""\n    M, N = ring.m, ring.n\n    t = len(delta)\n',
        (f"{NOT_AN_INT}[round j]", f"{NOT_AN_INT}[round j, bool]"),
    ),
    Mutant(
        "a packed product with a shared accumulator", POLY_CORE,
        "def _packed_mul(a: dict, b: dict, acc: dict | None = None)",
        "def _packed_mul(a: dict, b: dict, acc: dict | None = {})",
        ("tests/test_poly_core.py::TestMul::test_one_is_identity",
         "tests/test_poly_core.py::TestMul::test_freshman_dream_cube"),
    ),
    Mutant(
        "a brace identity without its T^(l(p-k)) [delta, j-1] pair", ORACLE,
        ",\n           (l * (p - k), bracket_square(delta, j - 1, ks, ring_t))]",
        "]",
        ("tests/test_oracle.py::TestBracketIdentities::test_brace_example",),
    ),
    Mutant(
        "a round identity without its T^((s-i)(p-k)) [delta-i, j] pair", ORACLE,
        ",\n                ((s - i) * (p - k), bracket_square(smaller, j, ks, ring_t))]",
        "]",
        ("tests/test_oracle.py::TestBracketIdentities::test_round_example",),
    ),
    Mutant(
        "a span with a level table of its own", GENEXPR,
        "self._table = table = _TABLES(m, n, p)",
        "self._table = table = _LevelTable(m, n, p)",
        ("tests/test_genexpr.py::TestPackedSpan::test_width_edges[7]",
         "tests/test_genexpr.py::test_level_tables_outlive_the_rows",
         "tests/test_genexpr.py::test_an_evicted_level_takes_its_spans_with_it",
         LOWER_DEGREES, PRODUCT_PINS),
    ),
    Mutant(
        "a gen_span that skips the level's span memo", GENEXPR,
        "    return _TABLES(m, n, p).spans(degree)",
        "    return GenSpan(m, n, p, degree)",
        ("tests/test_genexpr.py::test_gen_span_single_flight",),
    ),
    Mutant(
        "a span bound refused one degree late", GENEXPR,
        "if _int(degree, \"degree\", 0) > _SPAN_BOUND:",
        "if _int(degree, \"degree\", 0) > _SPAN_BOUND + 1:",
        ("tests/test_genexpr.py::TestPackedSpan::test_span_bound",),
    ),
    Mutant(
        "engine counts taken at p = 3", GENEXPR,
        "level_symbols(ring.m, ring.n, ring.p, degree)",
        "level_symbols(ring.m, ring.n, 3, degree)",
        ("tests/test_decompose.py::test_benchmark_certificates_are_pinned",),
    ),
    Mutant(
        "a count row summed one degree short", GENEXPR,
        "sum(sigma[k] * row[r - k] for k in range(1, r + 1)) // r",
        "sum(sigma[k] * row[r - k] for k in range(1, r)) // r",
        (f"{COUNT_ROW}[(2, 2, 3)-ascending]", f"{COUNT_ROW}[(3, 2, 5)-largest first]",
         "tests/test_decompose.py::TestEnginePolicy::test_crossover_at_level_2_2_3"),
    ),
    Mutant(
        "a flat _expand_sum", POLY_CORE,
        "    for terms in sums:\n        _horner(terms, power, p, acc)\n",
        "    for key, c in (item for terms in sums for item in terms.items()):\n        head = {0: c}\n"
        "        for factor in key[:-1]:\n            head = _reduce_mod(_packed_mul(head, power(factor)), p)\n"
        "        _packed_mul(head, power(key[-1]) if key else {0: 1}, acc)\n",
        (VERIFY_PAIRS,),
    ),
    Mutant(
        "an expand that folds every weighted degree as one sum", GENEXPR,
        "_expand_sum(degrees.values(), ring, bound,",
        "_expand_sum([e.terms], ring, bound,",
        ("tests/test_genexpr.py::TestPackedExpansion::test_each_weighted_degree_is_folded_apart",),
    ),
    Mutant(
        "8-bit fields up to 256", POLY_CORE,
        "return 8 if bound <= _SPAN_BOUND else bound.bit_length()",
        "return 8 if bound <= _SPAN_BOUND + 1 else bound.bit_length()",
        (f"{BYTE_EDGE}[1-0-False-256]", f"{BYTE_EDGE}[2-1-False-256]", f"{BYTE_EDGE}[1-1-True-256]"),
    ),
    Mutant(
        "a level table that keeps one v_k pair", GENEXPR,
        "partial(_vk_pair, ring), maxsize=p - 1)",
        "partial(_vk_pair, ring), maxsize=1)",
        ("tests/test_decompose.py::TestVkCertificates::test_an_evicted_level_takes_its_v_k_pairs_with_it",),
    ),
    Mutant(
        "a vk_gen_expr that reads the swapped level's table", DECOMPOSE,
        "    return _TABLES(m, n, p).vk_pairs(k)[1]",
        "    return _TABLES(n, m, p).vk_pairs(k)[1]",
        ("tests/test_decompose.py::TestVkCertificates::test_single_flight",
         "tests/test_decompose.py::test_benchmark_certificates_are_pinned"),
    ),
]


# -- the pytest plugin each run loads: it records every test's outcome ------

settings.register_profile(NO_SHRINK, phases=(Phase.explicit, Phase.reuse, Phase.generate))


def pytest_runtest_logreport(report):
    """A test failed if any of its phases failed, else it has the
    outcome of its call, or of the phase that skipped it."""
    if (report.failed or report.when == "call" or report.skipped) and _OUTCOMES.get(report.nodeid) != "failed":
        _OUTCOMES[report.nodeid] = report.outcome


def pytest_sessionfinish(session):
    path = os.environ.get(REPORT)
    if path:
        pathlib.Path(path).write_text(json.dumps(_OUTCOMES))


_OUTCOMES: dict = {}


# -- the harness -------------------------------------------------------------


def _copy_tree(dest: pathlib.Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for part in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _run(tree: pathlib.Path, tests: tuple, *options: str) -> dict:
    """{test id: "passed", "failed" or another outcome} of one pytest
    process over ``tests`` in ``tree``, with pytest ``options``; an id
    pytest did not run is missing."""
    report = tree / "outcomes.json"
    env = dict(os.environ, PYTHONPATH=f"{tree / 'src'}{os.pathsep}{tree / 'tests'}", **{REPORT: str(report)})
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "mutants",
         "--hypothesis-seed=0", *options, *tests],
        cwd=tree, env=env, capture_output=True, text=True, timeout=600,
    )
    if not report.exists():
        print(proc.stdout[-2000:] + proc.stderr[-2000:])
        return {}
    return json.loads(report.read_text())


def _apply(tree: pathlib.Path, mutant: Mutant) -> bool:
    path = tree / mutant.path
    text = path.read_text()
    if text.count(mutant.snippet) != 1:
        return False
    path.write_text(text.replace(mutant.snippet, mutant.replacement))
    return True


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = pathlib.Path(tmp) / "clean"
        _copy_tree(clean)
        start = time.monotonic()
        named = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        outcomes = _run(clean, named)
        for test in named:
            if outcomes.get(test) != "passed":
                print(f"unchanged copy: {test} {outcomes.get(test, 'not run')}")
                bad += 1
        print(f"unchanged copy: {len(named)} tests [{time.monotonic() - start:.1f}s]")
        for i, mutant in enumerate(MUTANTS):
            tree = pathlib.Path(tmp) / f"mutant{i}"
            _copy_tree(tree)
            start = time.monotonic()
            if not _apply(tree, mutant):
                print(f"MISSING  {mutant.name}: the snippet is not found exactly once in {mutant.path}")
                bad += 1
                continue
            outcomes = _run(tree, mutant.tests, f"--hypothesis-profile={NO_SHRINK}")
            survivors = [t for t in mutant.tests if outcomes.get(t) != "failed"]
            verdict = "killed  " if not survivors else "SURVIVED"
            print(f"{verdict} {mutant.name} [{time.monotonic() - start:.1f}s]")
            for test in survivors:
                print(f"    {test} {outcomes.get(test, 'not run')}")
            bad += bool(survivors)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
