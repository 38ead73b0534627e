"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import corpus  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

# sha256 of make_inputs(workload, 1): a changed generator changes them.
INPUT_DIGESTS = {
    "roundtrip": "1de2b7d1676e2bd1a0eac0ccc32c2965ed0c21b6eadacf135e09bbe6b08e6eeb",
    "core_peel": "2df318c36f9a579a7231d27024aaf369ce3f378943fff3f0285b06981a3c1fff",
    "dims": "b8ca588f7fb8b70ffd4d63bf2a290c37db17ccafc90d0806f5a1c990d0a6c2a4",
    "lift": "b502ea714e75af9baeb7a7401fa344258c4f53f36ae58d09110fb2923722b2da",
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_same_seed_gives_byte_identical_inputs():
    for workload in corpus.WORKLOADS:
        assert corpus.make_inputs(workload, 1) == corpus.make_inputs(workload, 1)
        assert digest(corpus.make_inputs(workload, 1)) == INPUT_DIGESTS[workload]
    for workload in corpus.WORKLOADS:
        assert corpus.make_inputs(workload, 1) != corpus.make_inputs(workload, 2)


def test_inputs_do_not_depend_on_the_hash_seed():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import corpus, hashlib; "
            "print(hashlib.sha256(corpus.make_inputs('core_peel', 3).encode()).hexdigest())")
    outs = {
        subprocess.run([sys.executable, "-c", code, HERE], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONHASHSEED=seed), check=True).stdout
        for seed in ("1", "2")
    }
    assert outs == {digest(corpus.make_inputs("core_peel", 3)) + "\n"}


def test_expander_matches_the_package():
    import supersympoly as ssp

    rng = random.Random(5)
    for m, n, p in ((1, 1, 3), (2, 2, 3), (3, 2, 5)):
        ex = corpus.Expander(m, n, p)
        ring = ssp.Ring(m, n, False, p)
        for _ in range(5):
            terms = corpus.random_gen_terms(rng, rng, m, n, p, rng.randint(1, 8), 3)
            ours = corpus.poly_text(ex.expand(terms), m, n)
            theirs = ssp.poly_to_str(ssp.expand(ssp.GenExpr(m, n, p, terms), ring))
            assert ours == theirs


def test_self_time_on_a_nested_span_tree():
    # a [0, 10] > b [1, 4] > c [2, 3];  a > b [5, 9] > d [6, 7]
    names = ["a", "b", "c", "d"]
    spans = [(0, -1, 0.0, 10.0), (1, 0, 1.0, 4.0), (2, 1, 2.0, 3.0),
             (1, 0, 5.0, 9.0), (3, 3, 6.0, 7.0)]
    cols = [array(code, [s[i] for s in spans]) for i, code in enumerate("iidd")]
    summary = tracer.summarize(names, *cols)
    stats = summary["stats"]
    assert {k: v["self_s"] for k, v in stats.items()} == {"a": 3.0, "b": 5.0, "c": 1.0, "d": 1.0}
    assert {k: v["calls"] for k, v in stats.items()} == {"a": 1, "b": 2, "c": 1, "d": 1}
    assert stats["b"]["leaf_calls"] == 0 and stats["c"]["leaf_calls"] == 1
    assert summary["under"] == {("a", "b"): 2, ("b", "c"): 1, ("b", "d"): 1}


def test_wrappers_record_nesting_and_self_time_adds_up():
    t = tracer.Tracer()
    inner = t.wrap("inner", lambda x: sum(range(x)))
    outer = t.wrap("outer", lambda x: inner(x) + inner(x))
    assert outer(1000) == 2 * sum(range(1000))
    summary = tracer.summarize(t.names, t.name_id, t.parent, t.start, t.end)
    stats = summary["stats"]
    assert stats["outer"]["calls"] == 1 and stats["inner"]["calls"] == 2
    assert list(t.parent) == [-1, 0, 0]
    total = t.end[0] - t.start[0]
    assert abs(stats["outer"]["self_s"] + stats["inner"]["self_s"] - total) < 1e-9


def test_install_patches_every_binding_and_the_mul_alias():
    code = (
        "import sys; sys.path[:0] = sys.argv[1:3]\n"
        "import supersympoly as ssp, tracer\n"
        "d, g = sys.modules['supersympoly.decompose'], sys.modules['supersympoly.generators']\n"
        "t = tracer.Tracer(); tracer.install(t, ssp)\n"
        "assert d.v_k is g.v_k and hasattr(d.v_k, '__wrapped__')\n"
        "assert ssp.decompose is d.decompose and d.gen_span is sys.modules['supersympoly.oracle'].gen_span\n"
        "P = ssp.Poly\n"
        "assert P.__rmul__ is P.__mul__ and hasattr(P.__mul__, '__wrapped__')\n"
        "r = ssp.Ring(1, 1, False, 3); f = ssp.x_var(r, 1)\n"
        "2 * f; f * f\n"
        "print(t.counters['poly_core.mul.term_pairs'])\n"
    )
    out = subprocess.run([sys.executable, "-c", code, HERE,
                          os.path.join(os.path.dirname(HERE), "src")],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "1"


def test_tail_percentile_leaves_ten_samples_beyond():
    for count in (11, 28, 63, 240, 1000, 5000):
        pct = run.tail_percentile(count)
        values = list(range(count))
        rank = values.index(run.nearest_rank(values, pct))
        assert count - 1 - rank >= 10 or pct == 50.0
    assert run.tail_percentile(240) == 95.8


def test_scale_ops_uses_the_probes_around_each_op():
    # probes of 2x the reference time around a short op halve its latency;
    # a long op averages every probe within its own length on each side
    ref = run.CAL_REF_S
    cals = [(0.0, 2 * ref), (1.0, 2 * ref), (1.01, 4 * ref), (3.0, 4 * ref)]
    ops = [[0, True, 0.5, 0.6, None], [1, True, 1.2, 2.2, None]]
    scales = run.scale_ops(ops, cals)
    assert abs(ops[0][-1] - 0.05) < 1e-12 and abs(scales[0] - 0.5) < 1e-12
    assert abs(ops[1][-1] - 1.0 / (10 / 3)) < 1e-12
