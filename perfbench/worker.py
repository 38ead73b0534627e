"""One benchmark pass: a fresh interpreter runs a corpus once, closed loop.

    python3 perfbench/worker.py --workload roundtrip --inputs IN --results OUT
        [--setup-only] [--trace SPANS]

The worker imports supersympoly from the checkout's ``src``, reads the
corpus text and prints ``ready``; the parent times start-to-ready as the
set-up, and the first calibration probe follows as ``cal <seconds>``.
It then runs each op as soon as the previous one returns (one client,
no think time) and appends one JSON line per op, and one per probe
around it, to the results file, flushed, so the parent can account for
every op if it has to kill the worker at its deadline.  The module
caches start cold in every pass, as they do for every command line call.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import supersympoly as ssp  # noqa: E402


def op_certificate(line: str):
    """parse_poly -> decompose -> serialize_gen_expr -> verify_decomposition."""
    m, n, p, text = line.split(" ", 3)
    f = ssp.parse_poly(text, ssp.Ring(int(m), int(n), False, int(p)))
    expr = ssp.decompose(f)
    cert = ssp.serialize_gen_expr(expr)
    if not ssp.verify_decomposition(f, expr):
        raise AssertionError("certificate failed to re-expand to the input")
    return cert


def op_dims(line: str):
    """Both dimension computations of one (m, n, p, d) cell."""
    m, n, p, d = map(int, line.split())
    return [ssp.as_dimension(m, n, p, d), ssp.generated_dimension(m, n, p, d)]


def op_lift(line: str):
    """make_v -> psi -> d_dT -> poly_to_str, the `vk --show-psi` path."""
    p, k, m, n = map(int, line.split())
    v = ssp.make_v(p, k, m, n)
    image = ssp.psi(v)
    return [ssp.poly_to_str(v), ssp.poly_to_str(image), ssp.poly_to_str(ssp.d_dT(image))]


OPS = {
    "roundtrip": op_certificate,
    "core_peel": op_certificate,
    "dims": op_dims,
    "lift": op_lift,
}


def calibrate_kernel():
    """Return a probe that times a fixed sparse product, best of three.

    The product uses the benchmark's own expander, whose multiply is the
    same dict-of-exponent-tuples loop as the package's kernel, so its
    time follows the speed the machine gives this process right now.
    """
    import corpus

    ex = corpus.Expander(2, 2, 3)
    a, b = ex.symbol("C", 3), ex.symbol("C", 4)
    clock = time.perf_counter

    def probe() -> float:
        best = None
        for _ in range(3):
            t0 = clock()
            corpus.poly_mul(a, b, 3)
            t1 = clock() - t0
            best = t1 if best is None or t1 < best else best
        return best

    return probe


def run_pass(op, lines, out, probe):
    """Run every op once, with a calibration probe before and after each:
    the machine's speed can change within tens of milliseconds."""
    clock = time.perf_counter
    for idx, line in enumerate(lines):
        out.write(json.dumps(["cal", clock(), probe()]) + "\n")
        t0 = clock()
        try:
            result, ok = op(line), True
        except Exception as exc:  # a failed op is data, the loop goes on
            result, ok = f"{type(exc).__name__}: {exc}", False
        t1 = clock()
        out.write(json.dumps([idx, ok, t0, t1, result]) + "\n")
    out.write(json.dumps(["cal", clock(), probe()]) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(OPS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--results", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", help="write the recorded spans to this path")
    args = parser.parse_args()

    with open(args.inputs, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    print("ready", flush=True)
    probe = calibrate_kernel()
    first_cal = probe()
    print("cal", first_cal, flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, ssp)
    with open(args.results, "w", encoding="utf-8", buffering=1) as out:
        if tracer is None:
            run_pass(OPS[args.workload], lines, out, probe)
        else:
            # The recursion's own record of the path it took.
            with ssp.trace_decomposition() as path:
                run_pass(OPS[args.workload], lines, out, probe)
            tracer.counters["decompose.recursion_calls"] = len(path.calls)
            tracer.counters["decompose.peels"] = len(path.peels)
            tracer.counters["decompose.span_fallbacks"] = len(path.span_solves)
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out.write(json.dumps({"maxrss_kb": maxrss_kb}) + "\n")
    if tracer is not None:
        tracer.dump(args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
