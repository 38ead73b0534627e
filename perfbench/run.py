"""supersympoly benchmark: four workloads, six end-to-end metrics, layer spans.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The benchmark builds the workload's
corpus from ``--seed`` with its own expander (``corpus.py``), then runs
passes: each pass is a fresh single-threaded interpreter
(``worker.py``) that runs the whole corpus once in a closed loop, so
``_SPAN_CACHE``, ``_VK_CACHE`` and the ``generator_poly`` cache start
cold in every pass, as they do for every command line call.  Passes
repeat while the next one is expected to end within ``--seconds``.
Afterwards ``check.py`` checks every distinct output and smoke-tests the
command line.

Times are scaled to a reference machine speed.  The speed a shared
machine gives a process can swing by a third within a second and for
minutes at a time, so between ops the worker times a fixed sparse
product (the calibration probe) and each op's latency is multiplied by
``CAL_REF_S`` over the probe times around it.  A scaled millisecond is a
millisecond on a machine where the probe takes ``CAL_REF_S``.  Each
op's latency is then the median of its passes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics from the
traced pass's spans, with the tracing overhead between the two.  The
last line of standard output is one JSON object.  Every child process
has a deadline; ops still unfinished when it expires count as failed,
and the run ends within 180 seconds.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import tracer  # noqa: E402

CAL_REF_S = 0.00016  # the probe's time on the reference machine, typical speed
PASS_LIMIT_S = 110  # passes must end this long after the run starts
RUN_LIMIT_S = 165  # the checker too; a run must end within 180 s
SETUP_PROBES = 3  # extra start-to-ready measurements besides the passes
ENV = dict(os.environ, PYTHONHASHSEED="0")


class Run:
    """Files, corpus and deadlines of one benchmark run."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.t0 = time.monotonic()
        self.dir = os.path.join(ROOT, ".perfbench_run", workload)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.inputs = self.path("inputs.txt")
        text = corpus.make_inputs(workload, seed)
        with open(self.inputs, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.lines = text.splitlines()

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def left(self, limit: float) -> float:
        return max(0.0, limit - (time.monotonic() - self.t0))


def spawn(run: Run, script: str, args: list, limit: float):
    """Run a child until it exits or the run's ``limit``, then kill it.

    Returns (seconds from start to its 'ready' line or None, its other
    standard output lines, whether it exited cleanly in time).
    """
    log = open(run.path(script + ".log"), "ab")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, script), *args],
                            cwd=ROOT, env=ENV, stdout=subprocess.PIPE, stderr=log)
    setup, lines = None, []
    try:
        ready, _, _ = select.select([proc.stdout], [], [], run.left(limit))
        if ready:
            first = proc.stdout.readline()
            if first.strip() == b"ready":
                setup = time.perf_counter() - t0
            else:
                lines.append(first)
        proc.wait(timeout=run.left(limit))
        finished = proc.returncode == 0
    except subprocess.TimeoutExpired:
        finished = False
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        lines += proc.stdout.read().splitlines()
        proc.stdout.close()
        log.close()
    return setup, [line.decode(errors="replace") for line in lines], finished


def first_cal(stdout: list) -> float | None:
    for line in stdout:
        if line.startswith("cal "):
            return float(line.split()[1])
    return None


def scale_ops(ops: list, cals: list) -> list:
    """Append each op's scaled latency; return the scale factors.

    An op's latency is multiplied by ``CAL_REF_S`` over the mean probe
    time in a window as wide as the op on either side of it (at least
    the nearest probe before and after): a long op spans many swings of
    the machine's speed, a short one only the speed of its moment.
    """
    times = [t for t, _ in cals]
    scales = []
    for op in ops:
        t0, t1 = op[2], op[3]
        lo = min(bisect.bisect_left(times, 2 * t0 - t1), bisect.bisect_left(times, t0) - 1)
        hi = max(bisect.bisect_right(times, 2 * t1 - t0), bisect.bisect_right(times, t1) + 1)
        window = [s for _, s in cals[max(lo, 0):hi]]
        scale = CAL_REF_S / statistics.fmean(window)
        op.append((t1 - t0) * scale)
        scales.append(scale)
    return scales


def run_pass(run: Run, number: int, trace: bool = False) -> dict:
    """One worker over the whole corpus; op rows come back as
    [index, ok, start, end, result, scaled latency]."""
    results = run.path(f"pass{number}.jsonl")
    args = ["--workload", run.workload, "--inputs", run.inputs, "--results", results]
    if trace:
        args += ["--trace", run.path("spans")]
    setup, stdout, finished = spawn(run, "worker.py", args, PASS_LIMIT_S)
    ops, cals, maxrss_kb = [], [], None
    if os.path.exists(results):
        with open(results, encoding="utf-8") as fh:
            for row in fh:
                if not row.endswith("\n"):
                    break  # cut mid-write by the deadline
                item = json.loads(row)
                if isinstance(item, dict):
                    maxrss_kb = item["maxrss_kb"]
                elif item[0] == "cal":
                    cals.append(item[1:])
                else:
                    ops.append(item)
    scales = scale_ops(ops, cals)
    cal = first_cal(stdout)
    return {"setup_s": setup * CAL_REF_S / cal if setup and cal else None,
            "ops": ops, "complete": finished and maxrss_kb is not None,
            "maxrss_kb": maxrss_kb,
            "scale": statistics.median(scales) if scales else 1.0}


def run_passes(run: Run, seconds: int) -> list[dict]:
    """Fresh-interpreter passes until the next would overrun ``seconds``."""
    passes = []
    begin = time.monotonic()
    while True:
        start = time.monotonic()
        passes.append(run_pass(run, len(passes)))
        now = time.monotonic()
        if not passes[-1]["complete"] or now - begin + (now - start) > seconds:
            break
    return passes


def setup_probes(run: Run) -> list[float]:
    """Start-to-ready of workers that stop once ready.  The first start
    also writes the bytecode caches, so it is not counted."""
    times = []
    for i in range(SETUP_PROBES + 1):
        setup, stdout, _ = spawn(run, "worker.py", [
            "--workload", run.workload, "--inputs", run.inputs,
            "--results", os.devnull, "--setup-only"], PASS_LIMIT_S)
        cal = first_cal(stdout)
        if i and setup is not None and cal:
            times.append(setup * CAL_REF_S / cal)
    return times


def output_key(run: Run, op: list) -> str:
    return json.dumps([run.lines[op[0]], op[4]])


def check_outputs(run: Run, passes: list[dict]):
    """Run check.py on every distinct (input, output) pair; return the
    verdict of each and the smoke step's mismatches (None if the checker
    did not get that far)."""
    distinct = {}
    for p in passes:
        for op in p["ops"]:
            if op[1]:
                distinct.setdefault(output_key(run, op), len(distinct))
    outputs, verdicts = run.path("outputs.jsonl"), run.path("verdicts.jsonl")
    with open(outputs, "w", encoding="utf-8") as fh:
        fh.writelines(key + "\n" for key in distinct)
    spawn(run, "check.py", ["--workload", run.workload, "--outputs", outputs,
                            "--verdicts", verdicts], RUN_LIMIT_S)
    rows, smoke = [], None
    if os.path.exists(verdicts):
        with open(verdicts, encoding="utf-8") as fh:
            for row in fh:
                if not row.endswith("\n"):
                    break
                item = json.loads(row)
                if isinstance(item, dict):
                    smoke = item["smoke"]
                else:
                    rows.append(item)
    verdict = {key: (rows[i] if i < len(rows) else [False, "not checked before the deadline"])
               for key, i in distinct.items()}
    return verdict, smoke


def score(run: Run, passes: list[dict], verdict: dict) -> dict:
    """Attempted and failed ops, and the scaled latencies of every good op."""
    attempted = failed = 0
    reasons = {}
    latencies = {}  # op index -> its scaled latency in each pass
    for p in passes:
        good = []
        for op in p["ops"]:
            passed, reason = verdict[output_key(run, op)] if op[1] else (False, op[4])
            if passed:
                good.append(op[5])
                latencies.setdefault(op[0], []).append(op[5])
            else:
                reasons.setdefault(reason, op[0])
        if len(p["ops"]) < len(run.lines):
            reasons.setdefault("unfinished at the deadline", len(p["ops"]))
        attempted += len(run.lines)
        failed += len(run.lines) - len(good)
        p["ops_per_s"] = per_second(good)
    return {"attempted": attempted, "failed": failed, "reasons": reasons,
            "latencies": latencies}


def per_second(latencies) -> float:
    total = sum(latencies)
    return len(latencies) / total if total > 0 else 0.0


def tail_percentile(count: int) -> float:
    """Highest percentile (to 0.1) with at least ten samples beyond it."""
    return max(50.0, math.floor(1000 * (1 - 10 / count)) / 10) if count else 50.0


def nearest_rank(sorted_values: list, pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def end_to_end(passes: list[dict], setups: list[float], tally: dict) -> dict:
    """Every pass repeats the same cold-start work, so an op's latency is
    the median of its passes; throughput and percentiles are over ops."""
    per_op = sorted(statistics.median(v) for v in tally["latencies"].values())
    tally["tail_pct"] = tail_percentile(len(per_op))
    rss = [p["maxrss_kb"] for p in passes if p["maxrss_kb"] is not None]
    return {
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "ops_per_s": (per_second(per_op), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(per_op) if per_op else 0.0, "ms"),
        "op_tail_ms": (1e3 * nearest_rank(per_op, tally["tail_pct"]) if per_op else 0.0, "ms"),
        "peak_rss_mb": (statistics.median(rss) / 1024 if rss else 0.0, "MB"),
        "ok_ratio": ((tally["attempted"] - tally["failed"]) / tally["attempted"], "ratio"),
    }


LAYER_STATS = (
    ("poly_core.mul", ("calls", "self_s")),
    ("poly_core.add", ("calls", "self_s")),
    ("poly_core.init", ("calls", "self_s")),
    ("generators.v_k", ("calls", "self_s")),
    ("generators.w_poly", ("calls", "self_s")),
    ("generators.placed_sym", ("calls", "self_s")),
    ("genexpr.span_build", ("calls", "self_s")),
    ("genexpr.span_solve", ("calls", "self_s")),
    ("genexpr.expand", ("calls", "self_s")),
    ("genexpr.expand_key", ("calls",)),
    ("decompose.decompose", ("self_s",)),
    ("decompose.verify_decomposition", ("self_s",)),
    ("decompose.vk_gen_expr", ("calls",)),
    ("supersym.is_supersymmetric", ("calls", "self_s")),
    ("symfun.rewrite_symmetric", ("calls", "self_s")),
    ("oracle.as_dimension", ("self_s",)),
)
COUNTERS = ("poly_core.mul.term_pairs", "poly_core.init.terms", "decompose.recursion_calls",
            "decompose.peels", "decompose.span_fallbacks")
# A lookup that hits returns without calling any traced function.
HIT_RATIOS = (("genexpr.span_cache", "genexpr.gen_span"),
              ("generators.generator_poly", "generators.generator_poly"),
              ("decompose.vk_gen_expr", "decompose.vk_gen_expr"))


def layer_metrics(run: Run, untraced: dict, traced: dict) -> dict:
    """Per-layer metrics of the traced pass; self times are scaled like
    op latencies, by the pass's median scale."""
    names, counters, arrays = tracer.load(run.path("spans"))
    summary = tracer.summarize(names, *arrays)
    stats, under = summary["stats"], summary["under"]
    empty = {"calls": 0, "self_s": 0.0, "leaf_calls": 0}
    out = {}
    for name, wanted in LAYER_STATS:
        row = stats.get(name, empty)
        short = name.replace("verify_decomposition", "verify")
        for stat in wanted:
            value = row[stat] * traced["scale"] if stat == "self_s" else row[stat]
            out[f"{short}.{stat}"] = (value, "s" if stat == "self_s" else "count")
    for counter in COUNTERS:
        out[counter] = (counters.get(counter, 0), "count")
    monomials = under.get(("genexpr.span_build", "genexpr.expand_key"), 0)
    rank = counters.get("genexpr.span_build.rank", 0)
    out["genexpr.span_build.monomials"] = (monomials, "count")
    out["genexpr.span_build.rank"] = (rank, "count")
    out["genexpr.span_build.useful_ratio"] = (rank / monomials if monomials else 0.0, "ratio")
    for metric, name in HIT_RATIOS:
        row = stats.get(name, empty)
        ratio = row["leaf_calls"] / row["calls"] if row["calls"] else 0.0
        out[f"{metric}.hit_ratio"] = (ratio, "ratio")
    out["trace.spans"] = (len(arrays[0]), "count")
    out["trace.untraced_ops_per_s"] = (untraced["ops_per_s"], "1/s")
    out["trace.traced_ops_per_s"] = (traced["ops_per_s"], "1/s")
    slowdown = untraced["ops_per_s"] / traced["ops_per_s"] if traced["ops_per_s"] else 0.0
    out["trace.overhead_ratio"] = (slowdown, "ratio")
    with open(run.path("layers.json"), "w", encoding="utf-8") as fh:
        json.dump(stats, fh, indent=1, sort_keys=True)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "supersympoly", "__init__.py")):
        print(f"no supersympoly package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    if args.trace:
        setups = []
        passes = [run_pass(run, 0), run_pass(run, 1, trace=True)]
    else:
        setups = setup_probes(run)
        passes = run_passes(run, args.seconds)
    setups += [p["setup_s"] for p in passes if p["setup_s"] is not None]
    verdict, smoke = check_outputs(run, passes)
    tally = score(run, passes, verdict)
    smoke_bad = ["checker did not reach the smoke step"] if smoke is None else smoke

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} pass(es) of "
          f"{len(run.lines)} ops, each a fresh interpreter (cold caches), closed loop, "
          f"one client")
    print(f"fail_ratio {tally['failed']}/{tally['attempted']}")
    for reason, idx in tally["reasons"].items():
        print(f"  failed: {reason} (first at op {idx})")
    print(f"cli smoke: {'ok' if not smoke_bad else '; '.join(smoke_bad)}")
    print("time scale (reference / this machine) per pass: "
          + ", ".join(f"{p['scale']:.3f}" for p in passes))
    if args.trace:
        metrics = layer_metrics(run, passes[0], passes[1])
    else:
        metrics = end_to_end(passes, setups, tally)
        print(f"op latency is the median of its passes; op_tail_ms is p{tally['tail_pct']} "
              f"of {len(tally['latencies'])} ops; setup_s is the median of {len(setups)} "
              f"worker starts")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": tally["failed"] == 0 and not smoke_bad,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
