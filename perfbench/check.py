"""Output checks and the command line smoke step, run after the passes.

    python3 perfbench/check.py --workload W --outputs OUT --verdicts V

``OUTPUTS`` holds one JSON line ``[input_line, result]`` per distinct
pair the passes produced.  One JSON line ``[ok, reason]`` per output
is appended to ``VERDICTS`` as soon as it is known, so a checker killed
at the run's deadline still leaves every verdict it reached.  The last
line is the smoke step's outcome.

The checks do not trust the op's own answer:

* certificates are re-parsed with ``parse_gen_expr`` and expanded, and
  the canonical text must equal the input, which the benchmark built
  with its own expander (certificates are not canonical, so they are
  never digested);
* lifts are parsed back; ``d_dT(psi(v))`` must vanish, ``set_xm_zero(v)``
  must equal ``u_k`` one level down, and the three canonical texts must
  match the digest recorded at the commit that defined the benchmark;
* both dimensions of a cell must agree with each other and with the
  stored reference table.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import supersympoly as ssp  # noqa: E402
from supersympoly.cli import main as cli_main  # noqa: E402

REFERENCE = os.path.join(HERE, "reference")


def lift_digest(texts) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


def load_reference(name: str) -> dict:
    with open(os.path.join(REFERENCE, name), encoding="utf-8") as fh:
        return json.load(fh)


def check_certificate(line: str, cert, ref) -> str | None:
    m, n, p, text = line.split(" ", 3)
    m, n, p = int(m), int(n), int(p)
    ring = ssp.Ring(m, n, False, p)
    if ssp.poly_to_str(ssp.parse_poly(text, ring)) != text:
        return "input does not round-trip through parse_poly/poly_to_str"
    if ssp.poly_to_str(ssp.expand(ssp.parse_gen_expr(cert, m, n, p), ring)) != text:
        return "certificate does not expand to the input"
    return None


def check_dims(line: str, result, ref) -> str | None:
    da, dg = result
    want = ref[line]
    if not da == dg == want:
        return f"dimensions {da}, {dg}; reference {want}"
    return None


def check_lift(line: str, result, ref) -> str | None:
    p, k, m, n = map(int, line.split())
    if lift_digest(result) != ref[line]:
        return "canonical text differs from the reference digest"
    v = ssp.parse_poly(result[0], ssp.Ring(m, n, False, p))
    if not ssp.d_dT(ssp.psi(v)).is_zero or result[2] != "0":
        return "d/dT of the T image does not vanish"
    if ssp.set_xm_zero(v) != ssp.u_k(k, ssp.Ring(m - 1, n, False, p)):
        return "x_m = 0 does not give u_k one level down"
    return None


CHECKS = {
    "roundtrip": (check_certificate, None),
    "core_peel": (check_certificate, None),
    "dims": (check_dims, "dims.json"),
    "lift": (check_lift, "lift.json"),
}

# (argv, expected exit code): valid input 0, outside the algebra 1, malformed 2.
SMOKE = (
    (["check", "--m", "1", "--n", "1", "--p", "3", "--poly", "x1 - y1"], 0),
    (["check", "--m", "1", "--n", "1", "--p", "3", "--poly", "x1"], 1),
    (["check", "--m", "1", "--n", "1", "--p", "3", "--poly", "x1 +* y1"], 2),
    (["decompose", "--m", "1", "--n", "1", "--p", "3", "--poly", "y1^2 - x1*y1", "--verify"], 0),
    (["decompose", "--m", "2", "--n", "1", "--p", "3", "--poly", "x1 + y1", "--verify"], 1),
    (["decompose", "--m", "1", "--n", "1", "--p", "3", "--poly", "x1^", "--verify"], 2),
    (["vk", "--m", "2", "--n", "1", "--p", "3", "--k", "1", "--show-psi"], 0),
    (["vk", "--m", "2", "--n", "1", "--p", "3", "--k", "3", "--show-psi"], 2),
    (["dims", "--m", "1", "--n", "1", "--p", "3", "--dmax", "4"], 0),
    (["dims", "--m", "1", "--n", "1", "--p", "3", "--dmax", "-1"], 2),
)


def run_smoke() -> list[str]:
    """Call the command line entry point in-process; return the mismatches."""
    bad = []
    for argv, want in SMOKE:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = cli_main(argv)
            except SystemExit as exc:
                code = exc.code
        if code != want:
            bad.append(f"{' '.join(argv[:1] + argv[-2:])}: exit {code}, expected {want}")
        elif code == 0 and not sink.getvalue().strip():
            bad.append(f"{argv[0]}: exit 0 with no output")
    return bad


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(CHECKS))
    parser.add_argument("--outputs", required=True)
    parser.add_argument("--verdicts", required=True)
    args = parser.parse_args()

    check, ref_name = CHECKS[args.workload]
    ref = load_reference(ref_name) if ref_name else None
    with open(args.outputs, encoding="utf-8") as src, \
            open(args.verdicts, "w", encoding="utf-8", buffering=1) as out:
        for row in src:
            line, result = json.loads(row)
            try:
                reason = check(line, result, ref)
            except Exception as exc:  # a malformed output is a failed op
                reason = f"{type(exc).__name__}: {exc}"
            out.write(json.dumps([reason is None, reason]) + "\n")
        out.write(json.dumps({"smoke": run_smoke()}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
