"""Command line front end.

Subcommands: check (membership predicates), decompose (generator
certificate), vk (the explicit lift), dims (dimension cross check) and
selftest (the full verification suite).  Exit codes are stable:
0 success, 1 domain rejection, 2 input error, 3 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import sys

from .decompose import decompose, verify_decomposition
from .errors import InternalInvariantViolation, NotSupersymmetricError, PolyParseError
from .genexpr import serialize_gen_expr
from .generators import make_v
from .oracle import as_dimension, generated_dimension
from .poly_core import Ring, d_dT, parse_poly, poly_to_str, psi
from .supersym import is_p_balanced, is_supersymmetric

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _ring_args(parser: argparse.ArgumentParser):
    parser.add_argument("--m", type=int, required=True, help="number of x variables")
    parser.add_argument("--n", type=int, required=True, help="number of y variables")
    parser.add_argument("--p", type=int, required=True, help="odd prime characteristic")


def _poly_args(parser: argparse.ArgumentParser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--poly", help="polynomial text, e.g. 'x1^2 - 2*x1*y1'")
    group.add_argument("--file", help="path to a file holding the polynomial text")


def _read_poly(args) -> str:
    if args.poly is not None:
        return args.poly
    with open(args.file, "r", encoding="utf-8") as fh:
        return fh.read()


def cmd_check(args) -> int:
    ring = Ring(args.m, args.n, False, args.p)
    f = parse_poly(_read_poly(args), ring)
    verdict = is_supersymmetric(f)
    balanced = is_p_balanced(f)
    flag = lambda v: "true" if v else "false"
    print(f"symmetric_x: {flag(verdict.symmetric_x)}")
    print(f"symmetric_y: {flag(verdict.symmetric_y)}")
    print(f"derivative_vanishes: {flag(verdict.derivative_vanishes)}")
    print(f"overall: {flag(verdict.overall)}")
    print(f"strict: {flag(verdict.strict)}")
    print(f"p_balanced: {flag(balanced)}")
    return EXIT_OK if verdict.overall else EXIT_DOMAIN


def cmd_decompose(args) -> int:
    ring = Ring(args.m, args.n, False, args.p)
    f = parse_poly(_read_poly(args), ring)
    expr = decompose(f)
    print(serialize_gen_expr(expr))
    if args.verify and not verify_decomposition(f, expr):
        raise InternalInvariantViolation("certificate failed to re-expand to the input")
    return EXIT_OK


def cmd_vk(args) -> int:
    v = make_v(args.p, args.k, args.m, args.n)
    print(poly_to_str(v))
    if args.show_psi:
        image = psi(v)
        print(poly_to_str(image))
        print(poly_to_str(d_dT(image)))
    return EXIT_OK


def cmd_dims(args) -> int:
    if args.dmax < 0:
        raise ValueError("dmax must be nonnegative")
    m, n, p = args.m, args.n, args.p
    rows = [(d, as_dimension(m, n, p, d), generated_dimension(m, n, p, d))
            for d in range(args.dmax + 1)]
    print("m,n,p,d,dim_As,dim_generated,match")
    for d, da, dg in rows:
        print(f"{m},{n},{p},{d},{da},{dg}," + ("true" if da == dg else "false"))
    mismatches = sum(da != dg for _, da, dg in rows)
    if mismatches:
        print(f"MISMATCH in {mismatches} of {len(rows)} degrees")
        return EXIT_DOMAIN
    print(f"all {len(rows)} degrees match")
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .selfcheck import run_all

    results = run_all()
    unexpected = 0
    for res in results:
        if res.ok:
            status = "PASS"
        elif not res.expected_ok:
            status = "FAIL (expected; see README notes)"
        else:
            status = "FAIL"
            unexpected += 1
        print(f"{res.name}: {status} [{res.seconds:.1f}s] {res.detail}")
    if unexpected:
        print(f"{unexpected} unexpected failure(s)")
        return EXIT_DOMAIN
    print("selftest complete")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supersympoly",
        description="Exact computations with supersymmetric polynomials over F_p",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the membership predicates")
    _ring_args(p_check)
    _poly_args(p_check)
    p_check.set_defaults(func=cmd_check)

    p_dec = sub.add_parser("decompose", help="write the input over the generators")
    _ring_args(p_dec)
    _poly_args(p_dec)
    p_dec.add_argument("--verify", action="store_true", help="re-expand and compare")
    p_dec.set_defaults(func=cmd_decompose)

    p_vk = sub.add_parser("vk", help="print the lift polynomial v_k")
    _ring_args(p_vk)
    p_vk.add_argument("--k", type=int, required=True)
    p_vk.add_argument(
        "--show-psi",
        action="store_true",
        help="also print the x_m=y_n=T image and its T derivative",
    )
    p_vk.set_defaults(func=cmd_vk)

    p_dims = sub.add_parser(
        "dims",
        help="dimension cross check (keep m,n <= 2, p in {3,5}, dmax <= 12)",
    )
    _ring_args(p_dims)
    p_dims.add_argument("--dmax", type=int, required=True)
    p_dims.set_defaults(func=cmd_dims)

    p_self = sub.add_parser("selftest", help="run the full verification suite")
    p_self.set_defaults(func=cmd_selftest)

    return parser


# built once per process: building takes most of a small in-process call
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except PolyParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NotSupersymmetricError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except InternalInvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
