"""Command-line interface: evaluators plus the identity verification sweep."""

from __future__ import annotations

import argparse
import json
import sys

from .exactnum import ExactError, Rat, scalar_format, scalar_parse
from .highest import REPRESENTATIONS, hc
from .izergin import Kernel, izergin, izergin_side
from .scalar import (
    RationalFunctionSpec,
    format_monomial,
    scalar_product_numeric,
    scalar_product_symbolic,
)
from .verify import SUITES, run_suite

__all__ = ["main", "build_parser"]


def _literal(parse):
    """An argparse type from ``parse``: a bad literal is a usage error."""

    def convert(text):
        try:
            return parse(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _parse_set(text):
    """Comma-separated rational literals; empty string is the empty set."""
    if text is None or text.strip() == "":
        return ()
    return tuple(scalar_parse(tok) for tok in text.split(","))


def _parse_q(text):
    q = scalar_parse(text)
    if q in (0, 1, -1):
        raise ValueError("q must not be 0, 1, or -1")
    return q


_SET, _Q = _literal(_parse_set), _literal(_parse_q)
_FUNCTION = _literal(RationalFunctionSpec.parse)

# Set options of an evaluator that must hold equally many values.
_PAIRED = {
    "izergin": (("x", "y"),),
    "hc": (("t", "x"), ("s", "y")),
    "scalar-product": (("uc", "ub"), ("vc", "vb")),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qhc",
        description=(
            "Exact evaluation of Izergin determinants, trigonometric highest "
            "coefficients, and their identity suites."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_iz = sub.add_parser("izergin", help="evaluate an Izergin determinant")
    p_iz.add_argument("--variant", choices=("plain", "left", "right"),
                      default="plain")
    p_iz.add_argument("--x", type=_SET, default="", help="comma-separated rationals")
    p_iz.add_argument("--y", type=_SET, default="", help="comma-separated rationals")
    p_iz.add_argument("--q", type=_Q, required=True)

    p_hc = sub.add_parser("hc", help="evaluate a highest coefficient")
    p_hc.add_argument("--side", choices=("l", "r"), required=True)
    p_hc.add_argument("--rep", choices=REPRESENTATIONS + ("all",),
                      default="ws")
    p_hc.add_argument("--t", type=_SET, default="")
    p_hc.add_argument("--x", type=_SET, default="")
    p_hc.add_argument("--s", type=_SET, default="")
    p_hc.add_argument("--y", type=_SET, default="")
    p_hc.add_argument("--q", type=_Q, required=True)

    p_sp = sub.add_parser("scalar-product", help="evaluate the scalar product")
    p_sp.add_argument("--uc", type=_SET, default="")
    p_sp.add_argument("--vc", type=_SET, default="")
    p_sp.add_argument("--ub", type=_SET, default="")
    p_sp.add_argument("--vb", type=_SET, default="")
    p_sp.add_argument("--q", type=_Q, required=True)
    p_sp.add_argument("--r1", type=_FUNCTION, default=None,
                      help='rational function, e.g. "num:1,2;den:1,0,1"')
    p_sp.add_argument("--r3", type=_FUNCTION, default=None)
    p_sp.add_argument("--symbolic", action="store_true",
                      help="print the full monomial expansion")

    p_v = sub.add_parser("verify", help="run an identity suite")
    p_v.add_argument("--suite", choices=SUITES, required=True)
    p_v.add_argument("--a-max", type=int, default=2)
    p_v.add_argument("--b-max", type=int, default=2)
    p_v.add_argument("--trials", type=int, default=5)
    p_v.add_argument("--seed", type=int, default=0)
    p_v.add_argument("--q", type=_Q, default=None,
                     help="fix q instead of sampling it per case")
    p_v.add_argument("--out", default=None, help="write the JSON report here")
    return parser


def _cmd_izergin(args):
    kern = Kernel(args.q)
    if args.variant == "plain":
        value = izergin(kern, args.x, args.y)
    else:
        value = izergin_side(kern, {"left": "l", "right": "r"}[args.variant],
                             args.x, args.y)
    print(scalar_format(value))
    return 0


def _cmd_hc(args):
    kern = Kernel(args.q)
    ts, xs, ss, ys = args.t, args.x, args.s, args.y
    if args.rep == "all":
        vals = [hc(kern, args.side, ts, xs, ss, ys, rep)
                for rep in REPRESENTATIONS]
        for rep, v in zip(REPRESENTATIONS, vals):
            print(f"{rep}: {scalar_format(v)}")
        agree = all(v == vals[0] for v in vals)
        print(f"agree: {agree}")
        return 0 if agree else 1
    print(scalar_format(hc(kern, args.side, ts, xs, ss, ys, args.rep)))
    return 0


def _cmd_scalar_product(args):
    kern = Kernel(args.q)
    uC, vC, uB, vB = args.uc, args.vc, args.ub, args.vb
    if args.symbolic:
        poly = scalar_product_symbolic(kern, uC, vC, uB, vB)
        for mono in sorted(poly, key=lambda m: (len(m), sorted(m))):
            print(f"{format_monomial(mono)}: {scalar_format(poly[mono])}")
        return 0
    r1 = args.r1 or (lambda u: Rat(1))
    r3 = args.r3 or (lambda u: Rat(1))
    print(scalar_format(scalar_product_numeric(kern, uC, vC, uB, vB, r1, r3)))
    return 0


def _cmd_verify(args):
    report = run_suite(args.suite, a_max=args.a_max, b_max=args.b_max,
                       trials=args.trials, seed=args.seed, q=args.q)
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    summary = report["summary"]
    print(f"suite={report['suite']} pass={summary['pass']} "
          f"fail={summary['fail']} error={summary['error']}")
    if not args.out:
        print(text)
    if not report["cases"]:
        print("qhc verify: no case ran, so nothing was verified", file=sys.stderr)
        return 1
    return 0 if summary["fail"] == 0 and summary["error"] == 0 else 1


def main(argv=None):
    """Run one command; its exit status is returned.

    Sets of unequal sizes are a usage error (exit 2).  A point where the
    value is undefined, such as a vanishing denominator, and a report that
    cannot be written exit 1.  Each is reported as one line on standard error.
    """
    args = build_parser().parse_args(argv)
    for a, b in _PAIRED.get(args.command, ()):
        na, nb = len(getattr(args, a)), len(getattr(args, b))
        if na != nb:
            print(f"qhc {args.command}: error: --{a} and --{b} must have the same "
                  f"number of values ({na} vs {nb})", file=sys.stderr)
            return 2
    handlers = {
        "izergin": _cmd_izergin,
        "hc": _cmd_hc,
        "scalar-product": _cmd_scalar_product,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ExactError, OSError) as exc:
        print(f"qhc {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
