"""Command-line front end.

Subcommands: verify, normalize, commutator, propagator, scan.  All output
goes to standard output (diagnostics to standard error), reals are printed
with 12 significant digits, and identical invocations produce byte-identical
output.

Exit codes: 0 success, 1 verification failure, 2 input or parse error,
3 numeric non-convergence, 141 standard output closed early (128 + SIGPIPE,
as a shell reports for ``yes | head``).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .algebra import commutator, normal_form
from .errors import DomainError, NonConvergence, QLorentzError
from .expr import parse
from .propagator import C_SI, _checked_lambda_bar, gamma_quadrature, lambda_bar_from_mev, point_at, scan_rows
from .theorems import STEPS, SUITE, run_all, run_theorem


def _real(v: float) -> str:
    return f"{v + 0.0:.12g}"  # + 0.0 folds -0.0 into 0.0


def _cplx(v: complex) -> str:
    # both amplitude routes return complex(x, 0.0)
    return f"{_real(v.real)} + {_real(v.imag)}*i"


# ---------------------------------------------------------------------------
# verify


def _record_row(rec) -> str:
    return f"{rec.id:<11} {rec.status:<9} residual = {rec.residual.to_text()}"


def _record_json(rec) -> dict:
    return {
        "id": rec.id,
        "status": rec.status,
        "residual": rec.residual.to_text(),
        "citation": rec.citation,
    }


def _cmd_verify(args) -> int:
    if args.theorem is not None:
        records = []
        if args.show_steps:
            records.extend(run_theorem(s) for s in STEPS.get(args.theorem, ()))
        records.append(run_theorem(args.theorem))
    else:
        records = run_all()

    ok = sum(1 for r in records if r.status == "verified")
    if args.format == "json":
        import json  # only the json format needs it

        payload = {
            "command": "verify",
            "inputs": {"theorem": args.theorem, "show_steps": args.show_steps},
            "results": [_record_json(r) for r in records],
            "version": __version__,
            "status": 0 if ok == len(records) else 1,
        }
        print(json.dumps(payload, indent=2))
    else:
        for rec in records:
            print(_record_row(rec))
        print(f"{ok}/{len(records)} verified")
    return 0 if ok == len(records) else 1


# ---------------------------------------------------------------------------
# normalize / commutator


def _cmd_normalize(args) -> int:
    print(normal_form(parse(args.expr)).to_text())
    return 0


def _cmd_commutator(args) -> int:
    print(commutator(parse(args.expr_a), parse(args.expr_b)).to_text())
    return 0


# ---------------------------------------------------------------------------
# propagator


def _resolve_lambda_bar(args) -> float:
    if args.mass is not None and args.lambda_bar is not None:
        raise DomainError("give either --mass or --lambda-bar, not both")
    if args.units == "si":
        if args.mass is not None:
            return lambda_bar_from_mev(args.mass)
        if args.lambda_bar is not None:
            return args.lambda_bar
        raise DomainError("SI units need --mass or --lambda-bar")
    # natural units: t is a length (c*t) in the same units as x and lambda-bar
    if args.mass is not None:
        raise DomainError("--mass implies SI lengths; use --units si")
    return args.lambda_bar if args.lambda_bar is not None else 1.0


def _cmd_propagator(args) -> int:
    lb = _checked_lambda_bar(_resolve_lambda_bar(args))
    if args.units == "si":
        tau = C_SI * args.t / lb
    else:
        tau = args.t / lb
    xi = args.x / lb

    # a lone quadrature runs first, so that its own refusal is the one reported
    gq = gamma_quadrature(tau, xi) if args.method == "quadrature" else None
    p = point_at(tau, xi)
    if args.method == "both":
        gq = gamma_quadrature(tau, xi)
    lines = [
        f"tau = {_real(tau)}",
        f"xi = {_real(xi)}",
        f"z = {_real(p.z)}",
        f"interval_over_lambdabar2 = {_real(p.interval)}",
    ]
    if args.method != "quadrature":
        lines.append(f"gamma_bessel = {_cplx(p.gamma)}")
    if gq is not None:
        lines.append(f"gamma_quadrature = {_cplx(gq)}")
    if args.method == "both":
        lines.append(f"rel_discrepancy = {_real(abs(gq - p.gamma) / abs(p.gamma))}")
    prob = abs(gq) ** 2 if args.method == "quadrature" else p.prob
    lines.append(f"prob = {_real(prob)}")
    lines.append(f"class_eq2 = {p.class_eq2.value}")
    lines.append(f"class_eq13 = {p.class_eq13.value}")
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# scan

_FIELDS = ("z", "interval_over_lambdabar2", "gamma_re", "gamma_im", "prob", "class_eq2", "class_eq13")
# one row as printed, in _FIELDS order; the kernel route's gamma_im is 0
_ROW = "%.12g,%.12g,%.12g,0,%.12g,%s,%s\n"
# one row's cells as a record of json.dumps(records, indent=2), which writes a
# finite float (every cell here is one) as its repr
_RECORD = "  {\n%s\n  }" % ",\n".join(f'    "{f}": {v}' for f, v in zip(_FIELDS, ("%r",) * 5 + ('"%s"',) * 2))


def _cmd_scan(args) -> int:
    rows = scan_rows(args.z_min, args.z_max, args.steps)  # refuses before any output
    # + 0.0 folds the -0.0 interval of an underflowing s into 0.0, as _real
    # does; _value_ is the enum's own attribute, a tenth of the cost of .value
    lines = (_ROW % (z, itv + 0.0, g, prob, c2._value_, c13._value_) for _, z, itv, g, prob, c2, c13 in rows)
    write = sys.stdout.write
    if args.format == "json":
        # JSON holds the numbers as printed, to 12 digits; a scan has two rows or more
        sep = "[\n"
        for line in lines:
            cells = line[:-1].split(",")
            write(sep + _RECORD % (*map(float, cells[:5]), *cells[5:]))
            sep = ",\n"
        write("\n]\n")
    else:
        write(",".join(_FIELDS) + "\n")
        for line in lines:
            write(line)
    return 0


# ---------------------------------------------------------------------------
# dispatch


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qlorentz",
        description="Operator-identity verification and spacelike amplitude tools.",
    )
    top.add_argument("--version", action="version", version=f"qlorentz {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the operator identity suite")
    p.add_argument("--theorem", help=f"single id from: {', '.join(SUITE)}")
    p.add_argument(
        "--show-steps",
        action="store_true",
        help="print intermediate identities the chosen one builds on",
    )
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("normalize", help="print the canonical form of an expression")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("commutator", help="print the canonical form of [A, B]")
    p.add_argument("expr_a")
    p.add_argument("expr_b")
    p.set_defaults(func=_cmd_commutator)

    p = sub.add_parser("propagator", help="evaluate the amplitude at one point")
    p.add_argument("--t", type=float, required=True, help="time (c*t length in natural units; seconds in SI)")
    p.add_argument("--x", type=float, required=True, help="position (meters in SI)")
    p.add_argument("--lambda-bar", type=float, default=None, help="reduced Compton wavelength (meters in SI; default 1 in natural units)")
    p.add_argument("--mass", type=float, default=None, help="mass in MeV/c^2 (SI units only)")
    p.add_argument("--method", choices=("bessel", "quadrature", "both"), default="bessel")
    p.add_argument("--units", choices=("natural", "si"), default="natural")
    p.set_defaults(func=_cmd_propagator)

    p = sub.add_parser("scan", help="tabulate the tau = 0 slice over a z grid")
    p.add_argument("--z-min", type=float, required=True)
    p.add_argument("--z-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_scan)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NonConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except QLorentzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: the flush at exit goes to devnull, not to the pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
