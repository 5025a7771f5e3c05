"""Command line front end.

Every subcommand prints one JSON document to stdout with sorted keys,
so identical invocations produce byte-identical output. Exit codes:
0 all requested identities hold, 1 an identity check failed,
2 invalid input (an unwritable output path included) or an infeasible
computation, 3 a work budget was exhausted (conjecture scans still
print their partial report).  An internal consistency check that fails
(say, orbit sizes that miss the point count) also exits 1, with a JSON
error of kind "identity" on stderr in place of a traceback and nothing
on stdout.  `main` builds the tower the subcommand needs once (top 4 for
`curve` and `audit`; top 2, k alone, for the rest), passes it to the
subcommand's handler and adds its report under "tower".
"""

from __future__ import annotations

import argparse
import json
import sys

from .agcode import build_code, export_matrix, min_distance_exact
from .curve_model import define_curve, hermitian_curve, points_to_csv
from .field_tower import (
    DEFAULT_AMBIENT_BUDGET,
    BudgetError,
    FieldTower,
    PrecisionError,
    build_tower,
    to_json,
)
from .verdicts import SCAN_BUDGET, audit, bounds_report, conjecture_explore, normalize_model

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_VALIDATION = 2
EXIT_BUDGET = 3

# error kind and exit code per exception type; the first match wins
ERRORS = {
    BudgetError: ("budget", EXIT_BUDGET),
    PrecisionError: ("precision", EXIT_VALIDATION),
    RuntimeError: ("identity", EXIT_IDENTITY),  # after its subclasses above
    ValueError: ("validation", EXIT_VALIDATION),
    ZeroDivisionError: ("validation", EXIT_VALIDATION),
    OSError: ("validation", EXIT_VALIDATION),
}


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _budget(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"budget {value} is negative")
    return value


def _tower_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p", type=int, required=True, help="characteristic")
    p.add_argument("--a", type=int, required=True, help="exponent with q = p^a")
    p.add_argument("--budget", type=_budget, default=DEFAULT_AMBIENT_BUDGET,
                   help="largest ambient field order that may be enumerated")


def _curve_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hermitian-m", type=int, default=None,
                   help="trace-family exponent m dividing q + 1")
    p.add_argument("--additive", default=None,
                   help="comma-joined additive coefficients, lowest degree first; "
                        "each is an integer code or colon-joined residues")
    p.add_argument("--d", type=int, default=None,
                   help="x-degree for --additive models")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="maxcurves",
        description="Point counts, order sequences, and codes on maximal curves.")
    sub = top.add_subparsers(dest="command", required=True)

    c = sub.add_parser("curve", help="define a curve, count points, check bounds")
    _tower_flags(c)
    _curve_flags(c)
    c.add_argument("--level", type=int, choices=(2, 4), default=2,
                   help="field level for --emit point listings")
    c.add_argument("--emit", default=None, help="write the point list as CSV")
    c.set_defaults(func=cmd_curve, top=4)

    au = sub.add_parser("audit", help="run every order-sequence identity check")
    _tower_flags(au)
    _curve_flags(au)
    au.add_argument("--sample-seed", type=int, default=0,
                    help="accepted and ignored: the audit checks every point")
    au.set_defaults(func=cmd_audit, top=4)

    co = sub.add_parser("code", help="build an evaluation code")
    _tower_flags(co)
    _curve_flags(co)
    co.add_argument("--lambda", dest="lam", type=int, required=True,
                    help="pole order budget at infinity")
    co.add_argument("--exact", action="store_true",
                    help="compute the exact minimum distance")
    co.add_argument("--emit", default=None, help="write the generator matrix")
    co.add_argument("--format", choices=("csv", "json"), default="csv")
    co.set_defaults(func=cmd_code, top=2)

    cj = sub.add_parser("conjecture", help="grid-search additive models")
    _tower_flags(cj)
    cj.add_argument("--m1", type=int, required=True,
                    help="additive degree, a power of the characteristic")
    cj.add_argument("--d", type=int, default=None,
                    help="x-degree of the searched models (default q + 1)")
    cj.add_argument("--scan-budget", type=_budget, default=SCAN_BUDGET,
                    help="total budget, q^2 units per tested candidate")
    cj.set_defaults(func=cmd_conjecture, top=2)

    nm = sub.add_parser("normalize", help="rescale a trace-shaped model")
    _tower_flags(nm)
    nm.add_argument("--fa", required=True,
                    help="coefficient of y^q (code or colon-joined residues)")
    nm.add_argument("--fb", required=True,
                    help="coefficient of y (code or colon-joined residues)")
    nm.add_argument("--m", type=int, required=True, help="x-degree dividing q + 1")
    nm.set_defaults(func=cmd_normalize, top=2)
    return top


def _curve_from(args, tower: FieldTower):
    picked_h = args.hermitian_m is not None
    picked_a = args.additive is not None
    if picked_h == picked_a:
        raise ValueError("choose exactly one of --hermitian-m or --additive")
    if picked_h:
        if args.d is not None:
            raise ValueError("--d applies to --additive models only")
        return hermitian_curve(tower, args.hermitian_m)
    if args.d is None:
        raise ValueError("--additive requires --d")
    coeffs = tuple(tower.parse_element(tok) for tok in args.additive.split(","))
    return define_curve(tower, coeffs, args.d)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_curve(args, tower: FieldTower) -> tuple[dict, int]:
    curve = _curve_from(args, tower)
    hw = curve.maximality_report()
    counts: dict = {
        "rational": hw.actual,
        "expected_maximal": hw.expected,
        "maximal": hw.maximal,
        "quartic": curve.count(4),
    }
    if hw.maximal:
        counts["quartic_predicted"] = curve.predicted_count(2)
        counts["quartic_matches_prediction"] = \
            counts["quartic"] == counts["quartic_predicted"]
    if args.emit:
        points_to_csv(curve, curve.enumerate_points(args.level), args.emit)
    out = {
        "curve": curve.report(),
        "counts": counts,
        "bounds": to_json(bounds_report(curve), tower),
    }
    ok = counts.get("quartic_matches_prediction", True)  # unset off maximal curves
    return out, EXIT_OK if ok else EXIT_IDENTITY


def cmd_audit(args, tower: FieldTower) -> tuple[dict, int]:
    curve = _curve_from(args, tower)
    report = audit(curve)
    out = {"curve": curve.report(), **to_json(report, tower)}
    return out, EXIT_OK if report.all_identities else EXIT_IDENTITY


def cmd_code(args, tower: FieldTower) -> tuple[dict, int]:
    curve = _curve_from(args, tower)
    code = build_code(curve, args.lam)
    out = {
        "curve": curve.report(),
        "code": {
            "n": code.length,
            "k": code.dimension,
            "lambda": code.lam,
            "q2": tower.q2,
            "d_designed": code.d_designed,
            "rank_verified": code.rank_verified,
            "monomials": [[i, j] for i, j in code.monomials],
        },
    }
    if args.exact:
        dist = min_distance_exact(code)
        out["distance"] = to_json(dist, tower)
    if args.emit:
        export_matrix(code, args.emit, args.format)
    return out, EXIT_OK if code.rank_verified else EXIT_IDENTITY


def cmd_conjecture(args, tower: FieldTower) -> tuple[dict, int]:
    rep = conjecture_explore(tower, args.m1, d=args.d, budget=args.scan_budget)
    out = {"scan": to_json(rep, tower)}
    return out, EXIT_OK if rep.complete else EXIT_BUDGET


def cmd_normalize(args, tower: FieldTower) -> tuple[dict, int]:
    a = tower.parse_element(args.fa)
    b = tower.parse_element(args.fb)
    curve = define_curve(tower, (b,) + (0,) * (tower.a - 1) + (a,), args.m)
    norm = normalize_model(curve)
    out = {
        "input": {"a": tower.digits(a), "b": tower.digits(b), "m": args.m},
        "normalization": to_json(norm, tower),
    }
    return out, EXIT_OK if norm.verified else EXIT_IDENTITY


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_VALIDATION
    try:
        tower = build_tower(args.p, args.a, budget=args.budget, top=args.top)
        out, exit_code = args.func(args, tower)
        out["tower"] = tower.report()
    except tuple(ERRORS) as exc:
        kind, code = next(v for t, v in ERRORS.items() if isinstance(exc, t))
        print(json.dumps({"error": str(exc), "kind": kind},
                         sort_keys=True, indent=2), file=sys.stderr)
        return code
    print(json.dumps(out, sort_keys=True, indent=2))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
