"""Command-line interface.

Subcommands:

    radius     one radius (catalog case or explicit family), both routes
    table      radius sweeps over parameter grids, closed form vs bisection
    verify     evaluate a functional for an extremal map against its bound
    sharpness  hunt for a violation just past a radius
    boundary   points on the boundary circle of Omega(gamma)
    convolve   termwise product of a coefficient list with a Gauss series

Output is CSV (default) or JSON, to stdout or --output.  All numerics are
printed with 12 significant digits, and a fixed configuration always produces
byte-identical output.  Exit codes: 0 success, 1 invalid arguments, 2
numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from .errors import BohrError
from .extremal import boundary_points
from .functionals import lambda_one, lambda_zero
from .radii import (
    _CATALOG,
    DEFAULT_A_GRID,
    _closed_form_for,
    _solve_kind,
    analytic_problem,
    catalog_solver,
    closed_form_radius,
    harmonic_problem,
    sharpness_probe,
    subordination_problem,
)
from .series import hadamard, CoefficientStream
from .specfun import HypergeomParams
from .weights import WeightFamily


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return "" if x is None else str(x)


def _jsonable(x):
    if isinstance(x, float):
        return float(f"{x:.12g}")
    return x


def _grid(spec: str) -> list[float]:
    """Parse a value or lo:hi:step grid (lo included; hi included when hit)."""
    parts = spec.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must be VALUE or LO:HI:STEP, got {spec!r}")
    lo, hi, step = (float(p) for p in parts)
    if step <= 0.0 or hi < lo:
        raise argparse.ArgumentTypeError(f"grid needs step > 0 and hi >= lo, got {spec!r}")
    count = int((hi - lo) / step + 1e-9) + 1
    return [lo + m * step for m in range(count)]


def _emit(kind: str, rows: list[dict], columns: list[str], args) -> None:
    if args.format == "json":
        if len(rows) == 1 and kind not in ("table", "boundary", "convolve"):
            payload = {k: _jsonable(v) for k, v in rows[0].items()}
        else:
            payload = {"rows": [{k: _jsonable(v) for k, v in row.items()} for row in rows]}
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])
        text = buf.getvalue()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _hypergeom(args) -> WeightFamily:
    if args.abc is None:
        raise argparse.ArgumentTypeError("--family hypergeom requires --abc A,B,C")
    a, b, c = (float(x) for x in args.abc.split(","))
    return WeightFamily.hypergeometric(a, b, c)


# --family name -> weight family built from the parsed flags
_FAMILIES = {
    "power": lambda args: WeightFamily.power(),
    "even": lambda args: WeightFamily.even(),
    "odd": lambda args: WeightFamily.odd_with_unit_head(),
    "shifted-linear": lambda args: WeightFamily.shifted_linear(args.start),
    "power-alpha": lambda args: WeightFamily.power_alpha(args.alpha, args.start),
    "hypergeom": _hypergeom,
}

_LAMBDAS = {"zero": lambda_zero, "one": lambda_one}

# --functional name -> (radius kind it is sharp at, its problem for a family and the parsed flags)
_FUNCTIONALS = {
    "refined": ("analytic", lambda family, args: analytic_problem(family, args.p, args.gamma, _LAMBDAS[args.lam])),
    "harmonic": ("harmonic", lambda family, args: harmonic_problem(family, args.p, args.gamma, args.k)),
    "subordination": ("subordination", lambda family, args: subordination_problem(family, args.k)),
}


_RADIUS_COLUMNS = [
    "case", "family", "kind", "p", "gamma", "k", "K", "y",
    "value_closed", "value_bisect", "delta", "residual", "iterations",
]


def _radius_row(result, closed: float | None = None, **params) -> dict:
    """One radius row; params fill the leading columns, the others stay empty."""
    row = dict.fromkeys(_RADIUS_COLUMNS)
    row.update(params)
    row.update(
        value_closed=closed,
        value_bisect=result.value,
        delta=None if closed is None else abs(closed - result.value),
        residual=result.residual,
        iterations=result.iterations,
    )
    return row


def _cmd_radius(args) -> int:
    if args.case:
        params = {name: getattr(args, name) for name in _CATALOG[args.case].params}
        closed = closed_form_radius(args.case, **params)
        result = catalog_solver(args.case, tol=args.tol, **params)
        row = _radius_row(result, closed, case=args.case, **params)
    else:
        family = _FAMILIES[args.family](args)
        result = _solve_kind(args.kind, family, args.p, args.gamma, args.k, args.tol)
        row = _radius_row(result, family=family.name, kind=args.kind, p=args.p, gamma=args.gamma, k=args.k)
    _emit("radius", [row], _RADIUS_COLUMNS, args)
    return 0


def _cmd_table(args) -> int:
    rows = []
    for p in _grid(args.p):
        for gamma in _grid(args.gamma):
            for k in _grid(args.k):
                family = _FAMILIES[args.family](args)
                result = _solve_kind(args.kind, family, p, gamma, k, args.tol)
                closed = _closed_form_for(family, args.kind, p, gamma, k)
                row = _radius_row(result, closed, family=family.name, kind=args.kind, p=p, gamma=gamma, k=k)
                row["mismatch"] = (
                    "" if closed is None else ("MISMATCH" if abs(closed - result.value) > 1e-10 else "ok")
                )
                rows.append(row)
    _emit("table", rows, _RADIUS_COLUMNS + ["mismatch"], args)
    return 0


def _cmd_verify(args) -> int:
    family = _FAMILIES[args.family](args)
    problem = _FUNCTIONALS[args.functional][1](family, args)
    value = problem.evaluate(args.a, args.r)
    threshold = problem.threshold(args.r)
    row = {
        "functional": args.functional,
        "a": args.a,
        "gamma": args.gamma,
        "p": args.p,
        "k": args.k,
        "lambda": args.lam,
        "r": args.r,
        "value": value,
        "threshold": threshold,
        "pass": "yes" if value <= threshold else "no",
    }
    _emit("verify", [row], list(row.keys()), args)
    return 0


def _cmd_sharpness(args) -> int:
    family = _FAMILIES[args.family](args)
    kind, make_problem = _FUNCTIONALS[args.functional]
    problem = make_problem(family, args)
    radius = args.radius
    if radius is None:
        radius = _solve_kind(kind, family, args.p, args.gamma, args.k).value
    grid = [float(x) for x in args.a_grid.split(",")] if args.a_grid else list(DEFAULT_A_GRID)
    witness = sharpness_probe(radius, problem, eps=args.eps, a_grid=grid)
    row = {
        "functional": args.functional,
        "radius": radius,
        "eps": args.eps,
        "witness_a": None if witness is None else witness.a,
        "witness_r": None if witness is None else witness.r,
        "functional_value": None if witness is None else witness.functional_value,
        "threshold": None if witness is None else witness.threshold,
        "found": "yes" if witness is not None else "no",
    }
    _emit("sharpness", [row], list(row.keys()), args)
    return 0


def _cmd_boundary(args) -> int:
    pts = boundary_points(args.gamma, args.count)
    rows = [{"index": i, "x": float(x), "y": float(y)} for i, (x, y) in enumerate(pts)]
    _emit("boundary", rows, ["index", "x", "y"], args)
    return 0


def _cmd_convolve(args) -> int:
    coeffs = [float(x) for x in args.coeffs.split(",")]
    user = CoefficientStream.from_sequence([abs(c) for c in coeffs])
    params = HypergeomParams(args.a, args.b, args.c)
    series = [1.0]
    for n in range(args.n):
        series.append(series[-1] * params.term_ratio(n))
    gauss = CoefficientStream.from_sequence([abs(c) for c in series])
    product = hadamard(gauss, user)
    rows = [
        {
            "n": n,
            "series_coefficient": gauss.at(n),
            "input_coefficient": user.at(n),
            "product": product.at(n),
        }
        for n in range(args.n + 1)
    ]
    _emit("convolve", rows, ["n", "series_coefficient", "input_coefficient", "product"], args)
    return 0


def _output_flags(sp) -> None:
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--output", default=None, help="write to file instead of stdout")


def _family_flags(sp) -> None:
    sp.add_argument("--family", choices=tuple(_FAMILIES), default="power")
    sp.add_argument("--start", type=int, default=1, help="first weighted index (shifted families)")
    sp.add_argument("--alpha", type=float, default=1.0, help="power-alpha exponent")
    sp.add_argument("--abc", default=None, help="hypergeom parameters A,B,C")


def _problem_flags(sp) -> None:
    """The flags of verify and sharpness: which inequality, on which family."""
    sp.add_argument("--functional", choices=tuple(_FUNCTIONALS), default="refined")
    _family_flags(sp)
    sp.add_argument("--p", type=float, default=1.0)
    sp.add_argument("--gamma", type=float, default=0.0)
    sp.add_argument("--k", type=float, default=0.0)
    sp.add_argument("--lambda", dest="lam", choices=tuple(_LAMBDAS), default="one")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and then shared by every call.

    Parsing leaves it unchanged and every default is immutable, so calls
    cannot leak state into each other; do not modify the returned parser.
    """
    parser = argparse.ArgumentParser(
        prog="bohrad",
        description="Bohr-type radii for weighted majorant series on a family of disks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("radius", help="compute one radius (closed form and/or bisection)")
    sp.add_argument("--case", choices=tuple(_CATALOG), default=None, help="catalog case (runs both routes)")
    sp.add_argument("--kind", choices=("analytic", "harmonic", "subordination"), default="analytic")
    _family_flags(sp)
    sp.add_argument("--p", type=float, default=1.0)
    sp.add_argument("--gamma", type=float, default=0.0)
    sp.add_argument("--k", type=float, default=0.0)
    sp.add_argument("--K", type=float, default=1.0, help="quasiconformality constant")
    sp.add_argument("--y", type=float, default=1.0, help="binomial exponent")
    sp.add_argument("--tol", type=float, default=1e-12)
    _output_flags(sp)
    sp.set_defaults(func=_cmd_radius)

    sp = sub.add_parser("table", help="sweep radii over parameter grids")
    sp.add_argument("--kind", choices=("analytic", "harmonic", "subordination"), default="analytic")
    _family_flags(sp)
    sp.add_argument("--p", default="1", help="value or LO:HI:STEP")
    sp.add_argument("--gamma", default="0", help="value or LO:HI:STEP")
    sp.add_argument("--k", default="0", help="value or LO:HI:STEP")
    sp.add_argument("--tol", type=float, default=1e-12)
    _output_flags(sp)
    sp.set_defaults(func=_cmd_table)

    sp = sub.add_parser("verify", help="evaluate a functional for an extremal map at r")
    _problem_flags(sp)
    sp.add_argument("--a", type=float, default=0.9)
    sp.add_argument("--r", type=float, required=True)
    _output_flags(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("sharpness", help="probe for a violation just past a radius")
    _problem_flags(sp)
    sp.add_argument("--radius", type=float, default=None, help="override the solved radius")
    sp.add_argument("--eps", type=float, default=0.01)
    sp.add_argument("--a-grid", default=None, help="comma-separated extremal parameters")
    _output_flags(sp)
    sp.set_defaults(func=_cmd_sharpness)

    sp = sub.add_parser("boundary", help="boundary circle points of Omega(gamma)")
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--count", type=int, default=64)
    _output_flags(sp)
    sp.set_defaults(func=_cmd_boundary)

    sp = sub.add_parser("convolve", help="termwise product with a Gauss series")
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--coeffs", required=True, help="comma-separated coefficient list")
    sp.add_argument("--n", type=int, default=8, help="largest index to print")
    _output_flags(sp)
    sp.set_defaults(func=_cmd_convolve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; fold into the validation exit code
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ValueError, argparse.ArgumentTypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BohrError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
