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
import io
import json
import sys

from .errors import BohrError
from .extremal import ExtremalParams, boundary_points, harmonic_extremal, mobius_extremal, subordination_extremal
from .functionals import harmonic_functional, lambda_one, lambda_zero, q_functional, refined_functional
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
from .weights import WeightFamily, weight_at


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


def _family_from_args(args) -> WeightFamily:
    name = args.family
    if name == "power":
        return WeightFamily.power()
    if name == "even":
        return WeightFamily.even()
    if name == "odd":
        return WeightFamily.odd_with_unit_head()
    if name == "shifted-linear":
        return WeightFamily.shifted_linear(args.start)
    if name == "power-alpha":
        return WeightFamily.power_alpha(args.alpha, args.start)
    if name == "hypergeom":
        if args.abc is None:
            raise argparse.ArgumentTypeError("--family hypergeom requires --abc A,B,C")
        a, b, c = (float(x) for x in args.abc.split(","))
        return WeightFamily.hypergeometric(a, b, c)
    raise argparse.ArgumentTypeError(f"unknown family {name!r}")


_RADIUS_COLUMNS = [
    "case", "family", "kind", "p", "gamma", "k", "K", "y",
    "value_closed", "value_bisect", "delta", "residual", "iterations",
]


def _radius_row(case, family_name, kind, p, gamma, k, K, y, closed, result) -> dict:
    return {
        "case": case,
        "family": family_name,
        "kind": kind,
        "p": p,
        "gamma": gamma,
        "k": k,
        "K": K,
        "y": y,
        "value_closed": closed,
        "value_bisect": None if result is None else result.value,
        "delta": None if (closed is None or result is None) else abs(closed - result.value),
        "residual": None if result is None else result.residual,
        "iterations": None if result is None else result.iterations,
    }


def _cmd_radius(args) -> int:
    if args.case:
        params = {name: getattr(args, name if name != "K" else "big_k") for name in _CATALOG[args.case].params}
        closed = closed_form_radius(args.case, **params)
        result = catalog_solver(args.case, tol=args.tol, **params)
        row = _radius_row(
            args.case, None, None,
            params.get("p"), params.get("gamma"), params.get("k"), params.get("K"), params.get("y"),
            closed, result,
        )
    else:
        family = _family_from_args(args)
        result = _solve_kind(args.kind, family, args.p, args.gamma, args.k, args.tol)
        row = _radius_row(
            None, family.name, args.kind, args.p, args.gamma, args.k, None, None, None, result
        )
    _emit("radius", [row], _RADIUS_COLUMNS, args)
    return 0


def _cmd_table(args) -> int:
    rows = []
    for p in _grid(args.p):
        for gamma in _grid(args.gamma):
            for k in _grid(args.k):
                family = _family_from_args(args)
                result = _solve_kind(args.kind, family, p, gamma, k, args.tol)
                closed = _closed_form_for(family, args.kind, p, gamma, k)
                row = _radius_row(
                    None, family.name, args.kind, p, gamma, k, None, None, closed, result
                )
                row["mismatch"] = (
                    "" if closed is None else ("MISMATCH" if abs(closed - result.value) > 1e-10 else "ok")
                )
                rows.append(row)
    _emit("table", rows, _RADIUS_COLUMNS + ["mismatch"], args)
    return 0


def _cmd_verify(args) -> int:
    family = _family_from_args(args)
    lam = lambda_one if args.lam == "one" else lambda_zero
    if args.functional == "refined":
        stream = mobius_extremal(ExtremalParams(a=args.a, gamma=args.gamma))
        value = refined_functional(stream, family, args.p, args.gamma, lam, args.r)
        threshold = weight_at(family, 0, args.r)
    elif args.functional == "harmonic":
        fmap = harmonic_extremal(ExtremalParams(a=args.a, gamma=args.gamma, k=args.k))
        value = harmonic_functional(fmap, family, args.p, args.r)
        threshold = weight_at(family, 0, args.r)
    else:
        witness = subordination_extremal(args.k)
        value = q_functional(witness.fmap, family, args.r)
        threshold = witness.distance * weight_at(family, 0, args.r)
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
    family = _family_from_args(args)
    if args.functional == "refined":
        lam = lambda_one if args.lam == "one" else lambda_zero
        problem = analytic_problem(family, args.p, args.gamma, lam)
    elif args.functional == "harmonic":
        problem = harmonic_problem(family, args.p, args.gamma, args.k)
    else:
        problem = subordination_problem(family, args.k)
    radius = args.radius
    if radius is None:
        kind = "analytic" if args.functional == "refined" else args.functional
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bohrad",
        description="Bohr-type radii for weighted majorant series on a family of disks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--output", default=None, help="write to file instead of stdout")

    def family_flags(sp):
        sp.add_argument(
            "--family",
            choices=("power", "even", "odd", "shifted-linear", "power-alpha", "hypergeom"),
            default="power",
        )
        sp.add_argument("--start", type=int, default=1, help="first weighted index (shifted families)")
        sp.add_argument("--alpha", type=float, default=1.0, help="power-alpha exponent")
        sp.add_argument("--abc", default=None, help="hypergeom parameters A,B,C")

    sp = sub.add_parser("radius", help="compute one radius (closed form and/or bisection)")
    sp.add_argument("--case", choices=tuple(_CATALOG), default=None, help="catalog case (runs both routes)")
    sp.add_argument("--kind", choices=("analytic", "harmonic", "subordination"), default="analytic")
    family_flags(sp)
    sp.add_argument("--p", type=float, default=1.0)
    sp.add_argument("--gamma", type=float, default=0.0)
    sp.add_argument("--k", type=float, default=0.0)
    sp.add_argument("--K", dest="big_k", type=float, default=1.0, help="quasiconformality constant")
    sp.add_argument("--y", type=float, default=1.0, help="binomial exponent")
    sp.add_argument("--tol", type=float, default=1e-12)
    common(sp)
    sp.set_defaults(func=_cmd_radius)

    sp = sub.add_parser("table", help="sweep radii over parameter grids")
    sp.add_argument("--kind", choices=("analytic", "harmonic", "subordination"), default="analytic")
    family_flags(sp)
    sp.add_argument("--p", default="1", help="value or LO:HI:STEP")
    sp.add_argument("--gamma", default="0", help="value or LO:HI:STEP")
    sp.add_argument("--k", default="0", help="value or LO:HI:STEP")
    sp.add_argument("--tol", type=float, default=1e-12)
    common(sp)
    sp.set_defaults(func=_cmd_table)

    sp = sub.add_parser("verify", help="evaluate a functional for an extremal map at r")
    sp.add_argument("--functional", choices=("refined", "harmonic", "subordination"), default="refined")
    family_flags(sp)
    sp.add_argument("--a", type=float, default=0.9)
    sp.add_argument("--gamma", type=float, default=0.0)
    sp.add_argument("--p", type=float, default=1.0)
    sp.add_argument("--k", type=float, default=0.0)
    sp.add_argument("--lambda", dest="lam", choices=("zero", "one"), default="one")
    sp.add_argument("--r", type=float, required=True)
    common(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("sharpness", help="probe for a violation just past a radius")
    sp.add_argument("--functional", choices=("refined", "harmonic", "subordination"), default="refined")
    family_flags(sp)
    sp.add_argument("--p", type=float, default=1.0)
    sp.add_argument("--gamma", type=float, default=0.0)
    sp.add_argument("--k", type=float, default=0.0)
    sp.add_argument("--lambda", dest="lam", choices=("zero", "one"), default="one")
    sp.add_argument("--radius", type=float, default=None, help="override the solved radius")
    sp.add_argument("--eps", type=float, default=0.01)
    sp.add_argument("--a-grid", default=None, help="comma-separated extremal parameters")
    common(sp)
    sp.set_defaults(func=_cmd_sharpness)

    sp = sub.add_parser("boundary", help="boundary circle points of Omega(gamma)")
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--count", type=int, default=64)
    common(sp)
    sp.set_defaults(func=_cmd_boundary)

    sp = sub.add_parser("convolve", help="termwise product with a Gauss series")
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--coeffs", required=True, help="comma-separated coefficient list")
    sp.add_argument("--n", type=int, default=8, help="largest index to print")
    common(sp)
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
