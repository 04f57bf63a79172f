"""The three workloads: seeded rounds of ops, how each op runs, how it is checked.

A round is a fixed list of ops whose parameters are drawn from the seed and
the round index.  Every parameter is jittered around a fixed centre, so the
cost of a round hardly depends on the seed, while no two rounds repeat an
input (a cache keyed on inputs gains nothing across rounds).

Each workload is a function ``(B, seed, round_index, user)`` that builds one
round.  ``user`` wraps the benchmark's own weight rules before bohrad gets
them; the tracer passes a wrapper that counts their calls.  An op's ``run``
is the timed part and calls bohrad through the package namespace ``B`` at
call time, so the tracer's wrappers apply.  Its ``check``
runs afterwards and compares the output with the oracles; it raises
``NoResult`` when the op produced no result (an exception or a nonzero exit
code) and ``oracles.CheckFailed`` when the result is wrong.
"""

from __future__ import annotations

import csv
import io
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import oracles as O
from oracles import CheckFailed


class NoResult(Exception):
    """The op ended without a result; the message is the recorded reason."""


@dataclass
class Op:
    cls: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], dict]
    rerun: bool = True


def unwrapped(name: str, fn: Callable) -> Callable:
    """The default for a workload's ``user`` argument: the tracer passes a wrapper instead."""
    return fn


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def _jitter(rng: random.Random, centre: float, rel: float = 0.05) -> float:
    return centre * (1.0 + rel * (2.0 * rng.random() - 1.0))


def _shift(rng: random.Random, centre: float, width: float = 0.05) -> float:
    return max(0.0, centre + width * (2.0 * rng.random() - 1.0))


def make_family(B, spec: tuple):
    kind = spec[0]
    if kind == "power":
        return B.WeightFamily.power()
    if kind == "even":
        return B.WeightFamily.even()
    if kind == "odd":
        return B.WeightFamily.odd_with_unit_head()
    if kind == "shifted":
        return B.WeightFamily.shifted_linear(spec[1])
    if kind == "power_alpha":
        return B.WeightFamily.power_alpha(spec[1], spec[2])
    if kind == "hypergeom":
        return B.WeightFamily.hypergeometric(*spec[1:])
    raise ValueError(f"unknown family spec {spec!r}")


# --- radius_table ----------------------------------------------------------


def _cli(B, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = B.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _rows(result: tuple[int, str, str]) -> list[dict]:
    rc, out, err = result
    if rc != 0:
        raise NoResult(f"exit {rc}: {err.strip()}")
    return list(csv.DictReader(io.StringIO(out)))


def _family_flags(spec: tuple) -> list[str]:
    kind = spec[0]
    if kind in ("power", "even", "odd"):
        return ["--family", kind]
    if kind == "shifted":
        return ["--family", "shifted-linear", "--start", str(spec[1])]
    if kind == "power_alpha":
        return ["--family", "power-alpha", "--alpha", repr(spec[1]), "--start", str(spec[2])]
    if kind == "hypergeom":
        return ["--family", "hypergeom", "--abc", ",".join(repr(x) for x in spec[1:])]
    raise ValueError(f"unknown family spec {spec!r}")


# catalog case -> centre of each parameter it takes (CLI flag names)
CASES = (
    ("classical", {"gamma": 0.3}),
    ("power", {"p": 1.2, "gamma": 0.2}),
    ("even", {"p": 0.8, "gamma": 0.4}),
    ("odd", {"p": 1.5, "gamma": 0.1}),
    ("linear_shift", {"p": 1.0, "gamma": 0.5}),
    ("weighted_n", {"p": 1.8, "gamma": 0.3}),
    ("harmonic_p1", {"gamma": 0.2, "k": 0.4}),
    ("harmonic_p2", {"gamma": 0.6, "k": 0.7}),
    ("binomial", {"p": 1.0, "gamma": 0.2, "y": 1.5}),
    ("subordination", {"K": 2.5}),
)

# radius kind -> (centres of p, gamma, k; the shifted start, alpha and abc it uses)
FAMILY_KINDS = (
    ("analytic", (1.0, 0.3, 0.0), 2, 0.5, (1.5, 0.5, 2.0)),
    ("harmonic", (1.5, 0.2, 0.5), 1, 2.0, (0.5, 1.0, 1.0)),
    ("subordination", (1.0, 0.0, 0.4), 3, 1.0, (0.5, 0.5, 1.0)),
)

# ops that exit 2 today: their radius lies at or below the solver's fixed
# scan floor (_R_LOW = 1e-9 in radii.py); their inputs never depend on the seed
FAULT_FAMILY_OPS = ((("power",), 1e-9), (("power_alpha", 1.0, 1), 1e-9))
FAULT_CASE_OPS = (("power", {"p": 2e-9, "gamma": 0.0}),)


def _draw_case(rng, centres: dict) -> dict:
    params = {}
    for name, c in centres.items():
        if name == "p":
            params[name] = min(2.0, _jitter(rng, c))
        elif name in ("K", "y"):
            params[name] = _jitter(rng, c)
        else:
            params[name] = _shift(rng, c)
    return params


def _case_op(B, case: str, params: dict, cls: str = "case") -> Op:
    argv = ["radius", "--case", case]
    for name, value in params.items():
        argv += [f"--{name}", repr(value)]

    def check(result):
        row = _rows(result)[0]
        expected = O.catalog(case, **params)
        tol = O.printed_tolerance(expected)
        err = 0.0
        for column in ("value_closed", "value_bisect"):
            e = abs(float(row[column]) - float(expected))
            if not e <= tol:
                raise CheckFailed(f"{case}: {column} {row[column]} is {e:.3g} from {float(expected)!r}")
            err = max(err, e)
        return {"oracle_error": err, "catalog_delta": float(row["delta"])}

    return Op(cls, " ".join(argv), lambda: _cli(B, argv), check)


def _family_op(B, spec: tuple, kind: str, p: float, gamma: float, k: float, cls: str = "family") -> Op:
    argv = ["radius", "--kind", kind, *_family_flags(spec), "--p", repr(p), "--gamma", repr(gamma), "--k", repr(k)]

    def check(result):
        row = _rows(result)[0]
        lhs, rhs = O.equation_scales(kind, p, gamma, k)
        return {"oracle_error": O.check_root(spec, lhs, rhs, float(row["value_bisect"]))}

    return Op(cls, " ".join(argv), lambda: _cli(B, argv), check)


def _grid(lo: float, step: float, count: int) -> tuple[str, list[float]]:
    """A LO:HI:STEP argument of dyadic values (exact in binary) and its points."""
    points = [lo + m * step for m in range(count)]
    return f"{lo!r}:{points[-1]!r}:{step!r}", points


def _table_op(B, spec: tuple, kind: str, case: str, rows: list[dict], argv: list[str]) -> Op:
    def check(result):
        printed = _rows(result)
        if len(printed) != len(rows):
            raise CheckFailed(f"table printed {len(printed)} rows, expected {len(rows)}")
        err = 0.0
        for row, params in zip(printed, rows):
            p, gamma, k = params.get("p", 1.0), params.get("gamma", 0.0), params.get("k", 0.0)
            for name, value in (("p", p), ("gamma", gamma), ("k", k)):
                if row[name] != f"{value:.12g}":
                    raise CheckFailed(f"table row {name}={row[name]}, expected {value!r}")
            lhs, rhs = O.equation_scales(kind, p, gamma, k)
            err = max(err, O.check_root(spec, lhs, rhs, float(row["value_bisect"])))
            expected = O.catalog(case, **params)
            e = abs(float(row["value_closed"]) - float(expected))
            if not e <= O.printed_tolerance(expected):
                raise CheckFailed(f"table value_closed {row['value_closed']} is {e:.3g} from {float(expected)!r}")
            if row["mismatch"] != "ok":
                raise CheckFailed(f"table row flagged {row['mismatch']!r}")
            err = max(err, e)
        return {"oracle_error": err}

    return Op("table", " ".join(argv), lambda: _cli(B, argv), check)


def _tables(B, rng) -> list[Op]:
    ops = []
    p0 = rng.randrange(48, 80) / 64
    g = rng.randrange(0, 32) / 64
    text, ps = _grid(p0, 0.25, 3)
    argv = ["table", "--family", "power", "--p", text, "--gamma", repr(g)]
    ops.append(_table_op(B, ("power",), "analytic", "power", [{"p": x, "gamma": g} for x in ps], argv))

    p = rng.randrange(48, 96) / 64
    text, gs = _grid(rng.randrange(0, 24) / 64, 0.125, 4)
    argv = ["table", "--family", "shifted-linear", "--p", repr(p), "--gamma", text]
    ops.append(_table_op(B, ("shifted", 1), "analytic", "linear_shift", [{"p": p, "gamma": x} for x in gs], argv))

    g = rng.randrange(0, 40) / 64
    text, ks = _grid(rng.randrange(0, 32) / 64, 0.25, 3)
    argv = ["table", "--kind", "harmonic", "--family", "power", "--p", "1", "--gamma", repr(g), "--k", text]
    ops.append(_table_op(B, ("power",), "harmonic", "harmonic_p1", [{"gamma": g, "k": x} for x in ks], argv))
    return ops


def log_rule(n: int, r: float) -> float:
    """The benchmark's user rule phi_n(r) = r^n / (n+1)."""
    return r**n / (n + 1)


def log_tail(N: int, r: float) -> float:
    """sum_{n>=N} r^n/(n+1) = (-log(1-r) - sum_{m=1}^{N} r^m/m) / r."""
    if r == 0.0:
        return 1.0 if N == 0 else 0.0
    return (-math.log1p(-r) - sum(r**m / m for m in range(1, N + 1))) / r


def _custom_op(B, user: Callable, with_tail: bool, p: float, gamma: float) -> Op:
    rule = user("log_rule", log_rule)
    tail = user("log_tail", log_tail) if with_tail else None

    def run():
        family = B.WeightFamily.custom(rule, 1.0, name="log", tail=tail)
        return B.analytic_radius(family, p, gamma)

    def check(result):
        lhs, rhs = O.equation_scales("analytic", p, gamma, 0.0)
        return {"oracle_error": O.check_root(("log",), lhs, rhs, result.value)}

    cls = "custom_tail" if with_tail else "custom_series"
    return Op(cls, f"analytic_radius(custom {cls}, p={p!r}, gamma={gamma!r})", run, check)


def radius_table(B, seed: int, round_index: int, user: Callable = unwrapped) -> list[Op]:
    rng = _rng("radius_table", seed, round_index)
    ops = [_case_op(B, case, _draw_case(rng, centres)) for case, centres in CASES]
    for kind, (p, gamma, k), start, alpha, abc in FAMILY_KINDS:
        specs = (("power",), ("even",), ("odd",), ("shifted", start), ("power_alpha", alpha, 1), ("hypergeom", *abc))
        for spec in specs:
            ops.append(_family_op(B, spec, kind, min(2.0, _jitter(rng, p)), _shift(rng, gamma), _shift(rng, k)))
    ops += _tables(B, rng)
    ops.append(_custom_op(B, user, True, _jitter(rng, 1.0), _shift(rng, 0.2)))
    ops.append(_custom_op(B, user, False, _jitter(rng, 1.5), _shift(rng, 0.4)))
    ops += [_family_op(B, spec, "analytic", p, 0.0, 0.0, cls="fault") for spec, p in FAULT_FAMILY_OPS]
    ops += [_case_op(B, case, params, cls="fault") for case, params in FAULT_CASE_OPS]
    return ops


# --- functional_near_one ---------------------------------------------------

NEAR_ONE_FAMILIES = (
    ("power",),
    ("shifted", 1),
    ("power_alpha", 0.5, 1),
    ("power_alpha", 1.0, 1),
    ("power_alpha", 2.0, 1),
    ("hypergeom", 0.5, 1.0, 1.0),
)
# 1 - r, halving from 0.5 and ending at 0.02
NEAR_ONE_KINDS = ("refined_l0", "refined_l1", "harmonic", "q")
NEAR_ONE_STEPS = 8
NEAR_ONE_FAR, NEAR_ONE_NEAR = 0.5, 0.02  # the range of 1 - r
# ops closer to r = 1 than this take up to seconds; the determinism rerun skips them
NEAR_ONE_RERUN_GAP = 0.06


def near_one_gaps(family_index: int) -> list[float]:
    """The values of 1 - r for one family, log-spaced from 0.5 down to 0.02.

    Each family's values sit a sixth of a step after the previous family's,
    so the 72 values of a round are evenly log-spaced and op costs, which
    grow like (1 - r)^-2 for series-backed families, leave no gap in which
    the median op latency could fall.
    """
    ratio = NEAR_ONE_NEAR / NEAR_ONE_FAR
    n = len(NEAR_ONE_FAMILIES)
    last = NEAR_ONE_STEPS - 1 + (n - 1) / n
    return [NEAR_ONE_FAR * ratio ** ((j + family_index / n) / last) for j in range(NEAR_ONE_STEPS)]


def _functional_op(B, spec: tuple, kind: str, r: float, a: float, gamma: float, p: float, k: float, rerun: bool) -> Op:
    if kind.startswith("refined"):
        lam_one = kind == "refined_l1"

        def run():
            stream = B.mobius_extremal(B.ExtremalParams(a=a, gamma=gamma))
            lam = B.lambda_one if lam_one else B.lambda_zero
            return B.refined_functional(stream, make_family(B, spec), p, gamma, lam, r)

        def exact():
            return O.refined_value(spec, a, gamma, p, lam_one, r)

    elif kind == "harmonic":

        def run():
            fmap = B.harmonic_extremal(B.ExtremalParams(a=a, gamma=gamma, k=k))
            return B.harmonic_functional(fmap, make_family(B, spec), p, r)

        def exact():
            return O.harmonic_value(spec, a, gamma, k, p, r)

    else:

        def run():
            witness = B.subordination_extremal(k)
            return B.q_functional(witness.fmap, make_family(B, spec), r)

        def exact():
            return O.q_value(spec, k, r)

    def check(value):
        return {"oracle_error": O.check_value(value, exact())}

    label = f"{kind} {spec} r={r!r} a={a!r} gamma={gamma!r} p={p!r} k={k!r}"
    return Op(kind, label, run, check, rerun)


def functional_near_one(B, seed: int, round_index: int, user: Callable = unwrapped) -> list[Op]:
    rng = _rng("functional_near_one", seed, round_index)
    ops = []
    for fi, spec in enumerate(NEAR_ONE_FAMILIES):
        for li, gap in enumerate(near_one_gaps(fi)):
            kind = NEAR_ONE_KINDS[(fi + li) % len(NEAR_ONE_KINDS)]
            r = 1.0 - _jitter(rng, gap, 0.01)
            a = 0.9 + 0.09 * rng.random()
            gamma = 0.5 * rng.random()
            p = 0.5 + 1.5 * rng.random()
            k = rng.random()
            ops.append(_functional_op(B, spec, kind, r, a, gamma, p, k, gap > NEAR_ONE_RERUN_GAP))
    return ops


# --- sharpness_empirical ---------------------------------------------------

# probe distances past and short of the radius; the empirical radius may
# exceed R by at most the smaller one
SHARP_EPS = (0.01, 0.02)
EMPIRICAL_R_TOL = 1e-9  # empirical_bohr_radius's default r_tol

# (kind, spec, Lambda = 1, centres of p, gamma, k); every problem has a
# catalog radius, so R is known without the program's solver
SHARP_PROBLEMS = (
    ("analytic", ("power",), False, (1.0, 0.05, 0.0)),
    ("analytic", ("power",), True, (2.0, 0.5, 0.0)),
    ("analytic", ("power",), False, (0.5, 0.3, 0.0)),
    ("analytic", ("power",), True, (1.5, 0.2, 0.0)),
    ("analytic", ("power_alpha", 1.0, 1), False, (1.0, 0.1, 0.0)),
    ("analytic", ("power_alpha", 1.0, 1), True, (1.5, 0.3, 0.0)),
    ("analytic", ("hypergeom", 0.5, 1.0, 1.0), False, (1.0, 0.1, 0.0)),
    ("harmonic", ("power",), False, (1.0, 0.2, 0.25)),
    ("harmonic", ("power",), False, (2.0, 0.4, 0.75)),
    ("subordination", ("power",), False, (1.0, 0.0, 0.3)),
    ("subordination", ("power",), False, (1.0, 0.0, 0.8)),
)


def _sharp_radius(kind: str, spec: tuple, p: float, gamma: float, k: float):
    """The catalog radius of a sharpness problem, in mpmath."""
    if kind == "analytic":
        if spec[0] == "power":
            return O.catalog("power", p=p, gamma=gamma)
        if spec[0] == "power_alpha":
            return O.catalog("weighted_n", p=p, gamma=gamma)
        return O.catalog("binomial", p=p, gamma=gamma, y=spec[1])
    if kind == "harmonic":
        return O.catalog("harmonic_p1" if p == 1.0 else "harmonic_p2", gamma=gamma, k=k)
    K = (1 + O.mp.mpf(k)) / (1 - O.mp.mpf(k))
    return O.catalog("subordination", K=K)


def _sharp_ops(B, kind: str, spec: tuple, lam_one: bool, p: float, gamma: float, k: float) -> list[Op]:
    R = _sharp_radius(kind, spec, p, gamma, k)
    radius = float(R)
    heavy = spec[0] == "hypergeom"

    def problem():
        family = make_family(B, spec)
        if kind == "analytic":
            return B.analytic_problem(family, p, gamma, B.lambda_one if lam_one else B.lambda_zero)
        if kind == "harmonic":
            return B.harmonic_problem(family, p, gamma, k)
        return B.subordination_problem(family, k)

    def exceeds(witness) -> bool:
        """Whether the oracle functional beats the oracle threshold at the witness."""
        a, r = witness.a, witness.r
        if kind == "analytic":
            return O.refined_value(spec, a, gamma, p, lam_one, r) > O.phi(spec, 0, r)
        if kind == "harmonic":
            return O.harmonic_value(spec, a, gamma, k, p, r) > O.phi(spec, 0, r)
        return O.q_value(spec, k, r) > O.phi(spec, 0, r) / 2

    def check_empirical(value):
        if not R - EMPIRICAL_R_TOL <= value <= R + SHARP_EPS[0]:
            raise CheckFailed(f"empirical radius {value!r} outside [R - r_tol, R + eps], R = {radius!r}")
        return {"oracle_error": float(abs(value - R))}

    def check_above(eps):
        def check(witness):
            if witness is None:
                raise CheckFailed(f"no witness at R + eps = {radius + eps!r}")
            if witness.r != radius + eps or not exceeds(witness):
                raise CheckFailed(f"witness at a={witness.a!r}, r={witness.r!r} does not exceed the threshold")
            return {}

        return check

    def check_below(witness):
        if witness is not None:
            raise CheckFailed(f"witness a={witness.a!r} below the radius, at r={witness.r!r}")
        return {}

    name = f"{kind} {spec} lambda={int(lam_one)} p={p!r} gamma={gamma!r} k={k!r}"
    ops = [Op("empirical", f"empirical_bohr_radius {name}", lambda: B.empirical_bohr_radius(problem()), check_empirical, not heavy)]
    for eps in SHARP_EPS:
        ops.append(
            Op("probe_above", f"sharpness_probe R+{eps} {name}", lambda eps=eps: B.sharpness_probe(radius, problem(), eps), check_above(eps))
        )
        ops.append(
            Op(
                "probe_below",
                f"sharpness_probe R-{eps} {name}",
                lambda eps=eps: B.sharpness_probe(radius - 2 * eps, problem(), eps),
                check_below,
            )
        )
    return ops


def sharpness_empirical(B, seed: int, round_index: int, user: Callable = unwrapped) -> list[Op]:
    rng = _rng("sharpness_empirical", seed, round_index)
    ops = []
    for kind, spec, lam_one, (p, gamma, k) in SHARP_PROBLEMS:
        if kind == "analytic":
            p = min(2.0, _jitter(rng, p))
        if kind != "subordination":
            gamma = _shift(rng, gamma)
        if kind != "analytic":
            k = _shift(rng, k)
        ops += _sharp_ops(B, kind, spec, lam_one, p, gamma, k)
    return ops


WORKLOADS = {
    "radius_table": radius_table,
    "functional_near_one": functional_near_one,
    "sharpness_empirical": sharpness_empirical,
}
