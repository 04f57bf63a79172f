"""Radius solvers, the closed-form catalog, and sharpness machinery.

Every radius here is the smallest positive root of a weight-series equation
on (0, 1):

    analytic        (2/p)      * Phi_1(r) = (1+gamma) * phi_0(r)
    harmonic        2 (1+k)    * Phi_1(r) = p (1+gamma) * phi_0(r)
    subordination   2 (1+k)    * Phi_1(r) = phi_0(r)

For power weights these have elementary roots; the catalog stores every such
closed form, and solve_radius provides the matching bracketed bisection so
the two routes can always be compared.  Sharpness is checked operationally:
just beyond a radius, some member of the extremal family must push its
functional past the threshold phi_0(r) (times the distance d for the
subordination case).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .errors import BohrError, HypothesisError, NoRootError, ParameterError, check_gamma, check_k, check_p
from .extremal import ExtremalParams, harmonic_extremal, mobius_extremal, subordination_extremal
from .functionals import (
    LambdaWeight,
    harmonic_functional,
    lambda_zero,
    q_functional,
    refined_functional,
)
from .weights import WeightFamily, weight_at

SCAN_STEP = 1e-3
_R_LOW = 1e-9
_R_HIGH = 1.0 - 1e-9
_MAX_BISECT = 200
_GAP_TOL = 1e-14

DEFAULT_A_GRID = (0.9, 0.99, 0.999, 0.9999)


@dataclass(frozen=True)
class RadiusResult:
    """A solved radius: value, how it was found, and the bisection evidence."""

    value: float
    method: str
    residual: float
    bracket: tuple[float, float]
    iterations: int


@dataclass(frozen=True)
class SharpnessWitness:
    """Extremal parameter and point where a functional exceeds its threshold."""

    a: float
    r: float
    functional_value: float
    threshold: float


@dataclass(frozen=True)
class BohrProblem:
    """A Bohr-type inequality packaged for probing.

    evaluate(a, r) runs the functional on the extremal member with parameter
    a; threshold(r) is the bound the inequality asserts.  Problems whose
    extremal family has no free parameter ignore a.
    """

    evaluate: Callable[[float, float], float]
    threshold: Callable[[float], float]
    name: str = "bohr-problem"


def _bracket(
    past: Callable[[float], bool], width: float, at_origin: BohrError
) -> tuple[float, float | None, int]:
    """Bracket and bisect the first r in (0, 1) at which past(r) holds.

    Scans up from _R_LOW in SCAN_STEP steps; when past(_R_LOW) already holds,
    halves the floor instead until past fails, and raises at_origin once past
    holds down to the smallest normal float.  Then halves the bracket
    (lo, hi), past(lo) false and past(hi) true, until hi - lo <= width or
    _MAX_BISECT halvings; below SCAN_STEP the width shrinks in proportion
    to hi, so tiny roots keep their relative accuracy.  Returns (lo, hi,
    halvings); hi is None, and lo the last point scanned, when past never
    holds up to _R_HIGH.
    """
    lo, hi = _R_LOW, None
    if past(lo):
        while True:
            if lo <= sys.float_info.min:
                raise at_origin
            hi, lo = lo, max(0.5 * lo, sys.float_info.min)
            if not past(lo):
                break
    else:
        for i in range(1, math.ceil(1.0 / SCAN_STEP) + 1):
            r = min(i * SCAN_STEP, _R_HIGH)
            if past(r):
                hi = r
                break
            lo = r
        else:
            return lo, None, 0
    halvings = 0
    while hi - lo > width * min(1.0, hi / SCAN_STEP) and halvings < _MAX_BISECT:
        mid = 0.5 * (lo + hi)
        if past(mid):
            hi = mid
        else:
            lo = mid
        halvings += 1
    return lo, hi, halvings


def solve_radius(
    family: WeightFamily,
    lhs_scale: float,
    rhs_scale: float,
    tol: float = 1e-12,
) -> RadiusResult:
    """Smallest r in (0, 1) with lhs_scale * Phi_1(r) = rhs_scale * phi_0(r).

    Scans outward in steps of 1e-3 for the first sign change of the gap
    lhs_scale * Phi_1 - rhs_scale * phi_0 (negative below the radius), then
    bisects the bracket down to tol (relative to SCAN_STEP below it).  A
    root below the scan's start 1e-9 is found by walking the start toward 0.
    """
    if lhs_scale <= 0.0 or rhs_scale <= 0.0:
        raise ParameterError("both equation scales must be positive")
    if tol <= 0.0:
        raise ParameterError(f"tol must be positive, got {tol}")

    tail = family._tail
    rule = family._rule

    def gap(r: float) -> float:
        return lhs_scale * tail(1, r, _GAP_TOL) - rhs_scale * rule(0, r)

    lo, hi, iterations = _bracket(
        lambda r: gap(r) >= 0.0,
        2.0 * tol,
        HypothesisError("weight-series condition already fails as r -> 0+; no positive radius exists"),
    )
    if hi is None:
        raise NoRootError("gap never changes sign on (0, 1); the series stays subcritical")
    value = 0.5 * (lo + hi)
    return RadiusResult(
        value=value,
        method="bisection",
        residual=gap(value),
        bracket=(lo, hi),
        iterations=iterations,
    )


def analytic_radius(family: WeightFamily, p: float, gamma: float, tol: float = 1e-12) -> RadiusResult:
    """Radius of the refined analytic inequality: root of (2/p) Phi_1 = (1+gamma) phi_0.

    The root does not involve Lambda: the refinement term only tightens the
    inequality below the radius and vanishes along the extremal family limit.
    """
    check_p(p)
    check_gamma(gamma)
    return solve_radius(family, 2.0 / p, 1.0 + gamma, tol)


def harmonic_radius(
    family: WeightFamily, p: float, gamma: float, k: float, tol: float = 1e-12
) -> RadiusResult:
    """Root of 2 (1+k) Phi_1(r) = p (1+gamma) phi_0(r)."""
    check_p(p)
    check_gamma(gamma)
    check_k(k)
    return solve_radius(family, 2.0 * (1.0 + k), p * (1.0 + gamma), tol)


def subordination_radius(family: WeightFamily, k: float, tol: float = 1e-12) -> RadiusResult:
    """Root of 2 (1+k) Phi_1(r) = phi_0(r)."""
    check_k(k)
    return solve_radius(family, 2.0 * (1.0 + k), 1.0, tol)


def hypergeom_radius(
    a: float, b: float, c: float, p: float, gamma: float, tol: float = 1e-12
) -> RadiusResult:
    """Root of |2F1(a,b;c;x) - 1| = (1+gamma) p / 2 on (0, 1).

    Same-signed series coefficients (validated by the weight family) make
    |F - 1| equal the tail sum of the hypergeometric weights, so this reduces
    to an analytic radius for that family.
    """
    family = WeightFamily.hypergeometric(a, b, c)
    return analytic_radius(family, p, gamma, tol)


def _solve_kind(
    kind: str, family: WeightFamily, p: float, gamma: float, k: float, tol: float = 1e-12
) -> RadiusResult:
    """The radius of one kind of inequality; each kind reads the parameters it needs."""
    if kind == "analytic":
        return analytic_radius(family, p, gamma, tol)
    if kind == "harmonic":
        return harmonic_radius(family, p, gamma, k, tol)
    if kind == "subordination":
        return subordination_radius(family, k, tol)
    raise ParameterError(f"unknown radius kind {kind!r}")


# --- closed-form catalog ----------------------------------------------


def _check_big_k(K: float) -> None:
    if K < 1.0:
        raise ParameterError(f"quasiconformality constant K must be >= 1, got {K}")


def _check_y(y: float) -> None:
    if y <= 0.0:
        raise ParameterError(f"binomial exponent y must be positive, got {y}")


# one validator per catalog parameter name
_VALIDATORS = {"p": check_p, "gamma": check_gamma, "k": check_k, "K": _check_big_k, "y": _check_y}


class _Case(NamedTuple):
    """One closed-form radius and the equation it solves.

    family is (WeightFamily constructor, arguments); a string argument names
    the case parameter it takes.  p is the exponent the case fixes, or None
    when p is a parameter.
    """

    name: str
    params: tuple[str, ...]
    formula: Callable[..., float]
    family: tuple[str, dict]
    kind: str
    p: float | None = None

    def solve(self, params: dict, tol: float) -> RadiusResult:
        constructor, args = self.family
        family = getattr(WeightFamily, constructor)(
            **{key: params[v] if isinstance(v, str) else v for key, v in args.items()}
        )
        p = self.p if self.p is not None else params.get("p")
        k = (params["K"] - 1.0) / (params["K"] + 1.0) if "K" in params else params.get("k", 0.0)
        return _solve_kind(self.kind, family, p, params.get("gamma", 0.0), k, tol)


def _of_P(formula: Callable[[float], float]) -> Callable[[float, float], float]:
    """A formula in P = p (1+gamma), as a function of p and gamma."""
    return lambda p, gamma: formula(p * (1.0 + gamma))


_PG = ("p", "gamma")
_GK = ("gamma", "k")
_POWER = ("power", {})
_CATALOG = {
    case.name: case
    for case in (
        _Case("classical", ("gamma",), lambda gamma: (1.0 + gamma) / (3.0 + gamma), _POWER, "analytic", 1.0),
        _Case("power", _PG, _of_P(lambda P: P / (2.0 + P)), _POWER, "analytic"),
        _Case("even", _PG, _of_P(lambda P: math.sqrt(P / (2.0 + P))), ("even", {}), "analytic"),
        _Case(
            "odd", _PG, _of_P(lambda P: (math.sqrt(1.0 + P * P) - 1.0) / P),
            ("odd_with_unit_head", {}), "analytic",
        ),
        _Case(
            "linear_shift", _PG, _of_P(lambda P: 1.0 - math.sqrt(2.0 / (P + 2.0))),
            ("shifted_linear", {"start": 1}), "analytic",
        ),
        _Case(
            "weighted_n", _PG, _of_P(lambda P: (P + 1.0 - math.sqrt(2.0 * P + 1.0)) / P),
            ("power_alpha", {"alpha": 1.0, "start": 1}), "analytic",
        ),
        _Case("harmonic_p1", _GK, lambda gamma, k: (1.0 + gamma) / (3.0 + 2.0 * k + gamma), _POWER, "harmonic", 1.0),
        _Case("harmonic_p2", _GK, lambda gamma, k: (1.0 + gamma) / (2.0 + k + gamma), _POWER, "harmonic", 2.0),
        _Case(
            "binomial", ("p", "gamma", "y"),
            lambda p, gamma, y: 1.0 - (2.0 / (2.0 + p * (1.0 + gamma))) ** (1.0 / y),
            ("hypergeometric", {"a": "y", "b": 1.0, "c": 1.0}), "analytic",
        ),
        _Case("subordination", ("K",), lambda K: (K + 1.0) / (5.0 * K + 1.0), _POWER, "subordination"),
    )
}


def _catalog_case(case: str, params: dict) -> _Case:
    """The catalog entry named case, after validating the parameters it takes."""
    try:
        entry = _CATALOG[case]
    except KeyError:
        raise ParameterError(f"unknown catalog case {case!r}; choose from {sorted(_CATALOG)}") from None
    if set(params) != set(entry.params):
        raise ParameterError(
            f"bad parameters for catalog case {case!r}: takes {list(entry.params)}, got {sorted(params)}"
        )
    for name in entry.params:
        _VALIDATORS[name](params[name])
    return entry


def closed_form_radius(case: str, **params: float) -> float:
    """Catalog of elementary radius formulas, named by the setting they solve.

    classical     power weights, p = 1:           (1+g)/(3+g)
    power         power weights:                  P/(2+P), P = p (1+g)
    even          even powers:                    sqrt(P/(2+P))
    odd           odd powers, unit head:          (sqrt(1+P^2)-1)/P
    linear_shift  (n+1) r^n from n >= 1:          1 - sqrt(2/(P+2))
    weighted_n    n r^n from n >= 1:              (P+1-sqrt(2P+1))/P
    harmonic_p1   power weights, harmonic, p = 1: (1+g)/(3+2k+g)
    harmonic_p2   power weights, harmonic, p = 2: (1+g)/(2+k+g)
    binomial      weights of (1-x)^{-y}:          1 - (2/(2+P))^{1/y}
    subordination power weights, K-q.c.:          (K+1)/(5K+1)
    """
    return _catalog_case(case, params).formula(**params)


def catalog_solver(case: str, tol: float = 1e-12, **params: float) -> RadiusResult:
    """Bisection counterpart of each catalog entry (same equation, no formula)."""
    return _catalog_case(case, params).solve(params, tol)


def _closed_form_for(family: WeightFamily, kind: str, p: float, gamma: float, k: float) -> float | None:
    """The catalog formula for a (family, kind, p, gamma, k) radius, or None.

    A case with p free wins over its fixed-p specialisation (classical is
    power at p = 1).  K is read off k by K = (1+k)/(1-k), so k = 1 has none,
    and neither has a family whose parameters the case's validators reject.
    """
    swept = {"p": p, "gamma": gamma, "k": k, "K": (1.0 + k) / (1.0 - k) if k < 1.0 else None}
    for case in sorted(_CATALOG.values(), key=lambda c: c.p is not None):
        constructor, args = case.family
        if case.kind != kind or case.p not in (None, p) or family.name != constructor:
            continue
        if any(family.params[key] != v for key, v in args.items() if not isinstance(v, str)):
            continue
        values = {**swept, **{v: family.params[key] for key, v in args.items() if isinstance(v, str)}}
        params = {name: values[name] for name in case.params}
        if None in params.values():
            return None
        try:
            return closed_form_radius(case.name, **params)
        except ParameterError:  # e.g. binomial needs y = a > 0
            return None
    return None


# --- problems, sharpness, empirical radius ----------------------------


def analytic_problem(
    family: WeightFamily,
    p: float,
    gamma: float,
    lam: LambdaWeight = lambda_zero,
) -> BohrProblem:
    """Refined functional on the Moebius extremal family vs phi_0(r)."""
    check_p(p)
    check_gamma(gamma)

    def evaluate(a: float, r: float) -> float:
        stream = mobius_extremal(ExtremalParams(a=a, gamma=gamma))
        return refined_functional(stream, family, p, gamma, lam, r)

    return BohrProblem(
        evaluate=evaluate,
        threshold=lambda r: weight_at(family, 0, r),
        name=f"analytic(p={p}, gamma={gamma})",
    )


def harmonic_problem(family: WeightFamily, p: float, gamma: float, k: float) -> BohrProblem:
    """Harmonic functional on the k-dilated extremal family vs phi_0(r)."""
    check_p(p)
    check_gamma(gamma)
    check_k(k)

    def evaluate(a: float, r: float) -> float:
        fmap = harmonic_extremal(ExtremalParams(a=a, gamma=gamma, k=k))
        return harmonic_functional(fmap, family, p, r)

    return BohrProblem(
        evaluate=evaluate,
        threshold=lambda r: weight_at(family, 0, r),
        name=f"harmonic(p={p}, gamma={gamma}, k={k})",
    )


def subordination_problem(family: WeightFamily, k: float) -> BohrProblem:
    """Tail functional on the fixed subordination extremal vs d * phi_0(r)."""
    check_k(k)
    witness = subordination_extremal(k)

    def evaluate(a: float, r: float) -> float:
        return q_functional(witness.fmap, family, r)

    return BohrProblem(
        evaluate=evaluate,
        threshold=lambda r: witness.distance * weight_at(family, 0, r),
        name=f"subordination(k={k})",
    )


def sharpness_probe(
    radius: float,
    problem: BohrProblem,
    eps: float = 0.01,
    a_grid: Sequence[float] = DEFAULT_A_GRID,
) -> SharpnessWitness | None:
    """Hunt for a violation at r = radius + eps.

    Returns the first extremal parameter in a_grid whose functional exceeds
    the threshold there, or None when the whole grid stays below it (which is
    what must happen whenever radius + eps is still at most the true radius).
    """
    if eps <= 0.0:
        raise ParameterError(f"eps must be positive, got {eps}")
    r = radius + eps
    if not 0.0 < r < 1.0:
        raise ParameterError(f"probe point radius+eps={r} must lie in (0, 1)")
    threshold = problem.threshold(r)
    for a in a_grid:
        value = problem.evaluate(a, r)
        if value > threshold:
            return SharpnessWitness(a=a, r=r, functional_value=value, threshold=threshold)
    return None


def empirical_bohr_radius(
    problem: BohrProblem,
    a_grid: Sequence[float] = DEFAULT_A_GRID,
    r_tol: float = 1e-9,
) -> float:
    """Largest r at which every grid member still satisfies the inequality.

    Bisects the first sign change of max_a(functional - threshold) over r.
    The result upper-bounds the true radius and converges to it as the grid
    refines toward a -> 1-.
    """
    if r_tol <= 0.0:
        raise ParameterError(f"r_tol must be positive, got {r_tol}")
    if not a_grid:
        raise ParameterError("a_grid must be nonempty")

    def excess(r: float) -> float:
        return max(problem.evaluate(a, r) - problem.threshold(r) for a in a_grid)

    lo, hi, _ = _bracket(lambda r: excess(r) > 0.0, r_tol, NoRootError("inequality already fails as r -> 0+"))
    return _R_HIGH if hi is None else 0.5 * (lo + hi)
