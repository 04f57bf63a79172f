"""Bohr-type functionals built from coefficient streams and weight families.

The refined analytic functional is

    M(f, r) = phi_0(r) |a_0|^p + sum_{n>=1} |a_n| phi_n(r)
              + Lambda(r) * A(f, r),

with refinement term

    A(f, r) = sum_{n>=1} |a_n|^{2n} ( phi_{2n}(r)/(1 + |a_0|) + Phi_{2n+1}(r) ).

The harmonic variant replaces |a_n| with |a_n| + |b_n|; the tail functional
drops the head entirely and is compared against d * phi_0(r) where d is the
distance from the subordinating map's center value to its boundary.

Both sums need the tail Phi_{m+1}(r) next to every weight phi_m(r): the
weighted sum for its stop rule, the refinement term inside each term.  The
weights are read in blocks that double in length (32, 64, 128, ...); each
block costs one tail call Phi_end(r) at its end, and the tails inside the
block are its suffix sums, added from the block's end.  For series-backed
tails a sum of N terms so costs O(N) weight reads and O(log N) tail calls,
where one tail call per term would cost O(N^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, ParameterError, TruncationError, UnsupportedInputError, check_gamma, check_p
from .series import CoefficientStream, HarmonicMap
from .weights import WeightFamily, tail_value, weight_at

_MAX_TERMS = 1_000_000
_LOG_POW_CUTOFF = 1e-8
_BLOCK_START = 32  # weights in the first block
_BLOCK_GROWTH = 2  # each next block is this many times as long

LambdaWeight = Callable[[float], float]


def lambda_zero(r: float) -> float:
    """Lambda == 0: drop the refinement term."""
    return 0.0


def lambda_one(r: float) -> float:
    """Lambda == 1: full refinement term."""
    return 1.0


def _lambda_value(lam: LambdaWeight, r: float) -> float:
    value = float(lam(r))
    if not 0.0 <= value <= 1.0:
        raise ParameterError(f"Lambda(r) must lie in [0, 1], got {value} at r={r}")
    return value


def _check_r(r: float) -> None:
    if not 0.0 <= r < 1.0:
        raise DomainError(f"functionals are defined for r in [0, 1), got r={r}")


def _modulus_power(an: float, n: int) -> float:
    """|a_n|^{2n}, in log space for tiny bases so underflow stays gradual."""
    if an == 0.0:
        return 0.0
    if an < _LOG_POW_CUTOFF:
        return math.exp(2.0 * n * math.log(an))
    return an ** (2 * n)


@dataclass(frozen=True)
class SubordinationContext:
    """Distance data for a subordination pair.

    distance = dist(psi(0), boundary psi(D)) must sit between
    |psi'(0)|/2 and |psi'(0)|.
    """

    distance: float
    psi_prime_at_0: float

    def __post_init__(self):
        lo = 0.5 * abs(self.psi_prime_at_0)
        hi = abs(self.psi_prime_at_0)
        if not lo <= self.distance <= hi:
            raise ParameterError(
                f"distance {self.distance} outside [{lo}, {hi}] allowed by the derivative"
            )


def _weights_and_tails(family: WeightFamily, r: float, tol: float, start: int, stop: int):
    """Yield (m, phi_m(r), Phi_{m+1}(r)) for m = start, ..., stop - 1.

    One tail call per block (at tolerance tol), suffix sums inside it; no
    weight at an index >= stop is read.
    """
    lo, size = start, _BLOCK_START
    while lo < stop:
        hi = min(lo + size, stop)
        weights = [weight_at(family, m, r) for m in range(lo, hi)]
        tails = [tail_value(family, hi, r, tol)]
        for w in reversed(weights[1:]):
            tails.append(tails[-1] + w)
        yield from zip(range(lo, hi), weights, reversed(tails))
        lo, size = hi, _BLOCK_GROWTH * size


def a_term(f: CoefficientStream, family: WeightFamily, r: float, tol: float = 1e-12) -> float:
    """Refinement term A(f, r); requires every modulus <= 1."""
    _check_r(r)
    a0 = f.at(0)
    if a0 > 1.0:
        raise UnsupportedInputError(f"|a_0|={a0} > 1; refinement term undefined")
    total = 0.0
    small = 0
    min_terms = max(8, (f.order_hint or 0) // 2 + 1)
    inner = tol / 16.0
    for m, phi, tail in _weights_and_tails(family, r, inner, 2, 2 * _MAX_TERMS - 1):
        if m % 2:
            continue
        n = m // 2
        an = f.at(n)
        if an > 1.0:
            raise UnsupportedInputError(
                f"|a_{n}|={an} > 1; the refinement series need not converge"
            )
        term = _modulus_power(an, n) * (phi / (1.0 + a0) + tail)
        total += term
        if term <= tol * max(1.0, total) / 8.0:
            small += 1
            if small >= 3 and n >= min_terms:
                return total
        else:
            small = 0
    raise TruncationError("refinement term did not converge within the term cap", partial=total)


def _weighted_tail(
    get: Callable[[int], float], family: WeightFamily, r: float, tol: float, max_terms: int = _MAX_TERMS
) -> float:
    """sum_{n>=1} get(n) * phi_n(r), stopping on the certified tail bound.

    The sum stops at the first n with sup * Phi_{n+1}(r) <= tol.  The tails
    come from _weights_and_tails: one tail call at the end of each block of
    weights (blocks double from 32), plus suffix sums of the block's weights
    below that end, so reading to index N costs O(log N) tail calls.

    The unseen moduli are bounded by max(1, moduli seen): every stream built
    by this library has all moduli <= max(1, early terms), and callers with
    wilder streams should scale first.
    """
    total = 0.0
    sup = 1.0
    inner = tol / 16.0
    for n, phi, tail in _weights_and_tails(family, r, inner, 1, max_terms):
        v = get(n)
        if v > sup:
            sup = v
        total += v * phi
        if sup * tail <= tol:
            return total
    raise TruncationError("weighted sum did not converge within the term cap", partial=total)


def majorant(f: CoefficientStream, r: float, tol: float = 1e-12, max_terms: int = _MAX_TERMS) -> float:
    """Majorant series M_f(r) = sum_{n>=0} |a_n| r^n.

    This is the unrefined power-weight functional at p = 1, truncated once
    sup|a_n| * Phi_{N+1}(r) <= tol like every weighted sum here.
    """
    _check_r(r)
    return f.at(0) + _weighted_tail(f.at, WeightFamily.power(), r, tol, max_terms)


def refined_functional(
    f: CoefficientStream,
    family: WeightFamily,
    p: float,
    gamma: float,
    lam: LambdaWeight,
    r: float,
    tol: float = 1e-12,
) -> float:
    """Refined majorant functional M(f, r) for exponent p on Omega(gamma)."""
    check_p(p)
    check_gamma(gamma)
    _check_r(r)
    a0 = f.at(0)
    value = weight_at(family, 0, r) * a0**p
    value += _weighted_tail(f.at, family, r, tol)
    lam_value = _lambda_value(lam, r)
    if lam_value > 0.0:
        value += lam_value * a_term(f, family, r, tol)
    return value


def harmonic_functional(
    fmap: HarmonicMap,
    family: WeightFamily,
    p: float,
    r: float,
    tol: float = 1e-12,
) -> float:
    """|a_0|^p phi_0(r) + sum_{n>=1} (|a_n| + |b_n|) phi_n(r)."""
    check_p(p)
    _check_r(r)
    value = weight_at(family, 0, r) * fmap.h.at(0) ** p
    value += _weighted_tail(lambda n: fmap.h.at(n) + fmap.g.at(n), family, r, tol)
    return value


def q_functional(fmap: HarmonicMap, family: WeightFamily, r: float, tol: float = 1e-12) -> float:
    """Headless tail sum_{n>=1} (|a_n| + |b_n|) phi_n(r)."""
    _check_r(r)
    return _weighted_tail(lambda n: fmap.h.at(n) + fmap.g.at(n), family, r, tol)


_AUX_KINDS = ("linear", "quadratic", "shifted_linear")


def aux_tail(kind: str, n: int, a0_modulus: float, r: float) -> float:
    """Closed form of phi_{2n}(r)/(1+|a_0|) + Phi_{2n+1}(r) for three weight rows.

    kind selects the underlying weights: "linear" is phi_m = m r^m,
    "quadratic" is phi_m = m^2 r^m, "shifted_linear" is phi_m = (m+1) r^m
    (each for m >= 1 with unit head).
    """
    if kind not in _AUX_KINDS:
        raise ParameterError(f"kind must be one of {_AUX_KINDS}, got {kind!r}")
    if n < 1 or not float(n).is_integer():
        raise ParameterError(f"index n must be a positive integer, got {n!r}")
    if not 0.0 <= a0_modulus <= 1.0:
        raise ParameterError(f"|a_0| must lie in [0, 1], got {a0_modulus}")
    _check_r(r)
    n = int(n)
    head = 1.0 + a0_modulus
    u = 1.0 - r
    if kind == "linear":
        return 2.0 * n * r ** (2 * n) / head + (1.0 + 2.0 * n * u) * r ** (2 * n + 1) / u**2
    if kind == "quadratic":
        poly = 1.0 + 4.0 * n * u + 4.0 * n * n * u**2 + r
        return 4.0 * n * n * r ** (2 * n) / head + poly * r ** (1 + 2 * n) / u**3
    return (2.0 * n + 1.0) * r ** (2 * n) / head + r ** (2 * n + 1) * (2.0 + 2.0 * n * u - r) / u**2
