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

import itertools
import math
from typing import Callable

from .errors import DomainError, ParameterError, TruncationError, UnsupportedInputError, check_gamma, check_p
from .extremal import ExtremalParams
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

    The sum stops at the first n with sup * (Phi_{n+1}(r) + inner) <= tol,
    where inner = tol/16 is the error each tail is summed to.  The tails
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
        if sup * (tail + inner) <= tol:
            return total
    raise TruncationError("weighted sum did not converge within the term cap", partial=total)


def majorant(f: CoefficientStream, r: float, tol: float = 1e-12, max_terms: int = _MAX_TERMS) -> float:
    """Majorant series M_f(r) = sum_{n>=0} |a_n| r^n.

    This is the unrefined power-weight functional at p = 1, truncated once
    sup|a_n| * (Phi_{N+1}(r) + tol/16) <= tol like every weighted sum here.
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


# --- the extremals, on any weight family --------------------------------
#
# Each function below equals the summed functional on the extremal's streams
# to within tol, on any weight family, and builds no stream: the moduli of h_a
# are lead * q^n, so the weighted sum is lead * sum_{n>=1} q^n phi_n(r), one
# tail value on the built-in families (see the extremal module).


def _geometric_tail(family: WeightFamily, q: float, r: float, tol: float) -> float:
    """sum_{n>=1} q^n phi_n(r) for q in (0, 1], reading every tail at tol.

    With phi_n(r) = c_n r^n (WeightFamily._power_series) this is the one
    tail value Phi_1(q r); on any other family it is the weighted sum, whose
    tails are read at 1/16 of its stop threshold, here 16 tol.
    """
    if family._power_series:
        return tail_value(family, 1, q * r, tol)
    return _weighted_tail(lambda n: q**n, family, r, 16.0 * tol)


def _extremal_sum(params: ExtremalParams, family: WeightFamily, p: float, r: float, tol: float = 1e-12) -> float:
    """phi_0(r) |a_0|^p + (1 + k) sum_{n>=1} |a_n| phi_n(r) for h_a.

    This is harmonic_functional(harmonic_extremal(params), ...), and at k = 0
    the refined functional without its refinement term.
    """
    _check_r(r)
    scale = (1.0 + params.k) * params.lead
    value = weight_at(family, 0, r) * params.head**p
    # the tail error is multiplied by scale, which exceeds 1 for small a
    value += scale * _geometric_tail(family, params.q, r, tol / 16.0 / max(1.0, scale))
    return value


def _extremal_a_term(params: ExtremalParams, family: WeightFamily, r: float, tol: float) -> float:
    """A(h_a, r) from t_n = |a_n|^{2n} = (lead q^n)^{2n}, to an index N fixed in advance.

    Past N every bracket phi_{2n}(r)/(1 + |a_0|) + Phi_{2n+1}(r) is at most
    Phi_{2N+1}(r), and the ratios rho_n = t_{n+1}/t_n = lead^2 q^{4n+2} fall
    as n grows, so the terms past N add at most
    Phi_{2N+1}(r) t_{N+1}/(1 - rho_{N+1}).  N >= 1 is the first index where
    that is <= tol/8 with 1 in place of Phi_{2N+1}(r), and the brackets are
    one block of weights with one tail call, at 2N + 1.  A tail above 1
    bounds every later one, so N is then chosen again with it in place of 1
    and a second block extends the first.
    """
    inner = tol / 16.0
    head, lead, q = params.head, params.lead, params.q
    total, bound, n = 0.0, 1.0, 1
    while True:
        start, powers = n, []
        while True:
            an = lead * q**n
            if an > 1.0:
                raise UnsupportedInputError(f"|a_{n}|={an} > 1; the refinement series need not converge")
            t = _modulus_power(an, n)
            if n > 1 and bound * t <= tol / 8.0 * (1.0 - lead * lead * q ** (4 * n + 2)):
                break
            powers.append(t)
            n += 1
        if not powers:
            return total
        brackets = _weights_and_tails(family, r, inner, 2 * start, 2 * n - 1)
        for t, (_, phi, tail) in zip(powers, itertools.islice(brackets, 0, None, 2)):
            total += t * (phi / (1.0 + head) + tail)
        # the last tail read is Phi_{2n-1}(r), at the block's end
        if tail + inner <= bound:
            return total
        bound = tail + inner


def _extremal_refined(
    params: ExtremalParams, family: WeightFamily, p: float, lam: LambdaWeight, r: float, tol: float = 1e-12
) -> float:
    """refined_functional(mobius_extremal(params), ...), on any weight family."""
    value = _extremal_sum(params, family, p, r, tol)
    lam_value = _lambda_value(lam, r)
    if lam_value > 0.0:
        value += lam_value * _extremal_a_term(params, family, r, tol)
    return value


def _subordination_q(k: float, family: WeightFamily, r: float, tol: float = 1e-12) -> float:
    """q_functional(subordination_extremal(k).fmap, ...): (1 + k) Phi_1(r)."""
    _check_r(r)
    return (1.0 + k) * tail_value(family, 1, r, tol / 16.0)


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
