"""Coefficient streams and series-level operations.

A CoefficientStream is a lazy sequence of coefficient moduli |a_n|; a
HarmonicMap pairs the analytic and co-analytic streams of h + conj(g).
Everything downstream (functionals, radii) consumes these streams, so the
producer must be deterministic: the same n always yields the same value.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import DomainError, ParameterError, TruncationError, check_k

_MAX_TERMS = 1_000_000


@dataclass(frozen=True)
class CoefficientStream:
    """Lazy stream n -> |a_n| >= 0, memoized.

    order_hint marks the largest index known to carry structure; consumers
    that stop early on runs of zero terms read at least this far.
    """

    producer: Callable[[int], float]
    order_hint: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "_memo", functools.lru_cache(maxsize=None)(self.producer))

    def at(self, n: int) -> float:
        if n < 0:
            raise ParameterError(f"coefficient index must be nonnegative, got {n}")
        value = float(self._memo(n))
        if not value >= 0.0:  # also rejects NaN
            raise ParameterError(f"stream produced an invalid modulus {value!r} at n={n}")
        return value

    @staticmethod
    def from_sequence(values: Sequence[float], order_hint: int | None = None) -> "CoefficientStream":
        """Finite coefficient list, zero beyond the end."""
        vals = [float(v) for v in values]
        hint = order_hint if order_hint is not None else max(len(vals) - 1, 0)
        return CoefficientStream(lambda n: vals[n] if n < len(vals) else 0.0, order_hint=hint)

    @staticmethod
    def constant(value: float) -> "CoefficientStream":
        return CoefficientStream(lambda n: value)

    @staticmethod
    def zero() -> "CoefficientStream":
        return CoefficientStream(lambda n: 0.0, order_hint=0)


@dataclass(frozen=True)
class HarmonicMap:
    """Streams of |a_n| (analytic part h) and |b_n| (co-analytic part g).

    k is the quasiconformal bound |g'| <= k |h'|; b_0 never enters any
    functional, so g.at(0) is ignored throughout.
    """

    h: CoefficientStream
    g: CoefficientStream
    k: float = 0.0

    def __post_init__(self):
        check_k(self.k)


def majorant(f: CoefficientStream, r: float, tol: float = 1e-12, max_terms: int = _MAX_TERMS) -> float:
    """Majorant series M_f(r) = sum_{n>=0} |a_n| r^n.

    Truncation is certified against the geometric bound
    sup|a_n| * r^{N+1} / (1-r), taking the supremum as max(1, moduli seen so
    far); every stream built by this library has all moduli <= max(1, early
    terms), and callers with wilder streams should scale first.
    """
    if not 0.0 <= r < 1.0:
        raise DomainError(f"majorant is defined for r in [0, 1), got r={r}")
    total = f.at(0)
    if r == 0.0:
        return total
    sup = 1.0
    rpow = 1.0
    geometric = r / (1.0 - r)
    for n in range(1, max_terms + 1):
        # remainder past n-1 is at most sup * r^n / (1-r)
        if sup * rpow * geometric <= tol:
            return total
        an = f.at(n)
        if an > sup:
            sup = an
        rpow *= r
        total += an * rpow
    raise TruncationError("majorant did not meet tolerance within the term cap", partial=total)


def hadamard(f: CoefficientStream, g: CoefficientStream) -> CoefficientStream:
    """Termwise (Hadamard) product stream n -> |a_n| * |b_n|."""
    hints = [h for h in (f.order_hint, g.order_hint) if h is not None]
    return CoefficientStream(lambda n: f.at(n) * g.at(n), order_hint=max(hints) if hints else None)


def taylor_mobius(num0: float, num1: float, den0: float, den1: float, order: int) -> list[float]:
    """Signed Taylor coefficients of (num0 + num1 z) / (den0 + den1 z) up to z^order.

    Uses the two-term recurrence c_n = -c_{n-1} den1/den0 (n >= 2), which is
    exact for a Moebius map and avoids generic power-series division.
    """
    if den0 == 0.0:
        raise ParameterError("Moebius expansion around 0 needs den0 != 0 (map is singular there)")
    if order < 0:
        raise ParameterError(f"order must be nonnegative, got {order}")
    coeffs = [num0 / den0]
    if order >= 1:
        coeffs.append((num1 - coeffs[0] * den1) / den0)
    ratio = -den1 / den0
    for _ in range(2, order + 1):
        coeffs.append(coeffs[-1] * ratio)
    return coeffs
