"""Weight families phi = {phi_n(r)} for generalized majorant sums.

A weight family is a sequence of nonnegative functions phi_n : [0, 1) -> R
whose series converges on [0, r_max).  The classical majorant uses
phi_n(r) = r^n; the other built-ins thin or reweight the powers:

    power              phi_n = r^n
    even               phi_0 = 1, phi_{2n} = r^{2n}, odd weights 0
    odd_with_unit_head phi_0 = 1, phi_{2n-1} = r^{2n-1}, positive even weights 0
    shifted_linear(N)  phi_0 = 1, phi_n = (n+1) r^n for n >= N, 0 between
    power_alpha(a, N)  phi_0 = 1, phi_n = n^a r^n for n >= N, 0 between
    hypergeometric     phi_n = |gamma_n| r^n with gamma_n the Gauss series
                       coefficients (a)_n (b)_n / ((c)_n n!)

Each family carries one tail strategy (N, r, tol) -> (Phi_N(r), terms summed,
remainder bound), with Phi_N(r) = sum_{n >= N} phi_n(r): the closed form
wherever one exists (no terms, no remainder), the Gauss series for
hypergeometric weights, and certified summation of the rule for custom rules
without a closed form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

from .errors import (
    DivergenceError,
    DomainError,
    HypothesisError,
    ParameterError,
    TruncationError,
)
from .specfun import HypergeomParams, lerch_phi

_MAX_TERMS = 1_000_000


@dataclass(frozen=True)
class TailSum:
    """Value of a tail sum plus how it was obtained.

    truncation_order is the number of series terms actually summed (0 when a
    closed form was used); bound_on_remainder bounds what was left out.
    """

    value: float
    truncation_order: int
    bound_on_remainder: float


class WeightFamily:
    """A named weight sequence with optional closed-form tails.

    Use the classmethod constructors; the raw __init__ is the escape hatch
    for custom rules (mirrored by :meth:`custom`).
    """

    # True when phi_n(r) = c_n r^n for fixed c_n >= 0, so that
    # sum_n c_n (q r)^n = Phi(q r) for any q in [0, 1]; only the built-in
    # constructors promise it, never a custom rule
    _power_series = False

    def __init__(
        self,
        name: str,
        rule: Callable[[int, float], float],
        *,
        r_max: float = 1.0,
        tail: Callable[[int, float], float] | None = None,
        params: dict | None = None,
    ):
        if not 0.0 < r_max <= 1.0:
            raise ParameterError(f"r_max must lie in (0, 1], got {r_max}")
        self.name = name
        self.r_max = float(r_max)
        self.params = dict(params or {})
        self._rule = rule
        # the tail strategy (N, r, tol) -> (Phi_N(r), terms summed, remainder
        # bound): the closed form when there is one, certified summation of the
        # rule otherwise
        self._tail = (lambda N, r, tol: (tail(N, r), 0, 0.0)) if tail is not None else self._series_tail

    def __repr__(self):  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"WeightFamily({self.name}{', ' if inner else ''}{inner})"

    # --- constructors -------------------------------------------------

    @classmethod
    def _built_in(cls, name: str, rule: Callable[[int, float], float], **kwargs) -> "WeightFamily":
        family = cls(name, rule, **kwargs)
        family._power_series = True
        return family

    @classmethod
    def power(cls) -> "WeightFamily":
        """phi_n(r) = r^n, the classical majorant weights."""
        return cls._built_in(
            "power",
            lambda n, r: r**n,
            tail=lambda N, r: r**N / (1.0 - r),
        )

    @classmethod
    def even(cls) -> "WeightFamily":
        """phi_0 = 1 and phi_{2n} = r^{2n}; all odd weights vanish."""

        def rule(n, r):
            return r**n if n % 2 == 0 else 0.0

        def tail(N, r):
            M = N if N % 2 == 0 else N + 1
            return r**M / (1.0 - r * r)

        return cls._built_in("even", rule, tail=tail)

    @classmethod
    def odd_with_unit_head(cls) -> "WeightFamily":
        """phi_0 = 1 and phi_{2n-1} = r^{2n-1}; positive even weights vanish."""

        def rule(n, r):
            if n == 0:
                return 1.0
            return r**n if n % 2 == 1 else 0.0

        def tail(N, r):
            if N == 0:
                return 1.0 + r / (1.0 - r * r)
            M = N if N % 2 == 1 else N + 1
            return r**M / (1.0 - r * r)

        return cls._built_in("odd_with_unit_head", rule, tail=tail)

    @classmethod
    def shifted_linear(cls, start: int = 1) -> "WeightFamily":
        """phi_0 = 1 and phi_n = (n+1) r^n for n >= start, zero in between."""
        if start < 1 or not float(start).is_integer():
            raise ParameterError(f"shifted_linear start must be an integer >= 1, got {start}")
        start = int(start)

        def rule(n, r):
            if n == 0:
                return 1.0
            return (n + 1.0) * r**n if n >= start else 0.0

        def tail(N, r):
            M = max(N, start)
            # sum_{n>=M} (n+1) r^n = r^M (M + 1 - M r) / (1-r)^2
            core = r**M * (M + 1.0 - M * r) / (1.0 - r) ** 2
            return core + 1.0 if N == 0 else core

        return cls._built_in("shifted_linear", rule, tail=tail, params={"start": start})

    @classmethod
    def power_alpha(cls, alpha: float, start: int = 1) -> "WeightFamily":
        """phi_0 = 1 and phi_n = n^alpha r^n for n >= start, zero in between."""
        if start < 1 or not float(start).is_integer():
            raise ParameterError(f"power_alpha start must be an integer >= 1, got {start}")
        start = int(start)
        alpha = float(alpha)

        def rule(n, r):
            if n == 0:
                return 1.0
            return n**alpha * r**n if n >= start else 0.0

        def tail(N, r):
            M = max(N, start)
            # sum_{n>=M} n^alpha r^n = r^M * Phi(r, -alpha, M)  (Lerch form)
            core = 0.0 if r == 0.0 else r**M * lerch_phi(r, -alpha, float(M))
            return core + 1.0 if N == 0 else core

        return cls._built_in("power_alpha", rule, tail=tail, params={"alpha": alpha, "start": start})

    @classmethod
    def hypergeometric(cls, a: float, b: float, c: float) -> "WeightFamily":
        """phi_n(r) = |gamma_n| r^n with gamma_n = (a)_n (b)_n / ((c)_n n!).

        The tail from N = 1 equals |2F1(a,b;c;r) - 1| provided the gamma_n
        (n >= 1) share one sign; the constructor checks this exactly and
        raises HypothesisError on a mix.
        """
        params = HypergeomParams(a, b, c)
        coeffs = [1.0]  # signed gamma_n, grown on demand
        ratios = []  # gamma_{n+1}/gamma_n, grown with coeffs

        def coeff(n: int) -> float:
            while len(coeffs) <= n:
                ratios.append(params.term_ratio(len(ratios)))
                coeffs.append(coeffs[-1] * ratios[-1])
            return coeffs[n]

        # gamma_{n+1}/gamma_n changes sign only where n passes -a, -b or -c, so
        # its sign at n = 1 (read off gamma_2, which the tail needs anyway) and
        # just past each of those points decides the sign of every gamma_n
        g1 = coeff(1)
        sign = (g1 > 0.0) - (g1 < 0.0)
        if sign:
            turns = sorted({math.floor(-x) + 1 for x in (a, b, c) if -x >= 1.0})
            for ratio in itertools.chain([coeff(2) * sign], (params.term_ratio(n) for n in turns)):
                if ratio == 0.0:
                    break
                if ratio < 0.0:
                    raise HypothesisError(
                        f"hypergeometric coefficients mix signs (a={a}, b={b}, c={c}); "
                        "the tail sum would not equal |F - 1|"
                    )

        def rule(n, r):
            return abs(coeff(n)) * r**n

        def tail(N, r, tol):
            if r == 0.0:
                return (abs(coeff(N)) if N == 0 else 0.0), 0, 0.0
            total = 0.0
            rpow = r**N
            small = 0
            n = N
            while n - N < _MAX_TERMS:
                t = abs(coeff(n)) * rpow
                total += t
                # coefficient ratios tend to 1, so terms eventually decay like r^n
                coeff(n + 1)  # grows ratios past n
                q = abs(ratios[n]) * r
                q = min(max(q, r), 1.0 - 1e-12)
                bound = t * q / (1.0 - q)
                if bound < 0.5 * tol:
                    small += 1
                    if small >= 2:
                        return total, n - N + 1, bound
                else:
                    small = 0
                rpow *= r
                n += 1
            raise TruncationError("hypergeometric tail did not converge", partial=total)

        fam = cls._built_in("hypergeometric", rule, params={"a": a, "b": b, "c": c})
        fam._tail = tail
        fam.coefficient_sign = sign
        return fam

    @classmethod
    def custom(
        cls,
        rule: Callable[[int, float], float],
        r_max: float,
        name: str = "custom",
        tail: Callable[[int, float], float] | None = None,
    ) -> "WeightFamily":
        """Wrap a user rule phi(n, r).  r_max declares where the series converges."""
        return cls(name, rule, r_max=r_max, tail=tail)

    # --- evaluation ---------------------------------------------------

    def _check_converges(self, r):
        if r >= self.r_max:
            raise DivergenceError(
                f"r={r} is at or beyond the declared convergence radius {self.r_max}"
            )

    def _series_tail(self, N, r, tol):
        """Phi_N(r) of a custom rule summed term by term: (value, terms, bound).

        Each term t_n = phi_n(r) gets the bound 4 t_n qhat / (1 - qhat) on what
        follows it.  qhat is the ratio of the last two positive terms read,
        kept within [r / r_max, 1 - 1e-12], and r / r_max until two have been
        read.  The sum stops after three consecutive terms that are zero or
        whose bound is below tol, at index i >= 8 past N, and returns that
        last bound.  The bound is an estimate from observed ratios, not a
        proof: mass hidden past the stop, such as a rule that is zero except
        at every 50th index, is missed (ROADMAP item 6).
        """
        self._check_converges(r)
        rule = self._rule
        q_floor = r / self.r_max if self.r_max < 1.0 else r
        q_cap = 1.0 - 1e-12
        total = 0.0
        prev = 0.0
        qhat = q_floor
        small = 0
        for i in range(_MAX_TERMS):
            t = rule(N + i, r)
            if t < 0.0:
                raise ParameterError(f"weight rule returned a negative value at n={N + i}")
            total += t
            if t > 0.0:
                if prev > 0.0:
                    # qhat = max(q_floor, min(t / prev, q_cap)) without the
                    # builtin calls: min(x, c) keeps x unless c < x, and
                    # max(f, y) keeps f unless y > f, so these comparisons
                    # return the same float, ties and NaN included
                    q = t / prev
                    if q_cap < q:
                        q = q_cap
                    qhat = q if q > q_floor else q_floor
                prev = t
            bound = 4.0 * t * qhat / (1.0 - qhat)
            if t == 0.0 or bound < tol:
                small += 1
                if small >= 3 and i >= 8:
                    return total, i + 1, bound
            else:
                small = 0
        raise TruncationError("weight tail did not converge within the term cap", partial=total)


def weight_at(family: WeightFamily, n: int, r: float) -> float:
    """Evaluate phi_n(r).  Weights are defined for r in [0, 1)."""
    if n < 0 or not float(n).is_integer():
        raise ParameterError(f"weight index must be a nonnegative integer, got {n!r}")
    if not 0.0 <= r < 1.0:
        raise DomainError(f"weights are defined for r in [0, 1), got r={r}")
    value = family._rule(int(n), r)
    if value < 0.0:
        raise ParameterError(f"weight rule returned a negative value at n={n}")
    return float(value)


def _checked_tail(family: WeightFamily, N: int, r: float, tol: float) -> tuple[float, int, float]:
    if N < 0 or not float(N).is_integer():
        raise ParameterError(f"tail start must be a nonnegative integer, got {N!r}")
    if not 0.0 <= r < 1.0:
        raise DomainError(f"tail sums are defined for r in [0, 1), got r={r}")
    family._check_converges(r)
    return family._tail(int(N), r, tol)


def tail_value(family: WeightFamily, N: int, r: float, tol: float = 1e-12) -> float:
    """Tail sum Phi_N(r) as a bare float (hot path; see tail_sum for metadata)."""
    return float(_checked_tail(family, N, r, tol)[0])


def tail_sum(family: WeightFamily, N: int, r: float, tol: float = 1e-12) -> TailSum:
    """Tail sum Phi_N(r) = sum_{n>=N} phi_n(r) with truncation metadata."""
    value, terms, bound = _checked_tail(family, N, r, tol)
    return TailSum(value=float(value), truncation_order=terms, bound_on_remainder=bound)
