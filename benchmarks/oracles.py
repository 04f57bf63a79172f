"""Reference values computed apart from bohrad, with mpmath at 40 digits.

Nothing here imports bohrad.  Weight families are described by small tuples
(a "spec"), so the same description drives the program under test and its
oracle:

    ("power",)                  phi_n = r^n
    ("even",)                   phi_0 = 1, phi_2n = r^2n, odd weights 0
    ("odd",)                    phi_0 = 1, phi_(2n-1) = r^(2n-1), even weights 0
    ("shifted", s)              phi_0 = 1, phi_n = (n+1) r^n for n >= s
    ("power_alpha", alpha, s)   phi_0 = 1, phi_n = n^alpha r^n for n >= s
    ("hypergeom", a, b, c)      phi_n = |(a)_n (b)_n / ((c)_n n!)| r^n
    ("log",)                    phi_n = r^n / (n+1), the benchmark's user rule

Tails Phi_N(r) = sum_{n>=N} phi_n(r) come from generating functions (geometric
series, polylog, hyp2f1, log) minus a finite head, never from the recurrences
the program uses.  Hypergeometric specs must have positive coefficients.
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 40


class CheckFailed(Exception):
    """An output disagrees with its oracle; the message is the recorded reason."""


def phi(spec: tuple, n: int, r) -> mp.mpf:
    r = mp.mpf(r)
    kind = spec[0]
    if kind == "power":
        return r**n
    if kind == "even":
        return r**n if n % 2 == 0 else mp.mpf(0)
    if kind == "odd":
        if n == 0:
            return mp.mpf(1)
        return r**n if n % 2 == 1 else mp.mpf(0)
    if kind == "shifted":
        if n == 0:
            return mp.mpf(1)
        return (n + 1) * r**n if n >= spec[1] else mp.mpf(0)
    if kind == "power_alpha":
        if n == 0:
            return mp.mpf(1)
        return mp.power(n, spec[1]) * r**n if n >= spec[2] else mp.mpf(0)
    if kind == "hypergeom":
        a, b, c = spec[1:]
        coeff = mp.rf(a, n) * mp.rf(b, n) / (mp.rf(c, n) * mp.factorial(n))
        return abs(coeff) * r**n
    if kind == "log":
        return r**n / (n + 1)
    raise ValueError(f"unknown family spec {spec!r}")


def _generating_sum(spec: tuple, r) -> mp.mpf:
    """Phi_0(r), the whole weight series, in closed form."""
    r = mp.mpf(r)
    kind = spec[0]
    if kind == "power":
        return 1 / (1 - r)
    if kind == "even":
        return 1 / (1 - r * r)
    if kind == "odd":
        return 1 + r / (1 - r * r)
    if kind == "shifted":
        return 1 / (1 - r) ** 2 - sum((n + 1) * r**n for n in range(1, spec[1]))
    if kind == "power_alpha":
        alpha, start = spec[1], spec[2]
        return 1 + _polylog_neg(alpha, r) - sum(mp.power(n, alpha) * r**n for n in range(1, start))
    if kind == "hypergeom":
        return mp.hyp2f1(spec[1], spec[2], spec[3], r)
    if kind == "log":
        return -mp.log1p(-r) / r if r != 0 else mp.mpf(1)
    raise ValueError(f"unknown family spec {spec!r}")


def _polylog_neg(alpha, x) -> mp.mpf:
    """Li_{-alpha}(x) = sum_{n>=1} n^alpha x^n (closed form for integer alpha)."""
    x = mp.mpf(x)
    if alpha == 1:
        return x / (1 - x) ** 2
    if alpha == 2:
        return x * (1 + x) / (1 - x) ** 3
    return mp.polylog(-mp.mpf(alpha), x)


def tail(spec: tuple, N: int, r) -> mp.mpf:
    """Phi_N(r): the generating sum minus the head phi_0 .. phi_(N-1)."""
    return _generating_sum(spec, r) - sum(phi(spec, n, r) for n in range(N))


# --- radii ---------------------------------------------------------------


def catalog(case: str, p=None, gamma=None, k=None, K=None, y=None) -> mp.mpf:
    """The paper's closed forms, typed in again from its catalog table."""
    g = mp.mpf(gamma) if gamma is not None else None
    P = mp.mpf(p) * (1 + g) if p is not None else None
    if case == "classical":
        return (1 + g) / (3 + g)
    if case == "power":
        return P / (2 + P)
    if case == "even":
        return mp.sqrt(P / (2 + P))
    if case == "odd":
        return (mp.sqrt(1 + P * P) - 1) / P
    if case == "linear_shift":
        return 1 - mp.sqrt(2 / (P + 2))
    if case == "weighted_n":
        return (P + 1 - mp.sqrt(2 * P + 1)) / P
    if case == "harmonic_p1":
        return (1 + g) / (3 + 2 * mp.mpf(k) + g)
    if case == "harmonic_p2":
        return (1 + g) / (2 + mp.mpf(k) + g)
    if case == "binomial":
        return 1 - (2 / (2 + P)) ** (1 / mp.mpf(y))
    if case == "subordination":
        K = mp.mpf(K)
        return (K + 1) / (5 * K + 1)
    raise ValueError(f"unknown catalog case {case!r}")


def equation_scales(kind: str, p: float, gamma: float, k: float) -> tuple[mp.mpf, mp.mpf]:
    """(lhs, rhs) of lhs * Phi_1(r) = rhs * phi_0(r) for each radius kind."""
    if kind == "analytic":
        return 2 / mp.mpf(p), 1 + mp.mpf(gamma)
    if kind == "harmonic":
        return 2 * (1 + mp.mpf(k)), mp.mpf(p) * (1 + mp.mpf(gamma))
    if kind == "subordination":
        return 2 * (1 + mp.mpf(k)), mp.mpf(1)
    raise ValueError(f"unknown radius kind {kind!r}")


RADIUS_TOL = 3e-12
RADIUS_SAMPLES = 8


def check_root(spec: tuple, lhs, rhs, value: float) -> float:
    """Check value as the smallest positive root of lhs*Phi_1 - rhs*phi_0.

    The gap must be negative at value - RADIUS_TOL and at evenly spaced points
    below it, and positive at value + RADIUS_TOL.  Returns |value - root|, the
    root interpolated inside that bracket.
    """

    def gap(r):
        return lhs * tail(spec, 1, r) - rhs * phi(spec, 0, r)

    v = mp.mpf(value)
    lo, hi = v - RADIUS_TOL, v + RADIUS_TOL
    if not (0 < lo and hi < 1):
        raise CheckFailed(f"radius {value!r} outside (0, 1)")
    glo, ghi = gap(lo), gap(hi)
    if not glo < 0 < ghi:
        raise CheckFailed(f"gap does not change sign across {value!r} +- {RADIUS_TOL}")
    for j in range(1, RADIUS_SAMPLES):
        if not gap(lo * j / RADIUS_SAMPLES) < 0:
            raise CheckFailed(f"gap is not negative below {value!r}: a smaller root exists")
    root = lo - glo * (hi - lo) / (ghi - glo)
    return float(abs(v - root))


def printed_tolerance(reference) -> float:
    """One unit in the 12th significant digit of reference, plus the solver tol."""
    exponent = int(mp.floor(mp.log10(abs(reference))))
    return 10.0 ** (exponent - 11) + 1e-12


# --- functionals ---------------------------------------------------------


def mobius_moduli(a: float, gamma: float) -> tuple[mp.mpf, mp.mpf, mp.mpf]:
    """(|a_0|, lead, q) of the extremal h_a: |a_n| = lead * q^n for n >= 1."""
    a, g = mp.mpf(a), mp.mpf(gamma)
    head = abs(a - g) / (1 - a * g)
    lead = (1 - a * a) / (a * (1 - a * g))
    q = a * (1 - g) / (1 - a * g)
    return head, lead, q


def weighted_geometric(spec: tuple, lead, q, r) -> mp.mpf:
    """sum_{n>=1} lead q^n phi_n(r) for a spec whose weights start at n = 1."""
    x = mp.mpf(q) * mp.mpf(r)
    kind = spec[0]
    if kind == "power":
        s = x / (1 - x)
    elif kind == "shifted" and spec[1] == 1:
        s = 1 / (1 - x) ** 2 - 1
    elif kind == "power_alpha" and spec[2] == 1:
        s = _polylog_neg(spec[1], x)
    elif kind == "hypergeom":
        s = mp.hyp2f1(spec[1], spec[2], spec[3], x) - 1
    else:
        raise ValueError(f"no generating function for {spec!r}")
    return lead * s


def refinement_term(spec: tuple, head, lead, q, r) -> mp.mpf:
    """A(f, r) = sum_{n>=1} |a_n|^(2n) (phi_2n(r)/(1+|a_0|) + Phi_(2n+1)(r))."""
    r = mp.mpf(r)
    whole = _generating_sum(spec, r)
    heads = [phi(spec, 0, r)]

    def term(n):
        n = int(n)
        while len(heads) <= 2 * n:
            heads.append(heads[-1] + phi(spec, len(heads), r))
        rest = whole - heads[2 * n]
        return (lead * q**n) ** (2 * n) * (phi(spec, 2 * n, r) / (1 + head) + rest)

    return mp.nsum(term, [1, mp.inf])


def refined_value(spec, a, gamma, p, lam, r) -> mp.mpf:
    head, lead, q = mobius_moduli(a, gamma)
    value = phi(spec, 0, r) * head ** mp.mpf(p) + weighted_geometric(spec, lead, q, r)
    if lam:
        value += refinement_term(spec, head, lead, q, r)
    return value


def harmonic_value(spec, a, gamma, k, p, r) -> mp.mpf:
    head, lead, q = mobius_moduli(a, gamma)
    return phi(spec, 0, r) * head ** mp.mpf(p) + (1 + mp.mpf(k)) * weighted_geometric(spec, lead, q, r)


def q_value(spec, k, r) -> mp.mpf:
    """Tail functional of the subordination extremal: all |a_n| = 1, |b_n| = k."""
    return (1 + mp.mpf(k)) * tail(spec, 1, r)


FUNCTIONAL_RTOL = 1e-11


def check_value(value: float, exact) -> float:
    """Error of value against exact, relative to max(1, |exact|); fails above FUNCTIONAL_RTOL."""
    err = float(abs(mp.mpf(value) - exact) / max(mp.mpf(1), abs(exact)))
    if not err <= FUNCTIONAL_RTOL:
        raise CheckFailed(f"value {value!r} is {err:.3g} (scaled) from {mp.nstr(exact, 17)}")
    return err
