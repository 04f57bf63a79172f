"""Weighted sums and refinement terms: accuracy, term caps and cost.

The sums read the weights in doubling blocks with one tail call per block
and suffix sums inside it.  The oracle here sums the same series in mpmath
at 50 digits, far past where the library stops, from weights computed in
mpmath; the cost guard counts tail calls rather than timing anything.
"""

from __future__ import annotations

import functools
import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrad import (
    ExtremalParams,
    TruncationError,
    WeightFamily,
    harmonic_extremal,
    harmonic_functional,
    lambda_one,
    lambda_zero,
    majorant,
    mobius_extremal,
    q_functional,
    refined_functional,
    subordination_extremal,
)
from bohrad.functionals import _weighted_tail

_DPS = 50
_ORACLE_TERMS = 4600  # r^4600 * 4600^2 < 1e-30 at r = 0.98


def _custom_rule(n, r):
    return r**n / math.sqrt(n + 1.0)


def _gauss_moduli(a, b, c):
    def coeffs(M):
        out = [mp.mpf(1)]
        for n in range(M):
            out.append(out[-1] * (n + a) * (n + b) / ((n + c) * (n + 1)))
        return [abs(x) for x in out]

    return coeffs


# (label, family, coefficients c_0..c_M in mpmath with phi_n(r) = c_n r^n)
_FAMILIES = [
    ("power", WeightFamily.power(), lambda M: [mp.mpf(1)] * (M + 1)),
    ("even", WeightFamily.even(), lambda M: [mp.mpf(1 - n % 2) for n in range(M + 1)]),
    ("odd", WeightFamily.odd_with_unit_head(), lambda M: [mp.mpf(1 if n == 0 else n % 2) for n in range(M + 1)]),
    (
        "shifted_linear(3)",
        WeightFamily.shifted_linear(3),
        lambda M: [mp.mpf(1)] + [mp.mpf(n + 1 if n >= 3 else 0) for n in range(1, M + 1)],
    ),
    (
        "power_alpha(0.5)",
        WeightFamily.power_alpha(0.5),
        lambda M: [mp.mpf(1)] + [mp.mpf(n) ** mp.mpf(0.5) for n in range(1, M + 1)],
    ),
    (
        "power_alpha(2, 2)",
        WeightFamily.power_alpha(2.0, 2),
        lambda M: [mp.mpf(1)] + [mp.mpf(n * n if n >= 2 else 0) for n in range(1, M + 1)],
    ),
    ("hypergeom(0.5, 1.5, 2.5)", WeightFamily.hypergeometric(0.5, 1.5, 2.5), _gauss_moduli(0.5, 1.5, 2.5)),
    ("hypergeom(1.5, 1.5, 1)", WeightFamily.hypergeometric(1.5, 1.5, 1.0), _gauss_moduli(1.5, 1.5, 1.0)),
    ("hypergeom(-0.5, 1, 1)", WeightFamily.hypergeometric(-0.5, 1.0, 1.0), _gauss_moduli(-0.5, 1.0, 1.0)),
    (
        "custom r^n/sqrt(n+1)",
        WeightFamily.custom(_custom_rule, r_max=1.0),
        lambda M: [1 / mp.sqrt(n + 1) for n in range(M + 1)],
    ),
]


@functools.cache
def _coefficients(index: int) -> list:
    with mp.workdps(_DPS):
        return _FAMILIES[index][2](_ORACLE_TERMS)


def _oracle_weights_and_tails(index: int, r: float) -> tuple[list, list]:
    """phi_n(r) and Phi_n(r) = sum_{m >= n} phi_m(r) for n <= _ORACLE_TERMS."""
    x = mp.mpf(r)
    weights, power = [], mp.mpf(1)
    for c in _coefficients(index):
        weights.append(c * power)
        power *= x
    tails = [mp.mpf(0)] * (len(weights) + 1)
    for n in range(len(weights) - 1, -1, -1):
        tails[n] = tails[n + 1] + weights[n]
    return weights, tails


def _mobius_moduli(a, gamma):
    a, gamma = mp.mpf(a), mp.mpf(gamma)
    head = abs(a - gamma) / (1 - a * gamma)
    lead = (1 - a * a) / (a * (1 - a * gamma))
    q = a * (1 - gamma) / (1 - a * gamma)
    moduli, power = [head], mp.mpf(1)
    for _ in range(_ORACLE_TERMS):
        power *= q
        moduli.append(lead * power)
    return moduli


def _oracle_a_term(moduli, weights, tails):
    total = mp.mpf(0)
    for n in range(1, _ORACLE_TERMS // 2):
        power = moduli[n] ** (2 * n)
        if power < mp.mpf(10) ** -60:
            break
        total += power * (weights[2 * n] / (1 + moduli[0]) + tails[2 * n + 1])
    return total


def _close(got: float, want) -> bool:
    # the stop rules are absolute (tol = 1e-12), so below 1 the error is absolute
    return abs(mp.mpf(got) - want) <= mp.mpf(1e-12) * max(1, abs(want))


class TestAccuracyAgainstMpmath:
    @settings(max_examples=40, deadline=None)
    @given(
        index=st.integers(min_value=0, max_value=len(_FAMILIES) - 1),
        r=st.floats(min_value=0.0, max_value=0.98),
        a=st.floats(min_value=0.05, max_value=0.999),
        gamma=st.floats(min_value=0.0, max_value=0.9),
        p=st.floats(min_value=0.1, max_value=2.0),
        k=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_functionals_match_50_digit_sums(self, index, r, a, gamma, p, k):
        label, family, _ = _FAMILIES[index]
        with mp.workdps(_DPS):
            weights, tails = _oracle_weights_and_tails(index, r)
            moduli = _mobius_moduli(a, gamma)
            body = mp.fsum(moduli[n] * weights[n] for n in range(1, len(weights)))
            head = weights[0] * moduli[0] ** mp.mpf(p)
            refined0 = head + body
            refined1 = refined0 + _oracle_a_term(moduli, weights, tails)
            # harmonic extremal: |b_n| = k |a_n|, so sup(|a_n| + |b_n|) > 1 for small a
            harmonic = head + (1 + mp.mpf(k)) * body
            q_harmonic = (1 + mp.mpf(k)) * body
            # subordination extremal: |a_n| + |b_n| = 1 + k for every n >= 1
            q_subordination = (1 + mp.mpf(k)) * tails[1]

        f = mobius_extremal(ExtremalParams(a, gamma))
        fmap = harmonic_extremal(ExtremalParams(a, gamma, k=k))
        witness = subordination_extremal(k)
        got = {
            "refined, Lambda = 0": (refined_functional(f, family, p, gamma, lambda_zero, r), refined0),
            "refined, Lambda = 1": (refined_functional(f, family, p, gamma, lambda_one, r), refined1),
            "harmonic": (harmonic_functional(fmap, family, p, r), harmonic),
            "q, harmonic extremal": (q_functional(fmap, family, r), q_harmonic),
            "q, subordination extremal": (q_functional(witness.fmap, family, r), q_subordination),
        }
        for name, (value, want) in got.items():
            assert _close(value, want), (label, name, value, float(want))


class TestTermCaps:
    def test_majorant_cap_still_raises(self):
        stream = mobius_extremal(ExtremalParams(0.9999))
        with pytest.raises(TruncationError) as info:
            majorant(stream, 0.9999, max_terms=500)
        want = sum(stream.at(n) * 0.9999**n for n in range(1, 500))
        assert info.value.partial == pytest.approx(want, rel=1e-13)

    def test_no_weight_read_at_or_past_the_cap(self):
        seen = []

        def rule(n, r):
            seen.append(n)
            return r**n

        # a closed tail, so the rule is only ever read as a weight
        family = WeightFamily.custom(rule, r_max=1.0, tail=lambda N, r: r**N / (1.0 - r))
        with pytest.raises(TruncationError):
            _weighted_tail(lambda n: 1.0, family, 0.9999, 1e-12, max_terms=500)
        assert seen == list(range(1, 500))


class TestTailCallCount:
    def test_refined_functional_makes_logarithmically_many_tail_calls(self):
        family = WeightFamily.power_alpha(2.0)
        calls = []
        strategy = family._tail

        def counting(N, r, tol):
            calls.append(N)
            return strategy(N, r, tol)

        family._tail = counting
        f = mobius_extremal(ExtremalParams(0.9, 0.3))
        refined_functional(f, family, 1.0, 0.3, lambda_one, 0.98)
        # about 2,300 weights for the sum (7 blocks) and a few for the
        # refinement term (1 block); one tail call per term makes thousands
        assert len(calls) <= 16
