"""Weighted sums and refinement terms: accuracy, term caps and cost.

The sums read the weights in doubling blocks with one tail call per block
and suffix sums inside it.  The problems of the radii layer evaluate the
extremals from their geometric moduli instead, on every weight family, and
build no coefficient stream; the summed functionals stay the reference they
are checked against.  The oracle here sums the same series in mpmath at 50
digits, far past where the library stops, from weights computed in mpmath;
the cost guards count calls rather than timing anything.
"""

from __future__ import annotations

import functools
import math

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bohrad import (
    CoefficientStream,
    DomainError,
    ExtremalParams,
    ParameterError,
    TruncationError,
    UnsupportedInputError,
    WeightFamily,
    analytic_problem,
    analytic_radius,
    empirical_bohr_radius,
    harmonic_extremal,
    harmonic_functional,
    harmonic_problem,
    harmonic_radius,
    lambda_one,
    lambda_zero,
    majorant,
    mobius_extremal,
    q_functional,
    refined_functional,
    subordination_extremal,
    subordination_problem,
    subordination_radius,
)
from bohrad.functionals import _extremal_a_term, _weighted_tail

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
        "shifted_linear(2)",
        WeightFamily.shifted_linear(2),
        lambda M: [mp.mpf(1)] + [mp.mpf(n + 1 if n >= 2 else 0) for n in range(1, M + 1)],
    ),
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
    # the weighted sum once stopped on its tail alone, not counting the error
    # the tail itself was summed to: 1.02e-12 off here
    @example(index=7, r=0.90625, a=0.5, gamma=0.0, p=1.0, k=0.0)
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


_BUILT_IN = [i for i, (_, family, _) in enumerate(_FAMILIES) if family._power_series]
_CUSTOM = WeightFamily.custom(_custom_rule, r_max=1.0)


def _problems(family, p, gamma, k):
    return {
        "analytic, Lambda = 0": analytic_problem(family, p, gamma, lambda_zero),
        "analytic, Lambda = 1": analytic_problem(family, p, gamma, lambda_one),
        "harmonic": harmonic_problem(family, p, gamma, k),
        "subordination": subordination_problem(family, k),
    }


class TestClosedFormProblems:
    def test_every_built_in_family_takes_the_closed_route(self):
        assert [_FAMILIES[i][0] for i in _BUILT_IN] == [label for label, _, _ in _FAMILIES[:-1]]
        assert not _CUSTOM._power_series
        assert not WeightFamily("raw", _custom_rule)._power_series

    @settings(max_examples=60, deadline=None)
    @given(
        index=st.integers(min_value=0, max_value=len(_FAMILIES) - 1),
        r=st.floats(min_value=0.0, max_value=0.98),
        a=st.floats(min_value=0.05, max_value=0.99999),
        gamma=st.floats(min_value=0.0, max_value=0.9),
        p=st.floats(min_value=0.1, max_value=2.0),
        k=st.floats(min_value=0.0, max_value=1.0),
    )
    # Phi_{2N+1}(0.98) > 1 here, so the refinement term reads a second block
    @example(index=6, r=0.98, a=0.9, gamma=0.3, p=1.0, k=0.5)
    # the custom rule sums sum_{n>=1} q^n phi_n(r) term by term
    @example(index=len(_FAMILIES) - 1, r=0.98, a=0.999, gamma=0.3, p=1.0, k=0.5)
    def test_problems_match_50_digit_sums(self, index, r, a, gamma, p, k):
        label, family, _ = _FAMILIES[index]
        with mp.workdps(_DPS):
            weights, tails = _oracle_weights_and_tails(index, r)
            moduli = _mobius_moduli(a, gamma)
            body = mp.fsum(moduli[n] * weights[n] for n in range(1, len(weights)))
            head = weights[0] * moduli[0] ** mp.mpf(p)
            want = {
                "analytic, Lambda = 0": head + body,
                "analytic, Lambda = 1": head + body + _oracle_a_term(moduli, weights, tails),
                "harmonic": head + (1 + mp.mpf(k)) * body,
                "subordination": (1 + mp.mpf(k)) * tails[1],
            }
        for name, problem in _problems(family, p, gamma, k).items():
            value = problem.evaluate(a, r)
            assert _close(value, want[name]), (label, name, value, float(want[name]))

    @pytest.mark.parametrize("r", [0.0, 0.3, 0.9])
    @pytest.mark.parametrize("a", [0.2, 0.9, 0.999])
    def test_custom_rule_matches_the_summed_functionals(self, a, r):
        # the summed functionals stay the reference implementation
        p, gamma, k = 1.5, 0.3, 0.4
        f = mobius_extremal(ExtremalParams(a, gamma))
        summed = {
            "analytic, Lambda = 0": refined_functional(f, _CUSTOM, p, gamma, lambda_zero, r),
            "analytic, Lambda = 1": refined_functional(f, _CUSTOM, p, gamma, lambda_one, r),
            "harmonic": harmonic_functional(harmonic_extremal(ExtremalParams(a, gamma, k=k)), _CUSTOM, p, r),
            "subordination": q_functional(subordination_extremal(k).fmap, _CUSTOM, r),
        }
        for name, problem in _problems(_CUSTOM, p, gamma, k).items():
            value = problem.evaluate(a, r)
            assert _close(value, summed[name]), (name, value, summed[name])

    @pytest.mark.parametrize("family", [WeightFamily.power_alpha(1), _CUSTOM], ids=["power_alpha(1)", "custom"])
    @pytest.mark.parametrize("kind", ["analytic", "harmonic", "subordination"])
    def test_empirical_radius_builds_no_stream(self, monkeypatch, family, kind):
        # counted from before the problem is built, which is where the
        # subordination problem used to build its extremal's two streams
        built = []
        init = CoefficientStream.__post_init__
        monkeypatch.setattr(CoefficientStream, "__post_init__", lambda self: built.append(1) or init(self))
        p, gamma, k = 1.5, 0.3, 0.5
        if kind == "analytic":
            problem = analytic_problem(family, p, gamma, lambda_one)
            radius = analytic_radius(family, p, gamma).value
        elif kind == "harmonic":
            problem = harmonic_problem(family, p, gamma, k)
            radius = harmonic_radius(family, p, gamma, k).value
        else:
            problem = subordination_problem(family, k)
            radius = subordination_radius(family, k).value
        value = empirical_bohr_radius(problem)
        assert radius - 1e-9 <= value <= radius + 0.01
        assert built == []

    @pytest.mark.parametrize("family", [WeightFamily.hypergeometric(0.5, 1.5, 2.5), _CUSTOM], ids=["built-in", "custom"])
    def test_error_paths_unchanged(self, family):
        problems = _problems(family, 1.0, 0.2, 0.5)
        for name, problem in problems.items():
            with pytest.raises(DomainError):
                problem.evaluate(0.9, 1.0)
            if name != "subordination":  # its extremal takes no a
                with pytest.raises(ParameterError):
                    problem.evaluate(1.0, 0.5)
        for lam in (-0.5, 1.5):
            with pytest.raises(ParameterError):
                analytic_problem(family, 1.0, 0.2, lambda r, lam=lam: lam).evaluate(0.9, 0.5)

    def test_refinement_term_rejects_moduli_above_one(self):
        # no h_a has |a_1| = lead * q > 1; a stand-in with lead = 3, q = 1/2 does
        params = type("Moduli", (), {"head": 0.5, "lead": 3.0, "q": 0.5})()
        with pytest.raises(UnsupportedInputError):
            _extremal_a_term(params, WeightFamily.power(), 0.5, 1e-12)


_GAUSS_FAMILIES = [i for i, (label, _, _) in enumerate(_FAMILIES) if label.startswith("hypergeom")]


class TestGaussTailSweep:
    @pytest.mark.parametrize("index", _GAUSS_FAMILIES, ids=lambda i: _FAMILIES[i][0])
    def test_subordination_sum_within_contract_near_r_09(self, index):
        # q of the subordination extremal at k = 0 is Phi_1(r) = |2F1 - 1|
        label, family, _ = _FAMILIES[index]
        a, b, c = (family.params[key] for key in "abc")
        fmap = subordination_extremal(0.0).fmap
        for j in range(16):
            r = 0.9 + j / 320
            with mp.workdps(_DPS):
                want = abs(mp.hyp2f1(a, b, c, mp.mpf(r)) - 1)
            got = q_functional(fmap, family, r)
            assert _close(got, want), (label, r, got, float(want))


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
