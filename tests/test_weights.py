"""Weight families and tail sums."""

from __future__ import annotations

import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrad import (
    DivergenceError,
    DomainError,
    HypothesisError,
    ParameterError,
    WeightFamily,
    tail_sum,
    tail_value,
    weight_at,
)
from conftest import brute_tail

POWER = WeightFamily.power()
EVEN = WeightFamily.even()
ODD = WeightFamily.odd_with_unit_head()
SHIFTED2 = WeightFamily.shifted_linear(2)
ALPHA2 = WeightFamily.power_alpha(2.0, 1)


class TestRules:
    def test_power_is_plain_powers(self):
        for n in range(6):
            assert weight_at(POWER, n, 0.3) == pytest.approx(0.3**n, rel=1e-15)

    def test_even_vanishes_at_odd_indices(self):
        r = 0.41
        assert weight_at(EVEN, 0, r) == 1.0
        assert weight_at(EVEN, 1, r) == 0.0
        assert weight_at(EVEN, 2, r) == pytest.approx(r**2)
        assert weight_at(EVEN, 7, r) == 0.0

    def test_odd_keeps_unit_head(self):
        r = 0.41
        assert weight_at(ODD, 0, r) == 1.0
        assert weight_at(ODD, 1, r) == pytest.approx(r)
        assert weight_at(ODD, 2, r) == 0.0
        assert weight_at(ODD, 5, r) == pytest.approx(r**5)

    def test_shifted_linear_masks_below_start(self):
        r = 0.2
        assert weight_at(SHIFTED2, 0, r) == 1.0
        assert weight_at(SHIFTED2, 1, r) == 0.0
        assert weight_at(SHIFTED2, 2, r) == pytest.approx(3 * r**2)
        assert weight_at(SHIFTED2, 5, r) == pytest.approx(6 * r**5)

    def test_power_alpha_rule(self):
        r = 0.2
        assert weight_at(ALPHA2, 0, r) == 1.0
        assert weight_at(ALPHA2, 3, r) == pytest.approx(9 * r**3)

    def test_hypergeometric_moduli(self):
        fam = WeightFamily.hypergeometric(2.0, 1.0, 1.0)
        # coefficients of (1-x)^(-2) are n+1
        for n in range(5):
            assert weight_at(fam, n, 0.3) == pytest.approx((n + 1) * 0.3**n, rel=1e-13)

    def test_hypergeometric_negative_coefficients_use_moduli(self):
        fam = WeightFamily.hypergeometric(-0.5, 1.0, 1.0)
        assert fam.coefficient_sign < 0
        # gamma_1 = -1/2, gamma_2 = -1/8
        assert weight_at(fam, 1, 0.5) == pytest.approx(0.25, rel=1e-13)
        assert weight_at(fam, 2, 0.5) == pytest.approx(0.125 / 4, rel=1e-13)

    def test_hypergeometric_rejects_sign_mixing(self):
        with pytest.raises(HypothesisError):
            WeightFamily.hypergeometric(-2.5, 1.0, 1.0)

    def test_hypergeometric_sign_change_past_64_terms_rejected(self):
        # gamma_n > 0 up to n = 71; the factor b + n turns negative at n = 71
        with pytest.raises(HypothesisError):
            WeightFamily.hypergeometric(-70.5, -80.5, 1.0)

    def test_hypergeometric_terminating_series_accepted(self):
        # (-1)_n stops the series before the zero of (c)_n = (-2)_n
        fam = WeightFamily.hypergeometric(-1.0, 1.0, -2.0)
        assert fam.coefficient_sign > 0
        assert weight_at(fam, 1, 0.5) == pytest.approx(0.25, rel=1e-15)
        assert weight_at(fam, 2, 0.5) == 0.0

    def test_shifted_start_must_be_positive(self):
        with pytest.raises(ParameterError):
            WeightFamily.shifted_linear(0)
        with pytest.raises(ParameterError):
            WeightFamily.power_alpha(1.0, 0)

    def test_radius_outside_unit_interval(self):
        with pytest.raises(DomainError):
            weight_at(POWER, 1, 1.0)
        with pytest.raises(DomainError):
            weight_at(POWER, 1, -0.1)

    def test_negative_rule_value_rejected(self):
        bad = WeightFamily.custom(lambda n, r: -1.0 if n == 2 else r**n, r_max=1.0)
        with pytest.raises(ParameterError):
            weight_at(bad, 2, 0.5)


class TestTails:
    @pytest.mark.parametrize("N", [0, 1, 2, 5])
    @pytest.mark.parametrize("r", [0.0, 0.1, 0.5, 0.9])
    def test_power_tail_closed_form(self, N, r):
        want = brute_tail(lambda n, rr: rr**n, N, r)
        assert tail_value(POWER, N, r) == pytest.approx(want, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("family", [EVEN, ODD, SHIFTED2, ALPHA2])
    @pytest.mark.parametrize("N", [0, 1, 2, 4, 7])
    def test_builtin_tails_match_direct_summation(self, family, N):
        r = 0.63
        want = brute_tail(lambda n, rr: weight_at(family, n, rr), N, r)
        assert tail_value(family, N, r) == pytest.approx(want, rel=1e-11, abs=1e-14)

    def test_even_tail_spot_value(self):
        # sum of 0.25^n from n=1
        assert tail_value(EVEN, 1, 0.5) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_power_alpha_tail_spot_value(self):
        # frozen against an exact evaluation of sum n^2 (0.6)^n from n=4
        assert tail_value(ALPHA2, 4, 0.6) == pytest.approx(11.016, rel=1e-12)

    def test_hypergeometric_tail_matches_oracle(self):
        fam = WeightFamily.hypergeometric(0.5, 1.5, 2.5)
        # frozen from a high-precision summation of |(a)_n (b)_n / ((c)_n n!)| r^n
        assert tail_value(fam, 3, 0.7) == pytest.approx(0.07611318055916989, abs=1e-11)

    def test_custom_tail_uses_series_fallback(self):
        def rule(n, r):
            return r**n / math.factorial(n)

        fam = WeightFamily.custom(rule, r_max=1.0)
        want = brute_tail(rule, 2, 0.8, terms=60)
        assert tail_value(fam, 2, 0.8) == pytest.approx(want, rel=1e-11)

    def test_tail_sum_reports_certificate(self):
        closed = tail_sum(POWER, 3, 0.5)
        assert closed.truncation_order == 0
        assert closed.bound_on_remainder == 0.0

        def rule(n, r):
            return r**n / (n + 1.0)

        fam = WeightFamily.custom(rule, r_max=1.0)
        summed = tail_sum(fam, 1, 0.5, tol=1e-10)
        assert summed.truncation_order > 0
        assert summed.bound_on_remainder <= 1e-10
        want = brute_tail(rule, 1, 0.5)
        assert abs(summed.value - want) <= 1e-10

    def test_tail_sum_counts_the_terms_it_summed(self):
        calls = []

        def rule(n, r):
            calls.append(n)
            return r**n / (n + 1.0)

        fam = WeightFamily.custom(rule, r_max=1.0)
        summed = tail_sum(fam, 5, 0.5, tol=1e-10)
        assert summed.truncation_order == len(calls)
        assert calls == list(range(5, 5 + len(calls)))
        with mp.workdps(50):
            rest = mp.nsum(lambda n: mp.mpf(0.5) ** n / (n + 1), [5 + len(calls), mp.inf])
        assert float(rest) <= summed.bound_on_remainder <= 1e-10

    @pytest.mark.parametrize(
        "abc, N, r",
        [((0.5, 1.5, 2.5), 3, 0.7), ((1.5, 1.5, 1.0), 1, 0.9), ((0.5, 1.0, 1.0), 2, 0.95), ((-0.5, 1.0, 1.0), 1, 0.8)],
    )
    def test_hypergeometric_tail_sum_bounds_its_remainder(self, abc, N, r):
        tol = 1e-10
        summed = tail_sum(WeightFamily.hypergeometric(*abc), N, r, tol)
        assert summed.truncation_order > 0
        # the true remainder |2F1 - 1| minus every term summed (n >= 1 share one sign)
        with mp.workdps(50):
            a, b, c = (mp.mpf(x) for x in abc)
            x = mp.mpf(r)
            head = mp.fsum(mp.rf(a, n) * mp.rf(b, n) / (mp.rf(c, n) * mp.factorial(n)) * x**n
                           for n in range(1, N + summed.truncation_order))
            rest = abs(mp.hyp2f1(a, b, c, x) - 1 - head)
        assert float(rest) <= summed.bound_on_remainder <= tol

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 6")
    def test_sparse_rule_tail_counts_mass_past_a_run_of_zeros(self):
        # phi_n = r^n when 50 | n: the series stops on the zeros at n = 1..9
        # and returns 0.0, although sum_{n>=1} r^{50n} is about 1.53 at 0.99
        fam = WeightFamily.custom(lambda n, r: r**n if n % 50 == 0 else 0.0, r_max=1.0)
        r, tol = 0.99, 1e-10
        want = r**50 / (1.0 - r**50)
        assert abs(tail_sum(fam, 1, r, tol).value - want) <= tol

    def test_divergence_outside_declared_radius(self):
        fam = WeightFamily.custom(lambda n, r: (r / 0.8) ** n, r_max=0.8)
        assert tail_value(fam, 1, 0.4) > 0.0
        with pytest.raises(DivergenceError):
            tail_value(fam, 1, 0.9)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([POWER, EVEN, ODD, SHIFTED2]),
        st.integers(min_value=0, max_value=25),
        st.floats(min_value=0.0, max_value=0.93),
    )
    def test_tail_telescopes_by_one_weight(self, family, N, r):
        lhs = tail_value(family, N, r) - tail_value(family, N + 1, r)
        assert lhs == pytest.approx(weight_at(family, N, r), rel=1e-9, abs=1e-12)
