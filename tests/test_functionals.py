"""Majorant functionals with refinement, harmonic, and subordination variants."""

from __future__ import annotations

import pytest

from bohrad import (
    CoefficientStream,
    ExtremalParams,
    HarmonicMap,
    ParameterError,
    SubordinationContext,
    UnsupportedInputError,
    WeightFamily,
    a_term,
    aux_tail,
    harmonic_extremal,
    harmonic_functional,
    lambda_one,
    lambda_zero,
    majorant,
    mobius_extremal,
    q_functional,
    refined_functional,
    subordination_extremal,
    tail_value,
    weight_at,
)
from conftest import brute_a_term, brute_weighted_sum, mobius_moduli

POWER = WeightFamily.power()


def power_rule(n, r):
    return r**n


class TestATerm:
    def test_zero_tail_stream_contributes_nothing(self):
        s = CoefficientStream.from_sequence([0.8])
        assert a_term(s, POWER, 0.7) == 0.0

    def test_frozen_extremal_value(self):
        # brute double summation for the a=1/2 extremal on the disk at r=1/4
        s = mobius_extremal(ExtremalParams(0.5, 0.0))
        assert a_term(s, POWER, 0.25) == pytest.approx(0.03523350822806616, abs=1e-14)

    def test_factored_power_form(self):
        # for plain powers the term factors as (1/(1+a0) + r/(1-r)) sum |a_n|^2n r^2n
        s = mobius_extremal(ExtremalParams(0.5, 0.0))
        r = 0.25
        factor = 1.0 / 1.5 + r / (1.0 - r)
        moduli = mobius_moduli(0.5, 0.0, 60)
        inner = sum(m ** (2 * n) * r ** (2 * n) for n, m in enumerate(moduli) if n >= 1)
        assert a_term(s, POWER, r) == pytest.approx(factor * inner, rel=1e-12)

    @pytest.mark.parametrize("family", [POWER, WeightFamily.even(), WeightFamily.shifted_linear(1)])
    def test_matches_direct_double_sum(self, family):
        moduli = [0.3, 0.6, 0.45, 0.2, 0.0, 0.37]
        s = CoefficientStream.from_sequence(moduli)
        r = 0.4
        want = brute_a_term(moduli, lambda n, rr: weight_at(family, n, rr), r)
        assert a_term(s, family, r) == pytest.approx(want, rel=1e-11, abs=1e-14)

    def test_unit_moduli_allowed_when_tails_converge(self):
        ones = CoefficientStream.constant(1.0)
        r = 0.5
        # every |a_n|^2n is exactly 1, so the sum telescopes to weights only
        want = sum(
            power_rule(2 * n, r) / 2.0 + tail_value(POWER, 2 * n + 1, r) for n in range(1, 80)
        )
        assert a_term(ones, POWER, r) == pytest.approx(want, rel=1e-11)

    def test_rejects_modulus_above_one(self):
        s = CoefficientStream.from_sequence([0.5, 1.5])
        with pytest.raises(UnsupportedInputError):
            a_term(s, POWER, 0.3)
        head = CoefficientStream.from_sequence([1.2, 0.1])
        with pytest.raises(UnsupportedInputError):
            a_term(head, POWER, 0.3)

    def test_tiny_moduli_survive_underflow(self):
        s = CoefficientStream.from_sequence([0.2, 1e-12])
        r = 0.5
        want = (1e-12) ** 2 * (r**2 / 1.2 + r**3 / (1 - r))
        assert a_term(s, POWER, r) == pytest.approx(want, rel=1e-10)


class TestRefinedFunctional:
    def test_zero_stream(self):
        assert refined_functional(CoefficientStream.zero(), POWER, 1.0, 0.0, lambda_one, 0.5) == 0.0

    def test_constant_head_only(self):
        s = CoefficientStream.from_sequence([1.0])
        assert refined_functional(s, POWER, 2.0, 0.0, lambda_zero, 0.5) == 1.0

    def test_decomposes_into_parts(self):
        moduli = mobius_moduli(0.6, 0.3, 80)
        s = mobius_extremal(ExtremalParams(0.6, 0.3))
        r, p = 0.3, 1.5

        def lam(rr):
            return 0.37

        head = weight_at(POWER, 0, r) * moduli[0] ** p
        middle = brute_weighted_sum(moduli, power_rule, r)
        value = refined_functional(s, POWER, p, 0.3, lam, r)
        assert value == pytest.approx(head + middle + 0.37 * a_term(s, POWER, r), rel=1e-11)

    def test_lambda_zero_drops_refinement(self):
        s = mobius_extremal(ExtremalParams(0.7, 0.1))
        r = 0.28
        base = refined_functional(s, POWER, 1.0, 0.1, lambda_zero, r)
        refined = refined_functional(s, POWER, 1.0, 0.1, lambda_one, r)
        assert refined > base
        assert refined - base == pytest.approx(a_term(s, POWER, r), rel=1e-12)

    def test_monotone_in_lambda(self):
        s = mobius_extremal(ExtremalParams(0.5, 0.0))
        values = [
            refined_functional(s, POWER, 1.0, 0.0, lambda rr, c=c: c, 0.3) for c in (0.0, 0.25, 0.5, 1.0)
        ]
        assert values == sorted(values)

    def test_extremal_approaches_head_weight_at_radius(self):
        # at the radius the functional tends to phi_0 from below as a -> 1
        r = 1.0 / 3.0
        gaps = []
        for a in (0.999, 0.9999):
            s = mobius_extremal(ExtremalParams(a, 0.0))
            value = refined_functional(s, POWER, 1.0, 0.0, lambda_one, r)
            gap = 1.0 - value
            assert gap > 0.0
            gaps.append(gap)
        assert gaps[1] < gaps[0]
        assert gaps[1] == pytest.approx(0.0, abs=1e-3)

    def test_validates_exponent_and_domain(self):
        s = CoefficientStream.zero()
        with pytest.raises(ParameterError):
            refined_functional(s, POWER, 0.0, 0.0, lambda_one, 0.3)
        with pytest.raises(ParameterError):
            refined_functional(s, POWER, 2.5, 0.0, lambda_one, 0.3)
        with pytest.raises(ParameterError):
            refined_functional(s, POWER, 1.0, 1.0, lambda_one, 0.3)


class TestHarmonicFunctional:
    def test_zero_map(self):
        zero = HarmonicMap(CoefficientStream.zero(), CoefficientStream.zero())
        assert harmonic_functional(zero, POWER, 1.0, 0.4) == 0.0

    def test_k_zero_matches_unrefined_analytic(self):
        fmap = harmonic_extremal(ExtremalParams(0.6, 0.2, k=0.0))
        analytic = refined_functional(fmap.h, POWER, 1.0, 0.2, lambda_zero, 0.3)
        assert harmonic_functional(fmap, POWER, 1.0, 0.3) == pytest.approx(analytic, rel=1e-13)

    def test_geometric_closed_form(self):
        a, k, r = 0.7, 0.5, 0.2
        fmap = harmonic_extremal(ExtremalParams(a, 0.0, k=k))
        want = a + (1 + k) * (1 - a * a) * r / (1 - a * r)
        assert harmonic_functional(fmap, POWER, 1.0, r) == pytest.approx(want, rel=1e-12)

    def test_extremal_k1_approaches_one_at_fifth(self):
        r = 0.2
        fmap = harmonic_extremal(ExtremalParams(0.999, 0.0, k=1.0))
        value = harmonic_functional(fmap, POWER, 1.0, r)
        assert value < 1.0
        assert value == pytest.approx(1.0, abs=5e-3)

    def test_square_sum_scales_exactly_with_dilatation(self):
        fmap = harmonic_extremal(ExtremalParams(0.8, 0.3, k=0.7))
        r = 0.35
        lhs = sum(fmap.g.at(n) ** 2 * power_rule(n, r) for n in range(1, 60))
        rhs = 0.7**2 * sum(fmap.h.at(n) ** 2 * power_rule(n, r) for n in range(1, 60))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestQFunctional:
    def test_subordination_witness_at_one_fifth(self):
        witness = subordination_extremal(1.0)
        assert q_functional(witness.fmap, POWER, 0.2) == pytest.approx(0.5, rel=1e-12)

    def test_subordination_witness_k_zero(self):
        witness = subordination_extremal(0.0)
        assert q_functional(witness.fmap, POWER, 1.0 / 3.0) == pytest.approx(0.5, rel=1e-12)

    def test_zero_map(self):
        zero = HarmonicMap(CoefficientStream.zero(), CoefficientStream.zero())
        assert q_functional(zero, POWER, 0.5) == 0.0

    def test_head_coefficient_ignored(self):
        f1 = HarmonicMap(
            CoefficientStream.from_sequence([9.0, 0.5]), CoefficientStream.from_sequence([9.0, 0.25])
        )
        f2 = HarmonicMap(
            CoefficientStream.from_sequence([0.0, 0.5]), CoefficientStream.from_sequence([0.0, 0.25])
        )
        r = 0.4
        assert q_functional(f1, POWER, r) == q_functional(f2, POWER, r)


class TestMajorant:
    @pytest.mark.parametrize(
        "stream",
        [
            mobius_extremal(ExtremalParams(a=0.9)),
            CoefficientStream.from_sequence([0.5, 0.3, 0.0, 0.2]),
            CoefficientStream(lambda n: 0.6 if n == 0 else 0.64 * 0.6 ** (n - 1)),
        ],
    )
    @pytest.mark.parametrize("r", [0.0, 0.3, 0.55, 0.8])
    def test_is_power_weight_functional_at_p_one(self, stream, r):
        # one weighted sum serves both: same terms, same order, same stop
        assert majorant(stream, r) == refined_functional(stream, POWER, 1.0, 0.0, lambda_zero, r)


class TestSubordinationContext:
    def test_distance_window(self):
        SubordinationContext(0.5, 1.0)
        SubordinationContext(1.0, 1.0)
        with pytest.raises(ParameterError):
            SubordinationContext(0.4, 1.0)
        with pytest.raises(ParameterError):
            SubordinationContext(1.1, 1.0)


class TestAuxTail:
    def test_spot_values(self):
        assert aux_tail("linear", 1, 0.0, 0.5) == pytest.approx(1.5, rel=1e-14)
        assert aux_tail("quadratic", 1, 1.0, 0.5) == pytest.approx(5.0, rel=1e-14)
        assert aux_tail("shifted_linear", 1, 0.0, 0.0) == 0.0

    @pytest.mark.parametrize(
        "kind,coeff",
        [
            ("linear", lambda m: float(m)),
            ("quadratic", lambda m: float(m * m)),
            ("shifted_linear", lambda m: float(m + 1)),
        ],
    )
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_matches_direct_summation(self, kind, coeff, n):
        a0, r = 0.35, 0.55
        head = {"linear": 2 * n, "quadratic": 4 * n * n, "shifted_linear": 2 * n + 1}[kind]
        want = head * r ** (2 * n) / (1 + a0) + sum(
            coeff(m) * r**m for m in range(2 * n + 1, 2 * n + 2000)
        )
        assert aux_tail(kind, n, a0, r) == pytest.approx(want, rel=1e-12)

    def test_matches_weight_family_decomposition(self):
        # the shifted_linear kind is the refinement bracket for (n+1) r^n weights
        fam = WeightFamily.shifted_linear(1)
        n, a0, r = 2, 0.6, 0.3
        want = weight_at(fam, 2 * n, r) / (1 + a0) + tail_value(fam, 2 * n + 1, r)
        assert aux_tail("shifted_linear", n, a0, r) == pytest.approx(want, rel=1e-12)

    def test_validates_inputs(self):
        with pytest.raises(ParameterError):
            aux_tail("linear", 0, 0.5, 0.5)
        with pytest.raises(ParameterError):
            aux_tail("linear", 1, 1.5, 0.5)
        with pytest.raises(ParameterError):
            aux_tail("cubic", 1, 0.5, 0.5)
