"""Root solving, the closed-form catalog, and sharpness probing."""

from __future__ import annotations

import csv
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrad import (
    BohrError,
    BohrProblem,
    HypothesisError,
    NoRootError,
    ParameterError,
    SharpnessWitness,
    WeightFamily,
    analytic_problem,
    analytic_radius,
    catalog_solver,
    closed_form_radius,
    empirical_bohr_radius,
    harmonic_problem,
    harmonic_radius,
    hypergeom_radius,
    lambda_one,
    sharpness_probe,
    solve_radius,
    subordination_problem,
    subordination_radius,
    tail_value,
    weight_at,
)
from bohrad.cli import main
from bohrad.radii import _solve_kind

POWER = WeightFamily.power()


class TestSolveRadius:
    def test_classical_value(self):
        result = solve_radius(POWER, 2.0, 1.0)
        assert result.value == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert result.method == "bisection"
        assert abs(result.residual) < 1e-10
        lo, hi = result.bracket
        assert lo <= result.value <= hi
        assert hi - lo <= 2e-12

    def test_off_center_domain(self):
        result = solve_radius(POWER, 2.0, 1.5)
        assert result.value == pytest.approx(3.0 / 7.0, abs=1e-12)

    def test_even_family(self):
        result = solve_radius(WeightFamily.even(), 2.0, 1.0)
        assert result.value == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-12)

    def test_gap_stays_negative_below_root(self):
        result = solve_radius(POWER, 2.0, 1.0)
        step = 1e-3
        r = step
        while r < result.value - step:
            assert 2.0 * tail_value(POWER, 1, r) - weight_at(POWER, 0, r) < 0.0
            r += 37 * step  # sparse sample of the scan grid

    def test_no_root_when_weights_too_small(self):
        # head weight 1 but a tail maxing out at 2*0.1*(e-1) < 1
        fam = WeightFamily.custom(
            lambda n, r: 1.0 if n == 0 else 0.1 * r**n / math.factorial(n), r_max=1.0
        )
        with pytest.raises(NoRootError):
            solve_radius(fam, 2.0, 1.0)

    def test_hypothesis_violated_at_origin(self):
        fam = WeightFamily.custom(lambda n, r: 1.0 if n == 1 else r**n, r_max=1.0)
        with pytest.raises(HypothesisError):
            solve_radius(fam, 2.0, 1.0)

    def test_power_root_below_scan_floor(self):
        # P/(2+P) with P = 1e-9 lies below the scan's starting point 1e-9
        result = analytic_radius(POWER, 1e-9, 0.0)
        assert result.value == pytest.approx(1e-9 / (2.0 + 1e-9), abs=1e-12)
        lo, hi = result.bracket
        assert lo < result.value < hi

    def test_weighted_n_root_below_scan_floor(self):
        p = 1e-9
        result = analytic_radius(WeightFamily.power_alpha(1.0, 1), p, 0.0)

        def gap(r):  # (2/p) sum n r^n - 1
            return (2.0 / p) * r / (1.0 - r) ** 2 - 1.0

        assert gap(result.value - 2e-12) < 0.0 < gap(result.value + 2e-12)

    @pytest.mark.parametrize(
        "argv",
        [
            ["radius", "--family", "power", "--p", "1e-9"],
            ["radius", "--family", "power-alpha", "--p", "1e-9"],
            ["radius", "--case", "power", "--p", "2e-9"],
        ],
    )
    def test_cli_roots_below_scan_floor(self, argv, capsys):
        # for tiny p each of these radii is p/2 to within p^2
        assert main(argv) == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert float(row["value_bisect"]) == pytest.approx(float(argv[-1]) / 2.0, abs=1e-12)

    @pytest.mark.parametrize("p", [1e-20, 1e-12, 1e-9, 1e-8, 1e-6])
    def test_tiny_roots_to_relative_accuracy(self, p):
        # the bisection stops at a width relative to the root, not at 2 tol
        assert analytic_radius(POWER, p, 0.0).value == pytest.approx(p / (2.0 + p), rel=1e-8, abs=0.0)

    def test_scale_validation(self):
        with pytest.raises(ParameterError):
            solve_radius(POWER, 0.0, 1.0)
        with pytest.raises(ParameterError):
            solve_radius(POWER, 2.0, -1.0)


def _scanned(family: WeightFamily) -> WeightFamily:
    """The same family, marked as not a power series: its radii take the grid scan."""
    family._power_series = False
    return family


def _outcome(solve, family):
    try:
        return solve(family)
    except (BohrError, ArithmeticError) as exc:
        return type(exc), str(exc)


# (label, constructor, largest p drawn): hypergeometric(-0.5, 1, 1) has
# Phi_1 = 1 - sqrt(1 - r), so p (1 + gamma) near 2 puts its root within 1e-3
# of 1, where each Gauss tail sums up to 1e6 terms; test_root_in_last_grid_cell
# covers that corner once
_BUILT_IN_FAMILIES = [
    ("power", WeightFamily.power, 2.0),
    ("even", WeightFamily.even, 2.0),
    ("odd_with_unit_head", WeightFamily.odd_with_unit_head, 2.0),
    ("shifted_linear(2)", lambda: WeightFamily.shifted_linear(2), 2.0),
    ("power_alpha(1)", lambda: WeightFamily.power_alpha(1.0), 2.0),
    ("power_alpha(2.5, 3)", lambda: WeightFamily.power_alpha(2.5, 3), 2.0),
    ("hypergeometric(1.5, 0.5, 2)", lambda: WeightFamily.hypergeometric(1.5, 0.5, 2.0), 2.0),
    ("hypergeometric(-0.5, 1, 1)", lambda: WeightFamily.hypergeometric(-0.5, 1.0, 1.0), 0.9),
]


class TestGridBisection:
    """Built-in families bisect the bracket's grid index; custom rules scan the grid."""

    @pytest.mark.parametrize("label,make,p_max", _BUILT_IN_FAMILIES, ids=[f[0] for f in _BUILT_IN_FAMILIES])
    @settings(max_examples=10, deadline=None)
    @given(
        kind=st.sampled_from(["analytic", "harmonic", "subordination"]),
        p_share=st.floats(min_value=1e-6, max_value=1.0),
        gamma=st.floats(min_value=0.0, max_value=0.999),
        k=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_same_result_as_the_scan(self, label, make, p_max, kind, p_share, gamma, k):
        def solve(family):
            return _solve_kind(kind, family, p_share * p_max, gamma, k)

        assert make()._power_series
        assert _outcome(solve, make()) == _outcome(solve, _scanned(make()))

    def test_root_in_last_grid_cell(self):
        # root 1 - 0.04^2 = 0.9984: the bisection must not read the grid's last
        # point, 1 - 1e-9, where this tail does not converge, before 0.999
        def solve(family):
            return analytic_radius(family, 1.92, 0.0)

        family = WeightFamily.hypergeometric(-0.5, 1.0, 1.0)
        result = solve(family)
        assert result.value == pytest.approx(0.9984, abs=1e-10)
        assert result == solve(_scanned(WeightFamily.hypergeometric(-0.5, 1.0, 1.0)))

    def test_overflow_past_the_root_falls_back_to_the_scan(self):
        # the first bisection point 0.501 lies far past the root near 1.6e-3,
        # where the Lerch series of n^140 r^n overflows; the scan never reads it
        def solve(family):
            return analytic_radius(family, 1.0, 0.0)

        family = WeightFamily.power_alpha(140.0, 100)
        with pytest.raises(OverflowError):
            tail_value(family, 1, 0.501)
        result = solve(family)
        assert 1e-3 < result.value < 2e-3
        assert result == solve(_scanned(WeightFamily.power_alpha(140.0, 100)))

    def test_about_ten_gap_evaluations_before_halving(self):
        family = WeightFamily.hypergeometric(1.5, 0.5, 2.0)
        tail, calls = family._tail, []

        def counted(N, r, tol):
            calls.append(r)
            return tail(N, r, tol)

        family._tail = counted
        result = analytic_radius(family, 1.0, 0.3)
        # past(1e-9), ceil(log2 1000) grid points, the halvings and the residual
        assert len(calls) <= 11 + result.iterations + 2

    def test_no_root_still_raises(self):
        with pytest.raises(NoRootError):
            solve_radius(WeightFamily.power(), 1e-12, 1.0)

    def test_custom_rule_keeps_the_scan(self):
        # Phi_1 - phi_0 = (r - 0.2)(r - 0.25)(r - 0.7): >= 0 on [0.2, 0.25],
        # negative at 0.5, >= 0 again from 0.7 on; only tail(1, r) is read
        def tail(N, r):
            return 1.0 + (r - 0.2) * (r - 0.25) * (r - 0.7)

        def make():
            return WeightFamily.custom(lambda n, r: 1.0 if n == 0 else 0.0, r_max=1.0, tail=tail)

        assert solve_radius(make(), 1.0, 1.0).value == pytest.approx(0.2, abs=1e-12)
        # bisecting the grid, which assumes a rising gap, would land on 0.7
        bisected = make()
        bisected._power_series = True
        assert solve_radius(bisected, 1.0, 1.0).value == pytest.approx(0.7, abs=1e-12)


class TestNamedRadii:
    def test_classical(self):
        assert analytic_radius(POWER, 1.0, 0.0).value == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_p2(self):
        assert analytic_radius(POWER, 2.0, 0.0).value == pytest.approx(0.5, abs=1e-12)

    def test_shifted(self):
        got = analytic_radius(WeightFamily.shifted_linear(1), 1.0, 0.0).value
        assert got == pytest.approx(1.0 - math.sqrt(2.0 / 3.0), abs=1e-12)

    def test_harmonic_values(self):
        assert harmonic_radius(POWER, 1.0, 0.0, 0.5).value == pytest.approx(0.25, abs=1e-12)
        assert harmonic_radius(POWER, 2.0, 0.5, 0.5).value == pytest.approx(0.5, abs=1e-12)
        assert harmonic_radius(POWER, 1.0, 0.0, 0.0).value == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_subordination_values(self):
        assert subordination_radius(POWER, 0.5).value == pytest.approx(0.25, abs=1e-12)
        assert subordination_radius(POWER, 0.0).value == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert subordination_radius(POWER, 1.0).value == pytest.approx(0.2, abs=1e-12)

    def test_subordination_nests_in_harmonic(self):
        for k in (0.0, 0.3, 0.8):
            a = subordination_radius(POWER, k).value
            b = harmonic_radius(POWER, 1.0, 0.0, k).value
            assert a == pytest.approx(b, abs=1e-12)

    def test_monotonicity_in_parameters(self):
        gammas = [0.0, 0.2, 0.4, 0.6, 0.8]
        radii = [analytic_radius(POWER, 1.0, g).value for g in gammas]
        assert all(x < y for x, y in zip(radii, radii[1:]))
        ps = [0.5, 1.0, 1.5, 2.0]
        radii = [analytic_radius(POWER, p, 0.0).value for p in ps]
        assert all(x < y for x, y in zip(radii, radii[1:]))
        ks = [0.0, 0.25, 0.5, 0.75, 1.0]
        radii = [harmonic_radius(POWER, 1.0, 0.0, k).value for k in ks]
        assert all(x > y for x, y in zip(radii, radii[1:]))

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            analytic_radius(POWER, 2.5, 0.0)
        with pytest.raises(ParameterError):
            harmonic_radius(POWER, 1.0, 0.0, 1.5)
        with pytest.raises(ParameterError):
            subordination_radius(POWER, -0.1)


class TestCatalogParameters:
    @pytest.mark.parametrize(
        "case,params",
        [
            ("power", {"gamma": 0.1}),
            ("classical", {"gamma": 0.5, "p": 2.0}),
            ("binomial", {"p": 1.0, "gamma": 0.0, "y": -0.5}),
        ],
    )
    def test_both_routes_reject(self, case, params):
        with pytest.raises(ParameterError):
            closed_form_radius(case, **params)
        with pytest.raises(ParameterError):
            catalog_solver(case, **params)


class TestHypergeomRadius:
    def test_all_ones_series(self):
        assert hypergeom_radius(1.0, 1.0, 1.0, 1.0, 0.0).value == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_p2(self):
        assert hypergeom_radius(1.0, 1.0, 1.0, 2.0, 0.0).value == pytest.approx(0.5, abs=1e-10)

    def test_binomial_weights(self):
        got = hypergeom_radius(2.0, 1.0, 1.0, 1.0, 0.0).value
        assert got == pytest.approx(1.0 - math.sqrt(2.0 / 3.0), abs=1e-10)

    def test_negative_coefficient_branch(self):
        # (1-x)^(1/2) series has negative tail coefficients; |F - 1| drives the root
        got = hypergeom_radius(-0.5, 1.0, 1.0, 1.0, 0.0).value
        assert got == pytest.approx(0.75, abs=1e-10)

    def test_sign_mixing_rejected(self):
        with pytest.raises(HypothesisError):
            hypergeom_radius(-2.5, 1.0, 1.0, 1.0, 0.0)


class TestCatalog:
    def test_spot_values(self):
        assert closed_form_radius("classical", gamma=0.0) == pytest.approx(1.0 / 3.0)
        assert closed_form_radius("power", p=2.0, gamma=0.0) == pytest.approx(0.5)
        assert closed_form_radius("even", p=1.0, gamma=0.0) == pytest.approx(math.sqrt(1.0 / 3.0))
        assert closed_form_radius("odd", p=1.0, gamma=0.0) == pytest.approx(math.sqrt(2.0) - 1.0)
        assert closed_form_radius("linear_shift", p=1.0, gamma=0.0) == pytest.approx(1.0 - math.sqrt(2.0 / 3.0))
        assert closed_form_radius("weighted_n", p=1.0, gamma=0.0) == pytest.approx(2.0 - math.sqrt(3.0))
        assert closed_form_radius("harmonic_p1", gamma=0.0, k=1.0) == pytest.approx(0.2)
        assert closed_form_radius("harmonic_p2", gamma=0.0, k=0.0) == pytest.approx(0.5)
        assert closed_form_radius("binomial", p=1.0, gamma=0.0, y=1.0) == pytest.approx(1.0 / 3.0)
        assert closed_form_radius("subordination", K=3.0) == pytest.approx(0.25)

    def test_classical_is_power_at_p_one(self):
        for gamma in (0.0, 0.3, 0.7):
            assert closed_form_radius("classical", gamma=gamma) == pytest.approx(
                closed_form_radius("power", p=1.0, gamma=gamma), abs=1e-15
            )

    @pytest.mark.parametrize(
        "case,params",
        [
            ("classical", {"gamma": 0.4}),
            ("power", {"p": 1.5, "gamma": 0.2}),
            ("even", {"p": 0.5, "gamma": 0.6}),
            ("odd", {"p": 2.0, "gamma": 0.3}),
            ("linear_shift", {"p": 0.5, "gamma": 0.8}),
            ("weighted_n", {"p": 2.0, "gamma": 0.1}),
            ("harmonic_p1", {"gamma": 0.5, "k": 0.25}),
            ("harmonic_p2", {"gamma": 0.2, "k": 0.75}),
            ("binomial", {"p": 1.5, "gamma": 0.4, "y": 2.0}),
            ("subordination", {"K": 5.0}),
        ],
    )
    def test_solver_concordance(self, case, params):
        closed = closed_form_radius(case, **params)
        solved = catalog_solver(case, **params)
        assert abs(closed - solved.value) <= 1e-10

    def test_unknown_case(self):
        with pytest.raises(ParameterError):
            closed_form_radius("mystery", gamma=0.0)


class TestSharpness:
    def test_classical_witness_past_radius(self):
        problem = analytic_problem(POWER, 1.0, 0.0, lambda_one)
        witness = sharpness_probe(1.0 / 3.0, problem, eps=0.01)
        assert isinstance(witness, SharpnessWitness)
        assert witness.r == pytest.approx(1.0 / 3.0 + 0.01)
        assert witness.functional_value > witness.threshold
        assert witness.a <= 0.9999

    def test_no_witness_below_radius(self):
        problem = analytic_problem(POWER, 1.0, 0.0, lambda_one)
        assert sharpness_probe(1.0 / 3.0 - 0.02, problem, eps=0.01) is None

    def test_harmonic_witness(self):
        problem = harmonic_problem(POWER, 1.0, 0.0, 1.0)
        witness = sharpness_probe(0.2, problem, eps=0.01)
        assert witness is not None
        assert witness.functional_value > witness.threshold

    def test_subordination_witness(self):
        problem = subordination_problem(POWER, 0.5)
        assert sharpness_probe(0.25, problem, eps=0.01) is not None
        assert sharpness_probe(0.23, problem, eps=0.01) is None


class TestEmpiricalRadius:
    def test_classical_default_grid(self):
        problem = analytic_problem(POWER, 1.0, 0.0)
        got = empirical_bohr_radius(problem)
        # onset for the deepest default grid point a=0.9999 is 1/(1+2a)
        assert got == pytest.approx(0.3333555570371358, abs=1e-9)
        assert abs(got - 1.0 / 3.0) < 5e-4

    def test_single_shallow_constraint_loosens_bound(self):
        problem = analytic_problem(POWER, 1.0, 0.0)
        loose = empirical_bohr_radius(problem, a_grid=(0.5,))
        assert loose > 1.0 / 3.0 + 0.05
        assert loose == pytest.approx(0.5, abs=1e-9)  # 1/(1+2*0.5)

    def test_harmonic_k1_grid_limit(self):
        problem = harmonic_problem(POWER, 1.0, 0.0, 1.0)
        got = empirical_bohr_radius(problem)
        assert abs(got - 0.2) < 5e-4

    def test_bisection_below_one_ulp_terminates(self):
        # the bracket around 0.5 stops shrinking at one ulp, far above r_tol;
        # the evaluation budget turns a runaway bisection into a failure
        calls = [0]

        def evaluate(a, r):
            calls[0] += 1
            if calls[0] > 10_000:
                raise RuntimeError("bisection did not terminate")
            return r

        problem = BohrProblem(evaluate=evaluate, threshold=lambda r: 0.5)
        got = empirical_bohr_radius(problem, r_tol=1e-20)
        assert got == pytest.approx(0.5, abs=1e-15)

    def test_never_violated_returns_near_one(self):
        problem = BohrProblem(evaluate=lambda a, r: 0.0, threshold=lambda r: 1.0)
        assert empirical_bohr_radius(problem) > 1.0 - 1e-6
