"""Root solving, the closed-form catalog, and sharpness probing."""

from __future__ import annotations

import csv
import io
import math

import pytest

from bohrad import (
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

    def test_scale_validation(self):
        with pytest.raises(ParameterError):
            solve_radius(POWER, 0.0, 1.0)
        with pytest.raises(ParameterError):
            solve_radius(POWER, 2.0, -1.0)


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
