"""Bohr-type radii for weighted majorant series on a one-parameter disk family.

The library answers three related questions about power series f = sum a_n z^n
bounded by 1 on the disk Omega(gamma) through z = 1:

* how large can r be so that weighted coefficient sums stay below the head
  weight (analytic, harmonic-quasiconformal, and subordination variants);
* what do those sums evaluate to for a given map (functionals, refinement
  terms, auxiliary closed-form tails);
* why is each radius best possible (extremal families and sharpness probes).

Submodules: weights, specfun, series, extremal, functionals, radii, cli.
"""

from .errors import (
    BohrError,
    DivergenceError,
    DomainError,
    HypothesisError,
    NoRootError,
    ParameterError,
    TruncationError,
    UnsupportedInputError,
)
from .extremal import (
    DomainParams,
    ExtremalParams,
    SubordinationExtremal,
    boundary_points,
    harmonic_extremal,
    mobius_extremal,
    subordination_extremal,
)
from .functionals import (
    SubordinationContext,
    a_term,
    aux_tail,
    harmonic_functional,
    lambda_one,
    lambda_zero,
    majorant,
    q_functional,
    refined_functional,
)
from .radii import (
    DEFAULT_A_GRID,
    BohrProblem,
    RadiusResult,
    SharpnessWitness,
    analytic_problem,
    analytic_radius,
    catalog_solver,
    closed_form_radius,
    empirical_bohr_radius,
    harmonic_problem,
    harmonic_radius,
    hypergeom_radius,
    sharpness_probe,
    solve_radius,
    subordination_problem,
    subordination_radius,
)
from .series import CoefficientStream, HarmonicMap, hadamard, taylor_mobius
from .specfun import HypergeomParams, gauss_2f1, lerch_phi, pochhammer, polylog
from .weights import TailSum, WeightFamily, tail_sum, tail_value, weight_at

__version__ = "0.1.0"

__all__ = [
    "BohrError",
    "BohrProblem",
    "CoefficientStream",
    "DEFAULT_A_GRID",
    "DivergenceError",
    "DomainError",
    "DomainParams",
    "ExtremalParams",
    "HarmonicMap",
    "HypergeomParams",
    "HypothesisError",
    "NoRootError",
    "ParameterError",
    "RadiusResult",
    "SharpnessWitness",
    "SubordinationContext",
    "SubordinationExtremal",
    "TailSum",
    "TruncationError",
    "UnsupportedInputError",
    "WeightFamily",
    "a_term",
    "analytic_problem",
    "analytic_radius",
    "aux_tail",
    "boundary_points",
    "catalog_solver",
    "closed_form_radius",
    "empirical_bohr_radius",
    "gauss_2f1",
    "hadamard",
    "harmonic_extremal",
    "harmonic_functional",
    "harmonic_problem",
    "harmonic_radius",
    "hypergeom_radius",
    "lambda_one",
    "lambda_zero",
    "lerch_phi",
    "majorant",
    "mobius_extremal",
    "pochhammer",
    "polylog",
    "q_functional",
    "refined_functional",
    "sharpness_probe",
    "solve_radius",
    "subordination_extremal",
    "subordination_problem",
    "subordination_radius",
    "tail_sum",
    "tail_value",
    "taylor_mobius",
    "weight_at",
]
