"""Exception types shared across the library.

Validation failures (bad arguments, bad parameter combinations) derive from
ValueError; numerical failures (divergence, exhausted term budgets, missing
roots) derive from ArithmeticError.  Everything derives from BohrError so
callers can catch library errors in one clause.  The range checks of the
parameters every layer shares (p, gamma, k) live here too, once.
"""


class BohrError(Exception):
    """Base class for every library-specific error."""


class DomainError(BohrError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ParameterError(BohrError, ValueError):
    """Parameters are structurally invalid (wrong range, bad combination)."""


class UnsupportedInputError(BohrError, ValueError):
    """Input is well formed but outside what the algorithm supports."""


class DivergenceError(BohrError, ArithmeticError):
    """A series was evaluated at or beyond its convergence boundary."""


class TruncationError(BohrError, ArithmeticError):
    """Summation hit the term cap before meeting the tolerance.

    The partial sum accumulated so far is kept on the ``partial`` attribute
    so callers can inspect how far the computation got.
    """

    def __init__(self, message: str, partial: float | None = None):
        super().__init__(message)
        self.partial = partial


class NoRootError(BohrError, ArithmeticError):
    """No sign change was found on the search interval."""


class HypothesisError(BohrError, ArithmeticError):
    """A structural hypothesis required by the computation fails.

    Raised when the weight-series condition is already violated at r = 0+,
    or when hypergeometric coefficients mix signs so the tail sum no longer
    equals |F - 1|.
    """


def check_p(p: float) -> None:
    """Exponent p of the weighted sum: (0, 2]."""
    if not 0.0 < p <= 2.0:
        raise ParameterError(f"exponent p must lie in (0, 2], got {p}")


def check_gamma(gamma: float) -> None:
    """Domain parameter gamma of Omega(gamma): [0, 1)."""
    if not 0.0 <= gamma < 1.0:
        raise ParameterError(f"gamma must lie in [0, 1), got {gamma}")


def check_k(k: float) -> None:
    """Dilatation bound k of a harmonic map: [0, 1]."""
    if not 0.0 <= k <= 1.0:
        raise ParameterError(f"dilatation bound k must lie in [0, 1], got {k}")
