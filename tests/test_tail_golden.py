"""Golden tails and radii of custom weight rules, to the last bit.

A custom rule without a closed tail is summed term by term with a geometric
certificate from the observed term ratios (WeightFamily._series_tail), and
solve_radius scans the 1e-3 grid over such sums.  Each entry of
data/tail_golden.json records, for one rule at every point of an N x r x tol
grid, the float.hex of the value and remainder bound that tail_sum returns,
the number of terms it summed and the number of rule calls it made, or the
type and message of the error it raised.  The rules include the edge cases of
the summation loop: sparse and late mass, leading zeros, a declared
r_max < 1, inf, NaN, a negative value and polynomial growth.  The file also
keeps every field of analytic_radius on two of the rules.  A rewrite of the
loop that passes it reads the same terms and returns the same bits.

Some entries record known defects (ROADMAP item 6: the sparse rule stops on
its run of zero terms); a change that fixes them re-records this file.

To record the values again, from a commit whose values are known good:

    PYTHONPATH=src python tests/test_tail_golden.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from bohrad import BohrError, WeightFamily, analytic_radius, tail_sum

DATA = Path(__file__).resolve().parent / "data" / "tail_golden.json"

# name -> (rule phi(n, r), declared r_max)
_RULES = {
    "r^n/(n+1)": (lambda n, r: r**n / (n + 1.0), 1.0),
    "r^n": (lambda n, r: r**n, 1.0),
    "sparse r^n, 50 | n": (lambda n, r: r**n if n % 50 == 0 else 0.0, 1.0),
    "leading zeros below 12": (lambda n, r: 0.0 if n < 12 else r**n, 1.0),
    "signed zeros at odd n": (lambda n, r: -0.0 if n % 2 else r**n, 1.0),
    "(r/0.8)^n, r_max = 0.8": (lambda n, r: (r / 0.8) ** n, 0.8),
    "late bump at n = 40": (lambda n, r: r**n + (0.5 if n == 40 else 0.0), 1.0),
    "inf at n = 3": (lambda n, r: math.inf if n == 3 else r**n, 1.0),
    "inf at n = 3, 4": (lambda n, r: math.inf if n in (3, 4) else r**n, 1.0),
    "inf at n = 3, then zero": (lambda n, r: math.inf if n == 3 else (0.0 if n > 3 else r**n), 1.0),
    "nan at n = 5": (lambda n, r: math.nan if n == 5 else r**n, 1.0),
    "negative at n = 6": (lambda n, r: -1e-3 if n == 6 else r**n, 1.0),
    "n^3 r^n": (lambda n, r: n**3 * r**n, 1.0),
}

_N = (0, 1, 9, 40)
_R = (0.0, 0.1, 0.35, 0.6, 0.8, 0.9, 0.97, 0.99)
_TOL = (1e-6, 1e-9, 1e-12, 1e-15)
_RADIUS_RULES = ("r^n/(n+1)", "(r/0.8)^n, r_max = 0.8")
_PG = ((1.0, 0.0), (1.5, 0.4), (0.5, 0.9), (2.0, 0.2))  # (p, gamma)


def _counted(name: str) -> tuple[WeightFamily, list[int]]:
    """The rule as a custom family, and a one-element list counting its calls."""
    rule, r_max = _RULES[name]
    calls = [0]

    def counted(n, r):
        calls[0] += 1
        return rule(n, r)

    return WeightFamily.custom(counted, r_max=r_max, name=name), calls


def _outcome(compute, calls: list[int]) -> str:
    calls[0] = 0
    try:
        result = compute()
    except BohrError as exc:  # the error is part of the record
        return f"{type(exc).__name__}: {exc} | calls={calls[0]}"
    return f"{result} | calls={calls[0]}"


def _tails(name: str) -> list[str]:
    """'value terms bound | calls=c' (floats as hex) per grid point, in grid order."""
    family, calls = _counted(name)

    def tail(N, r, tol):
        t = tail_sum(family, N, r, tol)
        return f"{t.value.hex()} {t.truncation_order} {t.bound_on_remainder.hex()}"

    return [_outcome(lambda: tail(N, r, tol), calls) for N in _N for r in _R for tol in _TOL]


def _radii(name: str) -> list[str]:
    """Every RadiusResult field of analytic_radius (floats as hex) per (p, gamma)."""
    family, calls = _counted(name)

    def radius(p, gamma):
        res = analytic_radius(family, p, gamma)
        lo, hi = res.bracket
        return (
            f"value={res.value.hex()} method={res.method} residual={res.residual.hex()} "
            f"bracket=({lo.hex()}, {hi.hex()}) iterations={res.iterations}"
        )

    return [_outcome(lambda: radius(p, gamma), calls) for p, gamma in _PG]


def record() -> dict:
    return {
        "tails": {name: _tails(name) for name in _RULES},
        "radii": {name: _radii(name) for name in _RADIUS_RULES},
    }


GOLDEN = json.loads(DATA.read_text(encoding="utf-8")) if DATA.exists() else {}


def test_golden_covers_the_rules():
    assert list(GOLDEN["tails"]) == list(_RULES)
    assert list(GOLDEN["radii"]) == list(_RADIUS_RULES)


@pytest.mark.parametrize("name", list(_RULES))
def test_tails_are_unchanged(name):
    assert _tails(name) == GOLDEN["tails"][name]


@pytest.mark.parametrize("name", _RADIUS_RULES)
def test_radii_are_unchanged(name):
    assert _radii(name) == GOLDEN["radii"][name]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    values = record()
    DATA.write_text(json.dumps(values, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {sum(map(len, values['tails'].values()))} tails and "
          f"{sum(map(len, values['radii'].values()))} radii in {DATA}")
