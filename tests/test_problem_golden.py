"""Golden values of the extremal problems, to the last bit.

Each entry of data/problem_golden.json is the repr of problem.evaluate(a, r)
for analytic_problem (Lambda = 0 and Lambda = 1), harmonic_problem and
subordination_problem on one built-in weight family, at every point of a
small (p, gamma, k) x a x r grid.  The CLI transcript prints 12 digits; this
file keeps all 17, so a refactor of the evaluation route that passes it
leaves every built-in value bit-identical.  Custom rules are left out: their
values are checked against the 50-digit oracle in test_weighted_sums.py.

To record the values again, from a commit whose values are known good:

    PYTHONPATH=src python tests/test_problem_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from bohrad import analytic_problem, harmonic_problem, lambda_one, lambda_zero, subordination_problem

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_weighted_sums import _FAMILIES  # noqa: E402

DATA = Path(__file__).resolve().parent / "data" / "problem_golden.json"

_PARAMS = ((1.0, 0.0, 0.0), (0.5, 0.3, 0.5), (2.0, 0.6, 1.0), (1.5, 0.9, 0.25))  # (p, gamma, k)
_A = (0.05, 0.5, 0.9, 0.999, 0.99999)
_R = (0.0, 0.1, 0.35, 0.6, 0.9, 0.98)
_BUILT_IN = [(label, family) for label, family, _ in _FAMILIES if family._power_series]


def _problems(family, p, gamma, k):
    return {
        "analytic, Lambda = 0": analytic_problem(family, p, gamma, lambda_zero),
        "analytic, Lambda = 1": analytic_problem(family, p, gamma, lambda_one),
        "harmonic": harmonic_problem(family, p, gamma, k),
        "subordination": subordination_problem(family, k),
    }


def _values(family, p, gamma, k) -> dict:
    """name -> repr of evaluate(a, r) for every a and r, in grid order."""
    return {
        name: [repr(problem.evaluate(a, r)) for a in _A for r in _R]
        for name, problem in _problems(family, p, gamma, k).items()
    }


def _key(label: str, p: float, gamma: float, k: float) -> str:
    return f"{label} p={p} gamma={gamma} k={k}"


def _grid() -> list[tuple[str, object, float, float, float]]:
    return [(label, family, *params) for label, family in _BUILT_IN for params in _PARAMS]


def record() -> dict:
    return {_key(label, p, gamma, k): _values(family, p, gamma, k) for label, family, p, gamma, k in _grid()}


GOLDEN = json.loads(DATA.read_text(encoding="utf-8")) if DATA.exists() else {}


def test_golden_covers_the_grid():
    assert list(GOLDEN) == [_key(label, p, gamma, k) for label, _, p, gamma, k in _grid()]


@pytest.mark.parametrize(
    "label, family, p, gamma, k", _grid(), ids=[_key(label, p, gamma, k) for label, _, p, gamma, k in _grid()]
)
def test_problem_values_are_unchanged(label, family, p, gamma, k):
    assert _values(family, p, gamma, k) == GOLDEN[_key(label, p, gamma, k)]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    values = record()
    DATA.write_text(json.dumps(values, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(values)} grid cases in {DATA}")
