"""Golden transcript of the command line and the demos.

Each entry of data/cli_golden.json is a command (CLI arguments, or a script
under demos/) with the exact stdout and exit code it produced when the
transcript was recorded.  Any change to a formula, a stopping rule or the
order of floating-point operations behind a printed number shows up here as
a byte difference, so a refactor that passes this test leaves every report
unchanged.

To record the transcript again, from a commit whose output is known good:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data" / "cli_golden.json"

_CASES = {
    "classical": ["--gamma", "0.4"],
    "power": ["--p", "1.5", "--gamma", "0.2"],
    "even": ["--p", "0.5", "--gamma", "0.6"],
    "odd": ["--p", "2", "--gamma", "0.3"],
    "linear_shift": ["--p", "0.5", "--gamma", "0.8"],
    "weighted_n": ["--p", "2", "--gamma", "0.1"],
    "harmonic_p1": ["--gamma", "0.5", "--k", "0.25"],
    "harmonic_p2": ["--gamma", "0.2", "--k", "0.75"],
    "binomial": ["--p", "1.5", "--gamma", "0.4", "--y", "2"],
    "subordination": ["--K", "5"],
}

_FAMILIES = (
    ["--family", "power"],
    ["--family", "even"],
    ["--family", "odd"],
    ["--family", "shifted-linear", "--start", "1"],
    ["--family", "shifted-linear", "--start", "2"],
    ["--family", "power-alpha", "--alpha", "1"],
    ["--family", "power-alpha", "--alpha", "2"],
    ["--family", "hypergeom", "--abc", "1.5,1,1"],
    ["--family", "hypergeom", "--abc", "0.5,1.5,2.5"],
)

_KIND_GRIDS = {
    "analytic": ["--p", "0.5:2:0.5", "--gamma", "0:0.6:0.3"],
    "harmonic": ["--p", "1:2:0.5", "--gamma", "0:0.5:0.5", "--k", "0:1:0.5"],
    "subordination": ["--k", "0:1:0.25"],
}
# |F - 1| of (0.5, 1.5; 2.5) stays below 1.36 on (0, 1), so larger p(1+gamma)
# have no root, and roots near 1 cost seconds
_SMALL_P_GRIDS = {
    "analytic": ["--p", "0.5:1:0.5", "--gamma", "0:0.6:0.3"],
    "harmonic": ["--p", "1", "--gamma", "0:0.5:0.5", "--k", "0:1:0.5"],
    "subordination": ["--k", "0:1:0.25"],
}
# one of each weight route: power rules, the custom tails and the Gauss series
_VERIFY_FAMILIES = (
    ["--family", "power"],
    ["--family", "even"],
    ["--family", "odd"],
    ["--family", "shifted-linear", "--start", "2"],
    ["--family", "power-alpha", "--alpha", "2"],
    ["--family", "hypergeom", "--abc", "1.5,1,1"],
    ["--family", "hypergeom", "--abc", "0.5,1.5,2.5"],
)
_VERIFY_FUNCTIONALS = (
    ["--functional", "refined", "--lambda", "one"],
    ["--functional", "refined", "--lambda", "zero"],
    ["--functional", "harmonic"],
    ["--functional", "subordination"],
)

DEMOS = (
    "boundary_geometry.py",
    "classical_radius.py",
    "harmonic_and_subordination.py",
    "refined_inequality.py",
    "weight_family_gallery.py",
)


def commands() -> list[list[str]]:
    """Every CLI argument list the transcript covers."""
    out = []
    for case, params in _CASES.items():
        out.append(["radius", "--case", case])
        out.append(["radius", "--case", case, *params])
        out.append(["radius", "--case", case, *params, "--format", "json"])
    for family in _FAMILIES:
        for kind in _KIND_GRIDS:
            out.append(["radius", "--kind", kind, *family, "--p", "1.5", "--gamma", "0.25", "--k", "0.5"])
    out.append(["radius", "--kind", "harmonic", "--family", "even", "--p", "0.75", "--k", "0.3", "--format", "json"])
    out.append(["radius", "--kind", "analytic", "--family", "odd", "--p", "1.25", "--gamma", "0.1", "--tol", "1e-6"])
    for family in _FAMILIES:
        grids = _SMALL_P_GRIDS if "0.5,1.5,2.5" in family else _KIND_GRIDS
        for kind, grid in grids.items():
            out.append(["table", "--kind", kind, *family, *grid])
    for p in ("1", "2", "1.5"):
        out.append(["table", "--kind", "harmonic", "--family", "power", "--p", p, "--gamma", "0:0.8:0.4", "--k", "0:1:0.25"])
    out.append(["table", "--kind", "subordination", "--family", "power", "--k", "0:1:0.125"])
    out.append(["table", "--family", "power", "--p", "1", "--gamma", "0:0.9:0.1"])
    out.append(["table", "--family", "power", "--p", "0.5:2:0.5", "--gamma", "0:0.2:0.1", "--format", "json"])
    for functional in ("refined", "harmonic", "subordination"):
        out.append(["verify", "--functional", functional, "--r", "0.3"])
        out.append(["verify", "--functional", functional, "--a", "0.99", "--k", "0.5", "--r", "0.4", "--lambda", "zero"])
    out.append(["verify", "--family", "even", "--a", "0.95", "--gamma", "0.3", "--p", "1.5", "--r", "0.55", "--format", "json"])
    out.append(["sharpness"])
    out.append(["sharpness", "--lambda", "zero", "--p", "1.5", "--gamma", "0.2"])
    out.append(["sharpness", "--functional", "harmonic", "--k", "0.5"])
    out.append(["sharpness", "--functional", "subordination", "--k", "0.3"])
    out.append(["sharpness", "--family", "even", "--p", "2", "--format", "json"])
    out.append(["sharpness", "--radius", "0.31", "--eps", "0.01"])
    out.append(["sharpness", "--functional", "harmonic", "--k", "1", "--a-grid", "0.9,0.999", "--eps", "0.02"])
    for family in _VERIFY_FAMILIES:
        for functional in _VERIFY_FUNCTIONALS:
            out.append(["verify", *family, *functional, "--r", "0.35"])
    for family in _VERIFY_FAMILIES:
        out.append(["sharpness", *family])
    for family in (_VERIFY_FAMILIES[4], _VERIFY_FAMILIES[5]):
        for functional in ("harmonic", "subordination"):
            out.append(["sharpness", *family, "--functional", functional])
    out.append(["boundary", "--gamma", "0", "--count", "8"])
    out.append(["boundary", "--gamma", "0.5", "--count", "8", "--format", "json"])
    out.append(["convolve", "--a", "2", "--b", "1", "--c", "1", "--coeffs", "1,1,1", "--n", "8"])
    out.append(["convolve", "--a", "0.5", "--b", "1.5", "--c", "2.5", "--coeffs", "1,-2,3,0.5", "--n", "8"])
    out.append(["convolve", "--a", "-3", "--b", "0.5", "--c", "1", "--coeffs", "1,1,1,1,1,1", "--n", "8", "--format", "json"])
    # failures: nothing on stdout, only the exit code
    out.append(["radius", "--kind", "analytic", "--gamma", "1.5"])
    out.append(["radius", "--case", "binomial", "--y", "-1"])
    out.append(["radius", "--kind", "analytic", "--family", "hypergeom", "--abc=-2.5,1,1"])
    out.append(["table", "--gamma", "0:0.9:0.1:7"])
    out.append(["verify", "--a", "1", "--r", "0.3"])
    out.append(["verify", "--family", "hypergeom", "--r", "0.3"])
    out.append(["verify", "--r", "1"])
    out.append(["verify", "--functional", "harmonic", "--k", "1.5", "--r", "0.3"])
    out.append(["sharpness", "--family", "hypergeom", "--abc=-2.5,1,1"])
    return out


def run_cli(argv: list[str]) -> tuple[int, str]:
    from bohrad.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def run_demo(name: str) -> tuple[int, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)], capture_output=True, text=True, env=env, cwd=ROOT
    )
    return proc.returncode, proc.stdout


def record() -> list[dict]:
    entries = []
    for argv in commands():
        code, stdout = run_cli(argv)
        entries.append({"argv": argv, "exit": code, "stdout": stdout})
    for name in DEMOS:
        code, stdout = run_demo(name)
        entries.append({"demo": name, "exit": code, "stdout": stdout})
    return entries


def _load() -> list[dict]:
    return json.loads(DATA.read_text(encoding="utf-8"))


def _id(entry: dict) -> str:
    return entry["demo"] if "demo" in entry else " ".join(entry["argv"])


GOLDEN = _load() if DATA.exists() else []


def test_transcript_covers_every_command():
    recorded = [e["argv"] for e in GOLDEN if "argv" in e]
    assert recorded == commands()
    assert [e["demo"] for e in GOLDEN if "demo" in e] == list(DEMOS)


@pytest.mark.parametrize("entry", [e for e in GOLDEN if "argv" in e], ids=_id)
def test_cli_output_is_unchanged(entry):
    assert run_cli(entry["argv"]) == (entry["exit"], entry["stdout"])


@pytest.mark.parametrize("entry", [e for e in GOLDEN if "demo" in e], ids=_id)
def test_demo_output_is_unchanged(entry):
    assert run_demo(entry["demo"]) == (entry["exit"], entry["stdout"])


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(commands())} commands and {len(DEMOS)} demos in {DATA}")
