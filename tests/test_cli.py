"""Command-line behavior: formats, grids, exit codes, determinism."""

from __future__ import annotations

import csv
import io
import json
import subprocess
import sys

import pytest

from bohrad.cli import main


def run_csv(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, list(csv.DictReader(io.StringIO(out)))


class TestRadius:
    def test_classical_case_runs_both_routes(self, capsys):
        code, rows = run_csv(capsys, ["radius", "--case", "classical"])
        assert code == 0
        assert len(rows) == 1
        row = rows[0]
        assert float(row["value_closed"]) == pytest.approx(1.0 / 3.0, abs=1e-11)
        assert float(row["value_bisect"]) == pytest.approx(1.0 / 3.0, abs=1e-11)
        assert float(row["delta"]) <= 1e-10

    def test_twelve_significant_digits(self, capsys):
        code, rows = run_csv(capsys, ["radius", "--case", "classical"])
        assert rows[0]["value_closed"] == "0.333333333333"

    def test_explicit_family_bisection_only(self, capsys):
        code, rows = run_csv(
            capsys, ["radius", "--kind", "analytic", "--family", "even", "--p", "1", "--gamma", "0"]
        )
        assert code == 0
        assert rows[0]["value_closed"] == ""
        assert float(rows[0]["value_bisect"]) == pytest.approx(0.5773502691896258, abs=1e-10)

    def test_json_single_object(self, capsys):
        code = main(["radius", "--case", "subordination", "--K", "3", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value_closed"] == pytest.approx(0.25, abs=1e-10)
        assert payload["case"] == "subordination"


class TestTable:
    def test_gamma_sweep_matches_closed_form(self, capsys):
        code, rows = run_csv(
            capsys, ["table", "--family", "power", "--p", "1", "--gamma", "0:0.9:0.1"]
        )
        assert code == 0
        assert len(rows) == 10
        for row in rows:
            gamma = float(row["gamma"])
            assert float(row["value_closed"]) == pytest.approx((1 + gamma) / (3 + gamma), abs=1e-10)
            assert row["mismatch"] == "ok"

    def test_grid_endpoint_hit_is_included(self, capsys):
        code, rows = run_csv(capsys, ["table", "--family", "power", "--p", "1:2:0.5", "--gamma", "0"])
        assert [float(r["p"]) for r in rows] == [1.0, 1.5, 2.0]

    def test_harmonic_sweep_has_no_mismatch(self, capsys):
        code, rows = run_csv(
            capsys,
            ["table", "--kind", "harmonic", "--family", "power", "--p", "1", "--gamma", "0:0.8:0.2", "--k", "0:1:0.25"],
        )
        assert code == 0
        assert len(rows) == 25
        assert all(r["mismatch"] == "ok" for r in rows)

    def test_json_rows_wrapper(self, capsys):
        code = main(["table", "--family", "power", "--p", "1", "--gamma", "0:0.2:0.1", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["rows"]) == 3


class TestVerify:
    def test_passes_below_radius(self, capsys):
        code, rows = run_csv(capsys, ["verify", "--a", "0.9", "--r", "0.3"])
        assert code == 0
        assert rows[0]["pass"] == "yes"
        assert float(rows[0]["value"]) <= float(rows[0]["threshold"])

    def test_fails_past_extremal_onset(self, capsys):
        # for a=0.9 the onset is 1/(1+2a) = 0.357..., so r=0.4 must violate
        code, rows = run_csv(capsys, ["verify", "--a", "0.9", "--r", "0.4", "--lambda", "zero"])
        assert code == 0
        assert rows[0]["pass"] == "no"

    def test_subordination_threshold_uses_distance(self, capsys):
        code, rows = run_csv(
            capsys, ["verify", "--functional", "subordination", "--k", "0", "--r", "0.333333"]
        )
        assert code == 0
        assert float(rows[0]["threshold"]) == pytest.approx(0.5, abs=1e-12)
        assert rows[0]["pass"] == "yes"


class TestSharpness:
    def test_witness_found_just_past_radius(self, capsys):
        code, rows = run_csv(capsys, ["sharpness", "--p", "1", "--gamma", "0", "--eps", "0.01"])
        assert code == 0
        row = rows[0]
        assert row["found"] == "yes"
        assert float(row["witness_a"]) <= 0.9999
        assert float(row["functional_value"]) > float(row["threshold"])

    def test_no_witness_with_radius_pulled_back(self, capsys):
        code, rows = run_csv(capsys, ["sharpness", "--radius", "0.31", "--eps", "0.01"])
        assert code == 0
        assert rows[0]["found"] == "no"
        assert rows[0]["witness_a"] == ""


class TestBoundary:
    def test_unit_circle_cardinals(self, capsys):
        code, rows = run_csv(capsys, ["boundary", "--gamma", "0", "--count", "4"])
        assert code == 0
        got = [(float(r["x"]), float(r["y"])) for r in rows]
        want = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
        for (gx, gy), (wx, wy) in zip(got, want):
            assert gx == pytest.approx(wx, abs=1e-12)
            assert gy == pytest.approx(wy, abs=1e-12)


class TestConvolve:
    def test_binomial_series_times_ones(self, capsys):
        code, rows = run_csv(
            capsys, ["convolve", "--a", "2", "--b", "1", "--c", "1", "--coeffs", "1,1,1", "--n", "3"]
        )
        assert code == 0
        assert [float(r["series_coefficient"]) for r in rows] == [1.0, 2.0, 3.0, 4.0]
        assert [float(r["product"]) for r in rows] == [1.0, 2.0, 3.0, 0.0]

    def test_large_index_does_not_overflow(self, capsys):
        mpmath = pytest.importorskip("mpmath")
        code, rows = run_csv(
            capsys, ["convolve", "--a", "0.5", "--b", "1", "--c", "1", "--coeffs", "1", "--n", "99"]
        )
        assert code == 0
        assert len(rows) == 100
        want = mpmath.rf(0.5, 99) / mpmath.factorial(99)
        assert rows[99]["series_coefficient"] == f"{float(want):.12g}"
        assert float(rows[99]["series_coefficient"]) == pytest.approx(float(want), rel=1e-11)

    def test_nonpositive_integer_c_is_rejected(self, capsys):
        code = main(["convolve", "--a", "1", "--b", "1", "--c", "0", "--coeffs", "1"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_terminating_series_before_zero_of_c(self, capsys):
        code, rows = run_csv(
            capsys, ["convolve", "--a=-1", "--b", "1", "--c=-2", "--coeffs", "1,1,1,1", "--n", "3"]
        )
        assert code == 0
        assert [float(r["series_coefficient"]) for r in rows] == [1.0, 0.5, 0.0, 0.0]


class TestPlumbing:
    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "radius.csv"
        code = main(["radius", "--case", "classical", "--output", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        text = target.read_text(encoding="utf-8")
        assert "value_closed" in text

    def test_output_file_unwritable_path(self, capsys, tmp_path):
        target = tmp_path / "missing" / "radius.csv"
        code = main(["radius", "--case", "classical", "--output", str(target)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_byte_identical_reruns(self, capsys):
        main(["table", "--family", "power", "--p", "0.5:2:0.5", "--gamma", "0:0.8:0.4"])
        first = capsys.readouterr().out
        main(["table", "--family", "power", "--p", "0.5:2:0.5", "--gamma", "0:0.8:0.4"])
        second = capsys.readouterr().out
        assert first == second

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["conjure"]) == 1

    def test_validation_error_exits_one(self, capsys):
        assert main(["radius", "--kind", "analytic", "--gamma", "1.5"]) == 1
        assert "error" in capsys.readouterr().err

    def test_numerical_failure_exits_two(self, capsys):
        # sign-mixed Gauss coefficients violate the same-sign hypothesis
        code = main(["radius", "--kind", "analytic", "--family", "hypergeom", "--abc=-2.5,1,1"])
        assert code == 2
        assert "failure" in capsys.readouterr().err

    def test_bad_grid_spec_exits_one(self, capsys):
        assert main(["table", "--gamma", "0:0.9:0.1:7"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bohrad", "radius", "--case", "classical"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "0.333333333333" in proc.stdout
