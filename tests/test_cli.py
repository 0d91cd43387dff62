"""Command-line interface: flags, CSV emission, exit codes."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import ifpclosed
from ifpclosed import checks, depletion_map, figures, special_functions
from ifpclosed.cli import _sweep_grid, main
from ifpclosed.consumption import consumption_approx_small_r, consumption_from_depletion_time
from ifpclosed.depletion_map import h_numeric, mu
from ifpclosed.figures import _bracket, _knot_assets, _log_steps, figure_rows
from ifpclosed.model_core import ModelParams, validate

FIG1 = validate(ModelParams(rho=0.08, r=0.01, gamma=0.5, y=3.0))


def parse_kv(text):
    out = {}
    for line in text.strip().splitlines():
        key, value = line.split("=", 1)
        out[key] = float(value)
    return out


def count_calls(monkeypatch, module, name):
    """Count calls of ``module.name`` through every ``ifpclosed`` binding of it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("ifpclosed") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def run_fresh(argv):
    """``main(argv)`` in a fresh interpreter, where a numpy warning prints to stderr."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ifpclosed.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = f"import sys\nfrom ifpclosed.cli import main\nsys.exit(main({argv!r}))\n"
    return subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestEval:
    def test_constrained_point(self, capsys):
        rc = main(["eval", "--rho", "0.08", "--gamma", "0.5", "--y", "3", "--r", "0", "--a", "0"])
        assert rc == 0
        vals = parse_kv(capsys.readouterr().out)
        assert vals["c"] == 3.0
        assert vals["T_exact_r0"] == 0.0 and vals["T_numeric"] == 0.0

    def test_figure_point(self, capsys):
        rc = main(["eval", "--rho", "0.08", "--gamma", "0.5", "--y", "3", "--r", "0", "--a", "3"])
        assert rc == 0
        vals = parse_kv(capsys.readouterr().out)
        assert vals["c"] == pytest.approx(5.031, abs=1e-3)
        assert vals["T_exact_r0"] == pytest.approx(3.2313503660228153, rel=1e-12)
        assert vals["dc_da"] == pytest.approx(0.3963311740927596, rel=1e-12)
        assert vals["d2c_dady"] > 0.0 > vals["d2c_da2"]

    def test_near_the_constraint(self, capsys):
        # a > 0 however small is off the branch point: the MPC is finite, and T is the oracle's
        rc = main(["eval", "--r", "0", "--a", "1e-14"])
        assert rc == 0
        vals = parse_kv(capsys.readouterr().out)
        assert vals["T_exact_r0"] == pytest.approx(vals["T_numeric"], rel=1e-14)
        assert math.isfinite(vals["dc_da"]) and vals["dc_da"] > 0.0

    def test_values_round_trip_17_digits(self, capsys):
        main(["eval", "--r", "0", "--a", "3"])
        out = capsys.readouterr().out
        from ifpclosed.depletion_map import h_closed_r0

        p = validate(ModelParams(0.08, 0.0, 0.5, 3.0))
        for line in out.splitlines():
            if line.startswith("T_exact_r0="):
                assert float(line.split("=")[1]) == h_closed_r0(p, 3.0).T

    def test_impatience_violation_exits_2(self, capsys):
        rc = main(["eval", "--rho", "0.08", "--r", "0.08", "--a", "1"])
        assert rc == 2
        assert "impatience" in capsys.readouterr().err

    def test_time_argument(self, capsys):
        rc = main(["eval", "--r", "0", "--a", "3", "--t", "1000"])
        assert rc == 0
        assert parse_kv(capsys.readouterr().out)["c"] == 3.0

    @pytest.mark.parametrize(
        "flags",
        [["--r", "0", "--a", "nan"], ["--r", "0.01", "--a", "nan"],
         ["--r", "0.01", "--a", "inf"], ["--r", "0", "--a", "3", "--t", "-1"]],
    )
    def test_bad_point_prints_nothing(self, flags, capsys):
        rc = main(["eval", *flags])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_assets_near_double_range(self, capsys):
        rc = main(["eval", "--r", "0.01", "--a", "1e300"])
        assert rc == 0
        vals = parse_kv(capsys.readouterr().out)
        assert all(math.isfinite(v) for v in vals.values())
        assert abs(mu(FIG1, vals["T_numeric"]) - 1e300) <= 1e-12 * 1e300

    def test_derivatives_finite_at_huge_assets(self, capsys):
        assert main(["eval", "--r", "0", "--a", "1e300"]) == 0
        out = capsys.readouterr().out
        assert "nan" not in out and "inf" not in out
        assert parse_kv(out)["d2c_dy2"] < 0.0

    def test_income_mpc_finite_at_tiny_income(self, capsys):
        # a/y = 1e308: the true dc/dy is q*log1p(-v) ~ 707
        assert main(["eval", "--r", "0", "--y", "1e-8", "--a", "1e300"]) == 0
        assert parse_kv(capsys.readouterr().out)["dc_dy"] == pytest.approx(707.3636271784178, rel=1e-14)

    def test_huge_assets_converge(self, capsys):
        assert main(["eval", "--r", "0", "--a", "3e152"]) == 0
        T = parse_kv(capsys.readouterr().out)["T_numeric"]
        assert abs(mu(validate(ModelParams(0.08, 0.0, 0.5, 3.0)), T) - 3e152) <= 1e-12 * 3e152

    def test_consumption_past_the_double_range_exits_2(self, capsys):
        # T = 506.4 is finite, but c = y*e^((rho-r)T/gamma) is not
        rc = main(["eval", "--gamma", "0.05", "--r", "0.01", "--a", "1.7e308"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and "overflows a double" in captured.err

    @pytest.mark.parametrize("r", ["0", "0.01"])
    def test_assets_past_the_range_of_mu_exit_2(self, r, capsys):
        rc = main(["eval", "--r", r, "--y", "0.01", "--a", "1e308"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "past the range of mu" in captured.err

    @pytest.mark.parametrize("r", ["0", "0.01"])
    @pytest.mark.parametrize("a", ["0", "3"])
    def test_one_kernel_call_per_point(self, r, a, monkeypatch, capsys):
        # T_exact_r0, T_approx_small_r and the derivatives all come from one branch offset
        calls = count_calls(monkeypatch, special_functions, "wm1_neg_exp_offset")
        assert main(["eval", "--r", r, "--a", a]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "flags",
        [["--rho", "inf", "--r", "0"], ["--gamma", "inf", "--r", "0"], ["--y", "inf", "--r", "0"],
         ["--rho", "nan", "--r", "0.01"], ["--r", "inf"]],
    )
    def test_non_finite_parameter_prints_nothing(self, flags, capsys):
        rc = main(["eval", *flags, "--a", "3"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and "finite" in captured.err


class TestSweep:
    def test_consumption_monotone_on_log_grid(self, capsys):
        rc = main(
            ["sweep", "c", "--r", "0", "--a-min", "0.003", "--a-max", "3000",
             "--n", "100", "--spacing", "log"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "a,c"
        assert len(lines) == 101
        cs = [float(line.split(",")[1]) for line in lines[1:]]
        assert np.all(np.diff(cs) > 0.0)

    def test_jacobian_column_decreasing_toward_limit(self, tmp_path):
        out = tmp_path / "jac.csv"
        rc = main(
            ["sweep", "c", "jacobian", "--r", "0", "--a-min", "0.003", "--a-max", "3000",
             "--n", "60", "--spacing", "log", "--out", str(out)]
        )
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["a", "c", "dc_da", "dc_dy"]
        dc_da = [float(r[2]) for r in rows]
        assert np.all(np.diff(dc_da) < 0.0)
        assert dc_da[-1] > 0.16 and dc_da[-1] == pytest.approx(0.16, abs=5e-3)

    def test_hessian_cross_entries_positive(self, tmp_path):
        out = tmp_path / "hes.csv"
        rc = main(
            ["sweep", "hessian", "--r", "0", "--a-min", "0.01", "--a-max", "100",
             "--n", "40", "--spacing", "log", "--out", str(out)]
        )
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["a", "d2c_da2", "d2c_dady", "d2c_dy2"]
        assert all(float(r[2]) > 0.0 for r in rows)

    def test_derivatives_demand_zero_rate(self, capsys):
        rc = main(["sweep", "jacobian", "--r", "0.01", "--a-min", "1", "--a-max", "2", "--n", "5"])
        assert rc == 2
        assert "r = 0" in capsys.readouterr().err

    def test_derivatives_demand_positive_assets(self, capsys):
        rc = main(["sweep", "jacobian", "--r", "0", "--a-min", "0", "--a-max", "2", "--n", "5"])
        assert rc == 2

    def test_log_spacing_demands_positive_min(self, capsys):
        rc = main(["sweep", "c", "--a-min", "0", "--a-max", "2", "--n", "5", "--spacing", "log"])
        assert rc == 2

    def test_overflowing_exponent_offset_exits_2(self, capsys):
        rc = main(["sweep", "c", "T", "--r", "0", "--y", "0.001",
                   "--a-min", "1e305", "--a-max", "1.7e308", "--n", "3"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "overflows" in captured.err

    def test_huge_assets_write_nothing_to_stderr(self, tmp_path):
        # sweep rows are numpy scalars, which warn on stderr for any overflowing intermediate
        out = run_fresh(["sweep", "c", "T", "jacobian", "hessian", "--r", "0", "--y", "0.001",
                         "--a-min", "1e200", "--a-max", "1e300", "--n", "3",
                         "--out", str(tmp_path / "s.csv")])
        assert out.returncode == 0 and out.stderr == ""
        _, rows = read_csv(tmp_path / "s.csv")
        assert len(rows) == 3 and all(math.isfinite(float(x)) for row in rows for x in row)

    def test_n_too_small(self, capsys):
        rc = main(["sweep", "c", "--a-min", "0", "--a-max", "2", "--n", "1"])
        assert rc == 2

    def test_infinite_bound_exits_2(self, capsys):
        rc = main(["sweep", "c", "--a-max", "inf", "--n", "5"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_one_kernel_call_per_row_at_zero_rate(self, monkeypatch, capsys):
        calls = count_calls(monkeypatch, special_functions, "wm1_neg_exp_offset")
        rc = main(["sweep", "c", "T", "jacobian", "hessian", "--r", "0", "--a-min", "0.003",
                   "--a-max", "3000", "--n", "50", "--spacing", "log"])
        assert rc == 0
        assert len(calls) == 50

    def test_one_inversion_per_row_at_positive_rate(self, monkeypatch, capsys):
        calls = count_calls(monkeypatch, depletion_map, "h_numeric")
        rc = main(["sweep", "c", "T", "--r", "0.01", "--a-min", "0.003", "--a-max", "3000",
                   "--n", "50", "--spacing", "log"])
        assert rc == 0
        assert len(calls) == 50

    def test_no_partial_file_on_validation_error(self, tmp_path):
        out = tmp_path / "never.csv"
        rc = main(
            ["sweep", "jacobian", "--r", "0.01", "--a-min", "1", "--a-max", "2",
             "--n", "5", "--out", str(out)]
        )
        assert rc == 2
        assert not out.exists()


class TestFigure:
    def test_figure1_structure(self, tmp_path):
        out = tmp_path / "fig1.csv"
        rc = main(["figure", "--which", "1", "--n", "101", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["a_over_y", "c_discrete_over_y", "c_unconstrained_over_y", "knot_flag"]
        assert len(rows) == 101

    def test_figure1_knot_rows_on_policy(self, tmp_path):
        out = tmp_path / "fig1.csv"
        main(["figure", "--which", "1", "--n", "101", "--out", str(out)])
        _, rows = read_csv(out)
        growth = math.exp(_log_steps(FIG1, 1.0)[0])
        knots = _knot_assets(FIG1, 1.0, np.arange(_bracket(FIG1, 1.0, np.array([10.0 * FIG1.y]))[0][0] + 2.0))
        knot_rows = [r for r in rows if r[3] == "1"]
        assert len(knot_rows) >= 5
        for row in knot_rows:
            a = float(row[0]) * FIG1.y
            k = int(np.argmin(np.abs(knots - a)))
            assert a == pytest.approx(float(knots[k]), abs=1e-12)
            assert float(row[1]) * FIG1.y == pytest.approx(FIG1.y * growth**k, rel=1e-12)

    def test_figure1_gap_at_constraint(self, tmp_path):
        out = tmp_path / "fig1.csv"
        main(["figure", "--which", "1", "--n", "51", "--out", str(out)])
        _, rows = read_csv(out)
        assert float(rows[0][0]) == 0.0
        gap = float(rows[0][2]) - float(rows[0][1])
        assert gap * FIG1.y >= 0.1 * FIG1.y

    def test_figure1_snaps_a_copy_of_the_grid(self):
        grid = _sweep_grid(0.0, 10.0 * FIG1.y, 101)
        before = grid.copy()
        _, rows = figure_rows(FIG1, 1, grid, 1.0)
        assert np.array_equal(grid, before)
        assert any(row[3] == 1 for row in rows)  # knots were snapped, into a copy

    def test_figure1_starts_at_the_constraint(self, capsys):
        # a snap loop over a moving grid dragged this row to a/y = 0.0279
        rc = main(["figure", "--which", "1", "--delta", "0.25"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[1] == "0,1,15,1"

    def test_figure1_rows_stay_near_their_grid_points(self):
        # knots denser than the grid: each row moves at most half a step
        p = validate(ModelParams(rho=0.08, r=0.02, gamma=0.5, y=3.0))
        grid = _sweep_grid(0.0, 30000.0, 201)
        _, rows = figure_rows(p, 1, grid, 0.003)
        a = np.array([row[0] for row in rows]) * p.y
        assert np.all(np.abs(a - grid) <= 0.5 * (grid[1] - grid[0]))
        assert np.all(np.diff(a) > 0.0)

    def test_figure1_grid_without_knots_is_unchanged(self):
        grid = _sweep_grid(29.0, 30.0, 3)
        _, rows = figure_rows(FIG1, 1, grid, 1.0)
        assert [row[0] for row in rows] == (grid / FIG1.y).tolist()
        assert [row[3] for row in rows] == [0, 0, 0]

    def test_figure1_snaps_as_with_every_knot(self, monkeypatch):
        # figure_rows reads only the two knots around each grid point; the full-knot rule
        # is the reference, on random knots and grids, integer-valued ones included for ties
        def snap_with_every_knot(grid, knots):
            grid = grid.copy()
            knots = knots[(knots >= grid[0]) & (knots <= grid[-1])]
            upper = np.searchsorted(grid, knots)
            lower = np.maximum(upper - 1, 0)
            nominee = np.where(knots - grid[lower] <= grid[upper] - knots, lower, upper)
            closest = np.lexsort((np.abs(grid[nominee] - knots), nominee))
            moved, first = np.unique(nominee[closest], return_index=True)
            grid[moved] = knots[closest[first]]
            return grid, np.bincount(moved, minlength=grid.size)

        def around(params, delta, a):  # the search's (k, m_k, m_(k+1)), on the drawn knots
            k = np.searchsorted(knots, a, side="right") - 1
            return k.astype(float), knots[k], knots[k + 1]

        p = validate(ModelParams(rho=0.08, r=0.01, gamma=0.5, y=1.0))  # rows are a exactly
        rng = np.random.default_rng(7)
        knots = None
        monkeypatch.setattr(figures, "_bracket", around)
        for trial in range(600):
            draw = rng.integers if trial % 2 else rng.uniform
            grid = np.unique(draw(0, 60, rng.integers(2, 25)).astype(float))
            knots = np.unique(np.append(draw(0, 80, rng.integers(1, 60)), [0, 80]).astype(float))
            if grid.size < 2:
                continue
            _, rows = figure_rows(p, 1, grid, 1.0)
            snapped, flags = snap_with_every_knot(grid, knots)
            assert [row[0] for row in rows] == snapped.tolist()
            assert [row[3] for row in rows] == flags.tolist()

    def test_figure1_requires_positive_rate(self, capsys):
        rc = main(["figure", "--which", "1", "--r", "0"])
        assert rc == 2

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_figure1_non_finite_delta_prints_nothing(self, delta, capsys):
        rc = main(["figure", "--which", "1", "--r", "0.01", "--delta", delta])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and "finite delta" in captured.err

    @pytest.mark.parametrize("delta,shown", [("0", "0.0"), ("nan", "nan")])
    def test_figure1_bad_delta_names_the_option(self, delta, shown, capsys):
        rc = main(["figure", "--which", "1", "--r", "0.01", "--delta", delta])
        assert rc == 2
        assert capsys.readouterr().err == f"error: need finite delta > 0, got delta={shown}\n"

    def test_figure2_structure(self, tmp_path):
        out = tmp_path / "fig2.csv"
        rc = main(["figure", "--which", "2", "--n", "41", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["a_over_y", "c_closed_approx_over_y", "c_numeric_over_y"]
        assert len(rows) == 41
        for row in rows[1:]:
            assert float(row[1]) == pytest.approx(float(row[2]), rel=0.05)

    def test_two_point_sweep(self, tmp_path):
        out = tmp_path / "fig2.csv"
        rc = main(["figure", "--which", "2", "--n", "2", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 2

    def test_deterministic_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["figure", "--which", "2", "--n", "31", "--out", str(out1)])
        main(["figure", "--which", "2", "--n", "31", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_round_trips_doubles(self, tmp_path):
        out = tmp_path / "fig2.csv"
        main(["figure", "--which", "2", "--n", "11", "--out", str(out)])
        _, rows = read_csv(out)
        _, expected = figure_rows(FIG1, 2, _sweep_grid(0.0, 10.0 * FIG1.y, 11), 1.0)
        for row, exp in zip(rows, expected):
            assert float(row[1]) == exp[1]
            assert float(row[2]) == exp[2]

    @pytest.mark.parametrize("spacing,a_min", [("linear", 0.0), ("log", 1e-6)])
    def test_figure2_columns_match_the_per_row_scalar_calls(self, spacing, a_min):
        # the closed form is one array call and c from the numeric T's another; each value
        # is within the array kernel's agreement of the scalar call on its row
        grid = _sweep_grid(a_min, 10.0 * FIG1.y, 201, spacing)
        _, rows = figure_rows(FIG1, 2, grid, 1.0)
        for a, (_, c_closed, c_numeric) in zip(grid.tolist(), rows):
            closed = consumption_approx_small_r(FIG1, a) / FIG1.y
            numeric = consumption_from_depletion_time(FIG1, h_numeric(FIG1, a).T) / FIG1.y
            assert abs(c_closed - closed) <= checks._ARRAY_AGREEMENT * closed
            assert abs(c_numeric - numeric) <= checks._ARRAY_AGREEMENT * numeric

    @pytest.mark.parametrize("which", ["1", "2"])
    def test_ratio_past_the_double_range_exits_2(self, which, tmp_path, capsys):
        # a/y at a = 5e305, y = 0.001 is past the double range: no inf row
        out = tmp_path / "f.csv"
        rc = main(["figure", "--which", which, "--r", "0.01", "--y", "0.001",
                   "--a-min", "0", "--a-max", "1e306", "--n", "3", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == "" and not out.exists()
        assert captured.err.startswith(f"error: figure {which}: a_over_y overflows a double at a=")

    def test_figure1_past_the_double_range_raises_without_a_warning(self):
        # the knots' growth and grid / y overflow on the way to the a_over_y ValueError;
        # with warnings as errors, a RuntimeWarning would be raised first
        p = validate(ModelParams(rho=0.08, r=0.01, gamma=0.5, y=0.001))
        with pytest.raises(ValueError, match="a_over_y overflows a double at a="):
            figure_rows(p, 1, np.linspace(0.0, 1e306, 3), 1.0)

    def test_figure2_rows_are_python_floats(self, monkeypatch):
        # numpy-scalar rows warned in h_numeric's seed before the a_over_y ValueError
        calls = count_calls(monkeypatch, depletion_map, "h_numeric")
        p = validate(ModelParams(rho=0.08, r=0.01, gamma=0.5, y=0.001))
        with pytest.raises(ValueError, match="a_over_y overflows a double at a=5e[+]305"):
            figure_rows(p, 2, np.linspace(0.0, 1e306, 3), 1.0)
        assert [type(args[1]) for args in calls] == [float, float, float]

    def test_unknown_figure(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["figure", "--which", "3"])
        assert err.value.code == 2


class TestCheck:
    def test_prints_every_row_of_the_suite(self, capsys):
        rc = main(["check"])
        lines = capsys.readouterr().out.splitlines()
        rows = checks.run_level("full")
        assert rc == 0
        assert len(rows) == 37
        assert [line.split()[1] for line in lines[:-1]] == [r.name for r in rows]
        assert all(line.startswith("PASS  ") for line in lines[:-1])
        assert lines[-1] == "PASS: 37/37 checks"

    def test_every_measured_value_is_a_python_float(self):
        # a numpy scalar would print as np.float64(...) in a repr of the row
        rows = checks.run_level("full")
        assert [r.name for r in rows if type(r.measured) is not float] == []
        assert len(rows) == 37

    def test_unknown_level_exits_2(self, capsys):
        # one suite: check takes no --level, not even the old "full"
        with pytest.raises(SystemExit) as err:
            main(["check", "--level", "full"])
        assert err.value.code == 2
        assert capsys.readouterr().out == ""

    def test_only_the_full_suite_exists(self):
        with pytest.raises(ValueError, match="unknown check level 'quick'"):
            checks.run_level("quick")

    def test_broken_tolerance_fails(self, monkeypatch):
        monkeypatch.setattr(checks, "_RESIDUAL_TOL", 1e-30)
        results = checks.check_lambert_kernel()
        assert [r.name for r in results if not r.passed] == [
            "lambert.wm1_residual", "lambert.array_residual"]

    def test_failed_check_exits_1(self, monkeypatch, capsys):
        fake = [checks.CheckResult("forced.failure", 1.0, 0.5, False)]
        monkeypatch.setattr(checks, "run_level", lambda level: fake)
        rc = main(["check"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_invalid_params_exit_2(self, capsys):
        # check runs on its own pinned parameters, so model flags are usage errors
        with pytest.raises(SystemExit) as err:
            main(["check", "--rho", "0.01", "--r", "0.02"])
        assert err.value.code == 2
        assert capsys.readouterr().out == ""


class TestRuleCheckedOnce:
    """Errors raised by the library function that owns the rule, not by a CLI copy of it."""

    @pytest.mark.parametrize(
        "argv",
        [["eval", "--r", "0", "--a", "inf"],
         ["sweep", "jacobian", "--r", "0.01", "--a-min", "1", "--a-max", "2", "--n", "5"],
         ["sweep", "jacobian", "--r", "0", "--a-min", "0", "--a-max", "2", "--n", "5"],
         ["figure", "--which", "1", "--r", "0"],
         ["figure", "--which", "1", "--r", "0.01", "--delta", "1e-15", "--n", "5"],
         ["eval", "--r", "0", "--y", "1e-300", "--a", "1e-312"],
         ["sweep", "jacobian", "hessian", "--r", "0", "--y", "1e-300",
          "--a-min", "1e-312", "--a-max", "1e-300", "--n", "3"]],
    )
    def test_exit_2_writes_nothing(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        out = ["--out", "f.csv"] if argv[0] != "eval" else []
        rc = main([*argv, *out])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [["sweep", "jacobian", "hessian", "--r", "0", "--y", "1e-300",
      "--a-min", "1e-312", "--a-max", "1e-300", "--n", "3"],
     ["sweep", "c", "T", "--r", "0", "--y", "0.001", "--a-min", "1e305", "--a-max", "1.7e308",
      "--n", "3"],
     ["figure", "--which", "2", "--y", "0.001", "--a-min", "1e305", "--a-max", "1.7e308",
      "--n", "3"],
     # gamma*y underflows to 0: a ValueError from the parameters, before any row
     ["sweep", "c", "T", "--r", "0", "--gamma", "1e-200", "--y", "1e-200", "--n", "3",
      "--a-max", "1"],
     # mu's scale gamma*y/B overflows though gamma*y = 1e308 does not (unchecked, T read 2.6e-169)
     ["sweep", "c", "T", "--r", "1e-300", "--gamma", "1e154", "--y", "1e154",
      "--a-min", "1", "--a-max", "3", "--n", "2"],
     ["eval", "--r", "0", "--gamma", "1e154", "--y", "1e154", "--a", "3"],
     # gamma/B overflows (unchecked, the closed-form T read inf)
     ["eval", "--rho", "1e-300", "--r", "0", "--gamma", "1e10", "--y", "1e-10", "--a", "3"],
     # B = r*(gamma - 1) + rho overflows (unchecked, h_numeric read a = 3 as past mu's range)
     ["eval", "--rho", "1e301", "--r", "1e300", "--gamma", "1e10", "--y", "1", "--a", "3"],
     ["sweep", "c", "T", "--rho", "1e301", "--r", "1e300", "--gamma", "1e10", "--y", "1",
      "--a-min", "1", "--a-max", "3", "--n", "2"]],
)
def test_exit_2_writes_only_the_error_line(argv):
    # each of these rows could print a numpy warning before its ValueError
    out = run_fresh(argv)
    assert out.returncode == 2 and out.stdout == ""
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


class TestIoErrors:
    def test_unwritable_path_exits_1(self, capsys):
        rc = main(
            ["figure", "--which", "2", "--n", "3", "--out", "/nonexistent-dir/f.csv"]
        )
        assert rc == 1
        assert "I/O" in capsys.readouterr().err
