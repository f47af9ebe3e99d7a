import json
import os

import numpy as np
import pytest

from codseries import cli
from codseries.cli import main
from codseries.expressions import Expression
from codseries.grids import Grid, GridFunction, write_csv


def run(args):
    return main(args)


class TestOscillatorCommand:
    def test_basic_run(self, tmp_path):
        code = run(["oscillator", "--omega-sq", "1-0.5*sin(t)", "--t-max", "1",
                    "--a", "1", "--b", "0", "--tol", "1e-10",
                    "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "oscillator_report.json").read_text())
        assert report["stop_reason"] == "converged"
        assert report["two_term_gap"] <= 0.0273
        assert report["oracle_sup_error"] <= 1e-5
        assert report["oracle_error_estimate"] <= 1e-9
        assert report["oracle_substeps"] == 2
        solution = (tmp_path / "oscillator_solution.csv").read_text().splitlines()
        assert solution[0] == "t,f_re,f_im,oracle_re,oracle_im"
        terms = (tmp_path / "oscillator_terms.csv").read_text().splitlines()
        assert terms[0] == "n,term_sup_norm,term_bound"

    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["oscillator", "--omega-sq", "1", "--step", "1e-2",
                "--tol", "1e-8"]
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out-dir", str(dir_a)]) == 0
        assert run(args + ["--out-dir", str(dir_b)]) == 0
        for name in ("oscillator_solution.csv", "oscillator_terms.csv",
                     "oscillator_report.json"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_from_csv_input(self, tmp_path):
        grid = Grid.from_interval(0.0, 1.0, 101)
        write_csv(GridFunction(grid, np.ones(101)), tmp_path / "w2.csv")
        code = run(["oscillator", "--from-csv", str(tmp_path / "w2.csv"),
                    "--out-dir", str(tmp_path)])
        assert code == 0

    def test_from_csv_complex_w2_reaches_the_oracle(self, tmp_path):
        # the oracle once interpolated only the real part: error 6.4e-2
        grid = Grid.from_interval(0.0, 1.0, 1001)
        w2 = 1.0 + 0.5j * np.sin(grid.points())
        write_csv(GridFunction(grid, w2), tmp_path / "w2.csv")
        code = run(["oscillator", "--from-csv", str(tmp_path / "w2.csv"),
                    "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "oscillator_report.json").read_text())
        assert report["oracle_sup_error"] <= 1e-6

    def test_conditions_off_the_grid_start_skip_the_oracle(self, tmp_path):
        # the RK4 oracle needs both conditions at the grid start; it once ran
        # anyway and ended the run with a solver error
        code = run(["oscillator", "--omega-sq", "1", "--t-a", "0.5",
                    "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "oscillator_report.json").read_text())
        assert not {"oracle_sup_error", "oracle_error_estimate", "oracle_substeps"} & set(report)
        rows = np.loadtxt(tmp_path / "oscillator_solution.csv", delimiter=",", skiprows=1)
        assert np.isnan(rows[:, 3:]).all()
        # f'' + f = 0 with f(0.5) = 1, f'(0.5) = 0
        assert np.max(np.abs(rows[:, 1] - np.cos(rows[:, 0] - 0.5))) <= 1e-6

    def test_fine_step_accepts_linear_generating_function(self, tmp_path):
        # the round-off of the second difference of 1 + t at step 1e-4 once
        # failed the generating-function check: exit 1
        assert run(["oscillator", "--b", "1", "--step", "1e-4",
                    "--out-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "oscillator_report.json").read_text())
        assert report["oracle_sup_error"] <= 1e-8

    def test_config_file_merged_and_overridden(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("omega-sq = 1\nstep = 1e-2  # coarse\nmax-terms = 3\n")
        code = run(["oscillator", "--config", str(config), "--tol", "1e-12",
                    "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "oscillator_report.json").read_text())
        assert report["terms_used"] <= 3

    def test_unknown_config_key(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("frequency = 1\n")
        assert run(["oscillator", "--config", str(config)]) == 3


SUBCOMMAND_FLAGS = {
    "oscillator": cli._OSC_FLAGS,
    "power-series": cli._POWER_FLAGS,
    "exp-potential": cli._EXP_FLAGS,
    "stationary": cli._STATIONARY_FLAGS,
    "tdse": cli._TDSE_FLAGS,
    "wave": cli._WAVE_FLAGS,
}


NUMERIC_KEYS = [(command, key) for command, flags in sorted(SUBCOMMAND_FLAGS.items())
                for key, (_, convert) in flags.items() if convert is not cli._text]


class TestArgumentErrors:
    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
    def test_every_default_passes_its_converter(self, command):
        for key, (default, convert) in SUBCOMMAND_FLAGS[command].items():
            if default is not None:
                convert(key, default)

    @pytest.mark.parametrize("value", ["abc", "nan"])
    @pytest.mark.parametrize("command, key", NUMERIC_KEYS)
    def test_malformed_value_exits_3_before_any_file(self, tmp_path, capsys, command, key,
                                                     value):
        # wave --snapshot abc once exited 3 only after writing three files
        code = run([command, "--" + key.replace("_", "-"), value,
                    "--out-dir", str(tmp_path / "out")])
        assert code == 3
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_flags_a_csv_run_ignores_are_still_checked(self, tmp_path):
        # --step and --t-max are unused beside --from-csv; this once exited 0
        grid = Grid.from_interval(0.0, 1.0, 11)
        write_csv(GridFunction(grid, np.ones(11)), tmp_path / "w2.csv")
        for flag, value in (("--step", "abc"), ("--t-max", "-3")):
            assert run(["oscillator", "--from-csv", str(tmp_path / "w2.csv"), flag, value,
                        "--out-dir", str(tmp_path / "out")]) == 3
        assert not (tmp_path / "out").exists()

    def test_unknown_flag(self):
        assert run(["oscillator", "--frequency", "1"]) == 3

    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
    def test_flags_are_the_defaults_keys(self, command):
        parsed = vars(cli._build_parser().parse_args([command]))
        dests = set(parsed) - {"command", "handler"}
        assert dests == set(SUBCOMMAND_FLAGS[command]) | {"config"}
        assert run([command, "--frequency", "1"]) == 3

    def test_unknown_command(self):
        assert run(["oscillate"]) == 3

    def test_bad_expression(self, tmp_path):
        assert run(["oscillator", "--omega-sq", "sin(q)",
                    "--out-dir", str(tmp_path)]) == 3

    @pytest.mark.parametrize("text, message", [
        ("(" * 1200 + "1" + ")" * 1200, "nested too deeply to parse"),
        ("2^" * 1200 + "1", "nested too deeply to parse"),
        ("+".join(["1"] * 3000), "nests 2999 operations deep"),  # parses, then recursed
    ], ids=["parens", "powers", "sum"])
    def test_deeply_nested_expression_exits_3(self, tmp_path, capsys, text, message):
        # once a solver error (exit 1): maximum recursion depth exceeded
        code = run(["oscillator", "--omega-sq", text, "--out-dir", str(tmp_path / "out")])
        assert code == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, message", [
        ("1/0", "divides by zero"), ("10^400", "overflows"), ("0^-1", "divides by zero"),
    ])
    def test_constant_arithmetic_error_exits_3(self, tmp_path, capsys, text, message):
        # once an uncaught ZeroDivisionError or OverflowError
        code = run(["oscillator", "--omega-sq", text, "--out-dir", str(tmp_path / "out")])
        assert code == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_number(self, tmp_path):
        assert run(["oscillator", "--tol", "abc", "--out-dir", str(tmp_path)]) == 3

    @pytest.mark.parametrize("flag, value", [
        ("--tol", "inf"), ("--tol", "nan"), ("--t-max", "inf"), ("--t-a", "nan"),
        ("--a", "nan"), ("--b", "1+infj"),
    ])
    def test_non_finite_number(self, tmp_path, flag, value):
        assert run(["oscillator", flag, value, "--step", "1e-2",
                    "--out-dir", str(tmp_path)]) == 3
        assert not (tmp_path / "oscillator_report.json").exists()

    def test_nonpositive_step(self, tmp_path):
        assert run(["oscillator", "--step", "-0.1", "--out-dir", str(tmp_path)]) == 3

    def test_off_grid_condition_point(self, tmp_path):
        assert run(["oscillator", "--t-a", "0.0003", "--step", "1e-2",
                    "--out-dir", str(tmp_path)]) == 3


class TestFromCsvErrors:
    """Every --from-csv reader maps an unusable file to exit 3 with a message."""

    COMMANDS = {
        "oscillator": ["oscillator"],
        "stationary": ["stationary"],
        "wave": ["wave", "--x-size", "4", "--t-size", "11"],
    }
    FILES = {
        "missing": None,
        "non-uniform": "x,re,im\n0,1,0\n0.1,1,0\n0.5,1,0\n0.6,1,0\n",
        "malformed": "x,re,im\n0,1,0\n0.1,one,0\n",
        "two-columns": "x,re\n0,1\n0.1,1\n",
        "one-row": "x,re,im\n0,1,0\n",
        # non-finite samples once reached the solvers and exited 1
        "nan-value": "x,re,im\n0,1,0\n0.1,nan,0\n0.2,1,0\n0.3,1,0\n",
        "inf-imaginary": "x,re,im\n0,1,0\n0.1,1,inf\n0.2,1,0\n0.3,1,0\n",
        "nan-x": "x,re,im\n0,1,0\n0.1,1,0\n0.2,1,0\nnan,1,0\n",
    }

    @pytest.mark.filterwarnings("ignore:invalid value")  # 1j * inf
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("kind", sorted(FILES))
    def test_unusable_file_exits_3(self, tmp_path, capsys, command, kind):
        path = tmp_path / "profile.csv"
        if self.FILES[kind] is not None:
            path.write_text(self.FILES[kind])
        code = run(self.COMMANDS[command] + ["--from-csv", str(path),
                                             "--out-dir", str(tmp_path / "out")])
        assert code == 3
        assert "cannot read profile" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestPowerSeriesCommand:
    def test_inequality_column_all_true(self, tmp_path):
        code = run(["power-series", "--alpha", "1", "--terms", "25",
                    "--t-max", "2", "--out-dir", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "power_series.csv").read_text().splitlines()
        assert lines[0] == "t,f,upper_estimate,below_upper"
        assert all(line.endswith(",true") for line in lines[1:])

    def test_alpha_validation(self, tmp_path):
        assert run(["power-series", "--alpha", "-1.5",
                    "--out-dir", str(tmp_path)]) == 3


class TestExpPotentialCommand:
    def test_residual_column(self, tmp_path):
        code = run(["exp-potential", "--m", "1", "--amplitude", "1",
                    "--step", "5e-3", "--out-dir", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "exp_potential.csv").read_text().splitlines()
        assert lines[0] == "x,psi_re,psi_im,residual_abs"
        residuals = [float(line.split(",")[3]) for line in lines[1:]]
        assert max(residuals) <= 1e-3

    def test_zero_m_rejected(self, tmp_path):
        assert run(["exp-potential", "--m", "0", "--out-dir", str(tmp_path)]) == 3


class TestStationaryCommand:
    def test_laplace_run(self, tmp_path):
        code = run(["stationary", "--potential", "0.01*cos(x)", "--energy", "0",
                    "--variant", "laplace", "--out-dir", str(tmp_path)])
        assert code == 0
        meta = json.loads((tmp_path / "stationary_field.json").read_text())
        assert meta["shape"] == [64]
        report = json.loads((tmp_path / "stationary_report.json").read_text())
        assert report["stop_reason"] == "converged"

    def test_resolvent_with_delta_source(self, tmp_path):
        code = run(["stationary", "--potential", "0.1*cos(x)", "--energy", "-0.5",
                    "--variant", "resolvent", "--source", "delta",
                    "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "stationary_report.json").read_text())
        assert report["defect_sup_norm"] <= 1e-6

    def test_divergence_exit_code(self, tmp_path):
        code = run(["stationary", "--potential", "5*cos(x)", "--energy", "-0.5",
                    "--variant", "resolvent", "--source", "delta",
                    "--max-terms", "60", "--out-dir", str(tmp_path)])
        assert code == 2

    def test_unconverged_max_terms_run_exits_2(self, tmp_path, capsys):
        # terms grow about 1.34x per term, below the divergence test's 10x
        # over 5 terms; this run once exited 0 with a defect of 1.5e23
        code = run(["stationary", "--dims", "2", "--size", "64", "--variant", "resolvent",
                    "--source", "delta", "--energy", "-0.5",
                    "--potential", "0.8*(cos(x)+cos(y))", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "no convergence in 200 terms" in capsys.readouterr().err
        report = json.loads((tmp_path / "stationary_report.json").read_text())
        assert report["stop_reason"] == "max_terms"
        assert report["terms_used"] == 200

    def test_max_terms_run_with_shrinking_terms_exits_0(self, tmp_path, capsys):
        code = run(["stationary", "--potential", "0.1*cos(x)", "--variant", "resolvent",
                    "--source", "delta", "--max-terms", "3", "--out-dir", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "stationary_report.json").read_text())
        assert report["stop_reason"] == "max_terms"

    def test_real_data_writes_exact_zero_imaginary_parts(self, tmp_path):
        assert run(["stationary", "--dims", "2", "--size", "8", "--variant", "resolvent",
                    "--source", "delta", "--potential", "0.1*cos(x)*sin(y)",
                    "--out-dir", str(tmp_path)]) == 0
        rows = (tmp_path / "stationary_field.csv").read_text().split()
        assert all(value == "0" for row in rows for value in row.split(",")[1::2])

    def test_complex_generating_constant_runs_complex(self, tmp_path):
        assert run(["stationary", "--size", "8", "--energy", "-0.1", "--psi-g-const", "1+0.5j",
                    "--potential", "0.1*cos(x)", "--out-dir", str(tmp_path)]) == 0
        rows = (tmp_path / "stationary_field.csv").read_text().split()[1:]
        assert all(float(row.split(",")[2]) != 0.0 for row in rows)

    @pytest.mark.parametrize("imaginary, dtype", [(0.0, np.float64), (0.25, np.complex128)])
    def test_from_csv_profile_is_real_when_its_imaginary_column_is_zero(
            self, tmp_path, monkeypatch, imaginary, dtype):
        grid = Grid.periodic(0.0, 2.0 * np.pi, 8)
        write_csv(GridFunction(grid, 0.1 * np.cos(grid.points()) + 1j * imaginary),
                  tmp_path / "u.csv")
        seen = []
        build = cli.build_stationary_scheme
        monkeypatch.setattr(cli, "build_stationary_scheme",
                            lambda potential, *rest: seen.append(potential.values.dtype)
                            or build(potential, *rest))
        assert run(["stationary", "--from-csv", str(tmp_path / "u.csv"), "--energy", "-0.1",
                    "--out-dir", str(tmp_path / "out")]) == 0
        assert seen == [dtype]

    def test_2d_run(self, tmp_path):
        code = run(["stationary", "--dims", "2", "--size", "16",
                    "--potential", "0.01*(cos(x)+cos(y))", "--energy", "0",
                    "--variant", "laplace", "--out-dir", str(tmp_path)])
        assert code == 0
        meta = json.loads((tmp_path / "stationary_field.json").read_text())
        assert meta["shape"] == [16, 16]

    @pytest.mark.parametrize("size", ["63", "2"])
    def test_bad_size_exit_code(self, tmp_path, size):
        assert run(["stationary", "--size", size, "--out-dir", str(tmp_path)]) == 3

    def test_odd_size_from_csv_exit_code(self, tmp_path):
        grid = Grid.periodic(0.0, 2.0 * np.pi, 63)
        write_csv(GridFunction(grid, np.zeros(63)), tmp_path / "u.csv")
        assert run(["stationary", "--from-csv", str(tmp_path / "u.csv"),
                    "--out-dir", str(tmp_path)]) == 3

    def test_from_csv_must_start_at_zero(self, tmp_path, capsys):
        # a profile sampled from -pi once ran with its first row labelled x = 0
        grid = Grid.periodic(-np.pi, 2.0 * np.pi, 16)
        write_csv(GridFunction(grid, 0.1 * np.cos(grid.points())), tmp_path / "u.csv")
        assert run(["stationary", "--from-csv", str(tmp_path / "u.csv"),
                    "--out-dir", str(tmp_path / "out")]) == 3
        assert "must start at 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_from_csv_starting_at_zero_runs(self, tmp_path):
        grid = Grid.periodic(0.0, 2.0 * np.pi, 16)
        write_csv(GridFunction(grid, 0.1 * np.cos(grid.points())), tmp_path / "u.csv")
        # at the default E = -0.5 this laplace series does not converge (exit 2)
        assert run(["stationary", "--from-csv", str(tmp_path / "u.csv"), "--energy", "-0.1",
                    "--out-dir", str(tmp_path)]) == 0
        first = (tmp_path / "stationary_field.csv").read_text().splitlines()[1]
        assert float(first.split(",")[0]) == 0.0

    def test_resolvent_nonzero_generating_exit_code(self, tmp_path, capsys):
        # a constant is not annihilated by 2E + Laplacian: a solver error
        assert run(["stationary", "--variant", "resolvent", "--psi-g-const", "1",
                    "--out-dir", str(tmp_path)]) == 1
        assert "not annihilated" in capsys.readouterr().err

    def test_bad_variant(self, tmp_path):
        assert run(["stationary", "--variant", "quantum",
                    "--out-dir", str(tmp_path)]) == 3


class TestTdseCommand:
    def test_free_packet_run(self, tmp_path):
        code = run(["tdse", "--size", "16", "--box", "20", "--dt", "0.05",
                    "--t-final", "0.2", "--terms", "3",
                    "--out-dir", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "tdse_steps.jsonl").read_text().splitlines()
        assert len(lines) == 4
        record = json.loads(lines[-1])
        assert set(record) == {"step", "t", "norm", "drift"}
        assert record["drift"] <= 1e-6
        final = (tmp_path / "tdse_final.csv").read_text().splitlines()
        assert final[0] == "x,re,im"
        assert len(final) == 17

    def test_unstable_run_exit_code(self, tmp_path):
        code = run(["tdse", "--size", "16", "--box", "20",
                    "--potential", "1000", "--dt", "0.01", "--t-final", "0.1",
                    "--out-dir", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize("potential, vector_potential, calls", [
        ("0.5*x^2", "0", 2),         # both sampled once per run
        ("0.5*x^2", "0.1*t", 2 + 10 * 5),   # A at 5 sub-nodes of 10 steps
        ("0.5*x^2*t", "0", 2 + 10 * 5),
    ])
    def test_t_free_profiles_are_sampled_once(self, tmp_path, monkeypatch,
                                              potential, vector_potential, calls):
        count = [0]
        evaluate = Expression.__call__

        def counted(self, **env):
            count[0] += 1
            return evaluate(self, **env)

        monkeypatch.setattr(Expression, "__call__", counted)
        assert run(["tdse", "--size", "16", "--potential", potential,
                    "--vector-potential", vector_potential, "--dt", "0.01",
                    "--t-final", "0.1", "--out-dir", str(tmp_path)]) == 0
        assert count[0] == calls

    @pytest.mark.filterwarnings("ignore:divide by zero", "ignore:invalid value")
    @pytest.mark.parametrize("flag, value", [("--potential", "t/x"),
                                             ("--vector-potential", "1/t")])
    def test_non_finite_t_dependent_profile_exits_3(self, tmp_path, capsys, flag, value):
        # once a solver error (exit 1) after the first step
        code = run(["tdse", "--size", "16", flag, value, "--out-dir", str(tmp_path / "out")])
        assert code == 3
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_later_profile_exits_3_naming_t(self, tmp_path, capsys):
        # finite at t = 0 and infinite at t = 0.05: once a solver error (exit
        # 1) after numpy RuntimeWarnings
        code = run(["tdse", "--size", "16", "--vector-potential", "0*(1/(t-0.05))",
                    "--dt", "0.01", "--t-final", "0.1", "--out-dir", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert "vector potential must be finite at t = 0.05" in err
        assert "Warning" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("flags, message", [
        # once solver errors (exit 1), the sigma one after numpy RuntimeWarnings
        (["--dt", "0.3", "--t-final", "1.0"], "t_final must be a positive multiple of dt"),
        (["--sigma", "1e-300"], "--x0 0, --sigma 1e-300"),
        (["--x0", "1e6"], "--x0 1e+06, --sigma 1"),
        # once exit 0: a far tail normalized into a unit state, and a packet
        # with 8% of its mass cut off by the box [-10, 10)
        (["--x0", "36", "--t-final", "0.1"], "--x0 36, --sigma 1"),
        (["--x0", "9"], "--x0 9, --sigma 1"),
    ])
    def test_bad_packet_or_horizon_exits_3_before_any_file(self, tmp_path, capsys,
                                                          flags, message):
        code = run(["tdse", *flags, "--out-dir", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert message in err
        assert "Warning" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("t_final", ["0.1", "1.0"])  # FFT recurrence; assembled D
    def test_overflowing_t_free_run_is_a_solver_error_without_warnings(self, tmp_path,
                                                                       capsys, t_final):
        code = run(["tdse", "--size", "16", "--potential", "1e200*x^2", "--dt", "1e-2",
                    "--t-final", t_final, "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "non-finite values in propagation step" in err
        assert "Warning" not in err

    @pytest.mark.filterwarnings("ignore:divide by zero")
    def test_non_finite_t_free_potential_exits_3(self, tmp_path, capsys):
        # x = 0 is a grid point of the default box
        code = run(["tdse", "--size", "16", "--potential", "1/x",
                    "--out-dir", str(tmp_path)])
        assert code == 3
        assert "finite" in capsys.readouterr().err


class TestWaveCommand:
    def test_standing_wave_with_snapshot(self, tmp_path):
        code = run(["wave", "--epsilon", "1", "--s-init", "sin(x)",
                    "--r-init", "0", "--x-size", "16", "--t-max", "1",
                    "--t-size", "101", "--snapshot", "0.5",
                    "--out-dir", str(tmp_path)])
        assert code == 0
        field_lines = (tmp_path / "wave_field.csv").read_text().splitlines()
        assert len(field_lines) == 101
        meta = json.loads((tmp_path / "wave_field.json").read_text())
        assert meta["x_count"] == 16 and meta["t_count"] == 101
        snap = (tmp_path / "wave_snapshot.csv").read_text().splitlines()
        assert snap[0] == "x,re,im"
        report = json.loads((tmp_path / "wave_report.json").read_text())
        assert report["stop_reason"] == "converged"

    def test_fine_time_step_accepts_linear_initial_data(self, tmp_path):
        # S + t R at t step 1.25e-4 once failed the generating-function
        # check on round-off: exit 3
        assert run(["wave", "--r-init", "sin(x)", "--t-max", "0.05", "--t-size", "401",
                    "--x-size", "16", "--out-dir", str(tmp_path)]) == 0

    def test_divergence_exit_and_warning(self, tmp_path, capsys):
        code = run(["wave", "--epsilon", "1", "--s-init", "sin(x)",
                    "--x-size", "32", "--t-max", "3", "--t-size", "601",
                    "--max-terms", "60", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "shorten the time window" in capsys.readouterr().err

    def test_snapshot_must_be_on_grid(self, tmp_path, capsys):
        # the snapshot time was once resolved after the field and report were written
        assert run(["wave", "--x-size", "16", "--t-size", "101",
                    "--snapshot", "0.5001", "--out-dir", str(tmp_path)]) == 3
        assert "limit not on grid" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_from_csv_on_the_box_grid(self, tmp_path):
        x_grid = Grid.periodic(0.0, 2.0 * np.pi, 16)
        write_csv(GridFunction(x_grid, 1.0 + 0.2 * np.cos(x_grid.points())),
                  tmp_path / "eps.csv")
        assert run(["wave", "--from-csv", str(tmp_path / "eps.csv"), "--x-size", "16",
                    "--t-size", "51", "--t-max", "0.5", "--out-dir", str(tmp_path)]) == 0

    @pytest.mark.parametrize("grid", [
        Grid(0.0, 0.5, 16),                       # right count, wrong step
        Grid(0.1, 2.0 * np.pi / 16, 16),          # right step, shifted start
        Grid.periodic(0.0, 2.0 * np.pi, 15),      # wrong count
    ])
    def test_from_csv_off_the_box_grid_exits_3(self, tmp_path, capsys, grid):
        # a 16-row profile at step 0.5 once ran as if sampled at step 2 pi / 16
        write_csv(GridFunction(grid, np.ones(grid.count)), tmp_path / "eps.csv")
        assert run(["wave", "--from-csv", str(tmp_path / "eps.csv"), "--x-size", "16",
                    "--t-size", "51", "--t-max", "0.5",
                    "--out-dir", str(tmp_path / "out")]) == 3
        assert "must be the box grid" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_permittivity_rejected(self, tmp_path):
        assert run(["wave", "--epsilon", "cos(x)", "--x-size", "16",
                    "--t-size", "51", "--out-dir", str(tmp_path)]) == 3


class TestVerifyCommand:
    def test_quick_table(self, capsys):
        assert run(["verify", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "criteria passed" in out
        assert "FAIL" not in out
