import json

import numpy as np
import pytest

from drsplit.cli import main
from drsplit.puzzles import (
    QueensInstance,
    bundled_path,
    parse_sudoku,
    validate_sudoku,
)

from helpers import clue_grid, validate_queens

PUZZLE37 = str(bundled_path("9x9-37"))
PUZZLE4 = str(bundled_path("4x4"))


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSolve:
    def test_sdr_solves_bundled_sudoku(self, capsys, tmp_path):
        grid_out = tmp_path / "solved.txt"
        trace_out = tmp_path / "trace.csv"
        code, out, err = run_cli(
            capsys, "solve", "--puzzle", PUZZLE37, "--method", "sdr",
            "--seed", "0", "--out", str(grid_out), "--trace", str(trace_out))
        assert code == 0
        assert "outcome=feasible-found" in out
        inst = parse_sudoku(open(PUZZLE37).read())
        solved = parse_sudoku(grid_out.read_text())
        ok, _ = validate_sudoku(clue_grid(solved), inst)
        assert ok
        header = trace_out.read_text().splitlines()[0]
        assert header.startswith("k,z_step,z_res,x_res,u0_mismatch")

    def test_bundled_key_accepted_as_puzzle(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--puzzle", "4x4",
                               "--seed", "1")
        assert code == 0

    def test_ddr_stalls_with_exit_two(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--puzzle", PUZZLE37,
                               "--method", "ddr", "--gamma", "0.2")
        assert code == 2
        assert "outcome=stalled" in out

    def test_ddr_requires_gamma(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--puzzle", PUZZLE37,
                               "--method", "ddr")
        assert code == 1
        assert "gamma" in err

    def test_gamma_inf_sentinel_behaves_like_sdr(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--puzzle", PUZZLE37,
                               "--method", "ddr", "--gamma", "inf")
        assert code == 0

    def test_unknown_method_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--puzzle", PUZZLE37,
                               "--method", "newton")
        assert code == 1

    def test_parse_error_reports_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2 3 .\n. . x .\n. . . .\n4 . . .\n")
        code, _, err = run_cli(capsys, "solve", "--puzzle", str(bad))
        assert code == 1
        assert "line 2" in err

    def test_missing_instance_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "solve")
        assert code == 1

    def test_queens_solve(self, capsys, tmp_path):
        board_out = tmp_path / "board.txt"
        code, out, _ = run_cli(capsys, "solve", "--queens-size", "8",
                               "--seed", "0", "--out", str(board_out))
        assert code == 0
        board = np.array([[int(t) for t in line.split()]
                          for line in board_out.read_text().splitlines()])
        ok, _ = validate_queens(board, QueensInstance(8))
        assert ok

    def test_queens_size_below_minimum(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--queens-size", "3")
        assert code == 1

    def test_circle_line_ddr_converges(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--circle-line", "--method",
                               "ddr", "--gamma", "0.2")
        assert code == 0

    @pytest.mark.parametrize("flags", [
        ("--seed", "5"), ("--tie-break", "random"),
        ("--seed", "0", "--tie-break", "lowest")])
    @pytest.mark.parametrize("command", ["solve", "rates"])
    def test_circle_line_rejects_seed_and_tie_break(self, capsys, command,
                                                    flags):
        code, out, err = run_cli(capsys, command, "--circle-line", "--method",
                                 "ddr", "--gamma", "0.2", *flags)
        assert code == 1
        assert out == ""
        for flag in flags[::2]:
            assert flag in err

    def test_circle_line_sdr_fails(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--circle-line", "--method",
                               "sdr")
        assert code == 2
        assert "outcome=max-iter" in out

    def test_altproj_runs(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--puzzle", PUZZLE4,
                               "--method", "altproj", "--seed", "0")
        assert code in (0, 2)

    def test_switched_order_runs(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--puzzle", PUZZLE4,
                               "--method", "sdr-switched", "--seed", "0")
        assert code in (0, 2)

    def test_random_tie_break_accepted(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "--puzzle", PUZZLE4,
                             "--tie-break", "random", "--seed", "5")
        assert code == 0


class TestGammaOutsideDdr:
    """A gamma that no damped step would read is an error, not ignored."""

    @pytest.mark.parametrize("method", [[], ["--method", "sdr"],
                                        ["--method", "altproj"]])
    @pytest.mark.parametrize("command", [
        ["solve", "--puzzle", "9x9-37"], ["solve", "--circle-line"],
        ["bench", "--puzzle", PUZZLE4, "--runs", "1"],
        ["rates", "--puzzle", PUZZLE4], ["rates", "--queens-size", "5"]])
    def test_flag_is_rejected(self, capsys, command, method):
        code, out, err = run_cli(capsys, *command, *method, "--gamma", "0.2")
        assert code == 1 and out == ""
        assert "is undamped; --gamma would be ignored" in err

    def test_config_key_is_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=3\ngamma=0.2\n")
        for command in (["solve", "--puzzle", PUZZLE4],
                        ["bench", "--puzzle", PUZZLE4, "--runs", "1"]):
            code, out, err = run_cli(capsys, *command, "--config", str(cfg))
            assert code == 1 and out == ""
            assert "is undamped; --gamma would be ignored" in err
        # the file's gamma serves a --method ddr flag
        code, out, _ = run_cli(capsys, "solve", "--puzzle", PUZZLE4,
                               "--config", str(cfg), "--method", "ddr")
        assert code in (0, 2) and "outcome=" in out


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# damped run\nmethod=ddr\ngamma=0.2\nseed=3\n")
        code, out, _ = run_cli(capsys, "solve", "--puzzle", PUZZLE37,
                               "--config", str(cfg))
        assert code == 2                     # config made it a damped run
        code, out, _ = run_cli(capsys, "solve", "--puzzle", PUZZLE37,
                               "--config", str(cfg), "--method", "sdr")
        assert code == 0                     # explicit flag overrides config

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mehtod=sdr\n")
        code, _, err = run_cli(capsys, "solve", "--puzzle", PUZZLE4,
                               "--config", str(cfg))
        assert code == 1

    def test_repeated_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=1\n# the second seed\nseed = 2\n")
        code, out, err = run_cli(capsys, "solve", "--puzzle", "4x4",
                                 "--config", str(cfg))
        assert code == 1 and out == ""
        assert f"{cfg}:3:" in err and "'seed'" in err and "line 1" in err


class TestNegativeSeed:
    @pytest.mark.parametrize("command", [
        ["solve", "--queens-size", "8", "--seed", "-1"],
        ["bench", "--puzzle", "4x4", "--runs", "3", "--seed", "-5"],
        ["rates", "--puzzle", PUZZLE4, "--seed", "-2"],
        ["rates", "--queens-size", "8", "--seed", "-2"],
    ])
    def test_flag_is_named(self, capsys, monkeypatch, command):
        def unreachable(*args, **kwargs):
            raise AssertionError("a problem was built")
        monkeypatch.setattr("drsplit.cli.build_problem", unreachable)
        monkeypatch.setattr("drsplit.cli.bench_puzzle", unreachable)
        code, out, err = run_cli(capsys, *command)
        assert code == 1 and out == ""
        assert "--seed" in err and command[-1] in err

    def test_config_seed_takes_the_same_path(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -4\n")
        for command in (["solve", "--queens-size", "8"],
                        ["bench", "--puzzle", "4x4", "--runs", "3"]):
            code, out, err = run_cli(capsys, *command, "--config", str(cfg))
            assert code == 1 and out == ""
            assert "--seed" in err and "-4" in err


class TestMaxIterBelowTheFloor:
    """With no min_iter given, the default floor of 100 is cut to a
    smaller max_iter."""

    @pytest.mark.parametrize("command,line", [
        (["solve", "--puzzle", "4x4"], "outcome=feasible-found iterations=50"),
        (["bench", "--puzzle", "4x4", "--runs", "2"], "mean_iter=50.0"),
        (["rates", "--puzzle", "4x4"], "outcome=max-iter iterations=50"),
    ])
    def test_short_runs(self, capsys, command, line):
        code, out, err = run_cli(capsys, *command, "--max-iter", "50")
        assert code == 0 and err == ""
        assert line in out

    def test_config_max_iter(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_iter = 50\n")
        code, out, _ = run_cli(capsys, "solve", "--puzzle", "4x4",
                               "--config", str(cfg))
        assert code == 0 and "iterations=50 " in out

    @pytest.mark.parametrize("flags,config", [
        (["--min-iter", "60", "--max-iter", "50"], None),
        (["--max-iter", "50"], "min_iter = 60\n"),
        ([], "min_iter = 60\nmax_iter = 50\n"),
    ])
    def test_floor_above_max_iter_names_both_flags(self, capsys, tmp_path,
                                                   flags, config):
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            flags = flags + ["--config", str(tmp_path / "run.cfg")]
        code, out, err = run_cli(capsys, "solve", "--puzzle", "4x4", *flags)
        assert code == 1 and out == ""
        assert "--min-iter 60 is not in [0, --max-iter 50]" in err


class TestStopFlagsNameThemselves:
    """A stop flag out of range is rejected under its own name before any
    problem is built, not under the name of a `StopPolicy` field."""

    @pytest.mark.parametrize("command", [
        ["solve", "--puzzle", "4x4"],
        ["bench", "--puzzle", "4x4", "--runs", "2"],
        ["rates", "--puzzle", "4x4"],
        ["rates", "--queens-size", "8"],
    ])
    @pytest.mark.parametrize("flag,value,message", [
        ("--max-iter", "0", "--max-iter must be >= 1, got 0"),
        ("--max-iter", "-5", "--max-iter must be >= 1, got -5"),
        ("--tol", "-1", "--tol must be >= 0, got -1.0"),
        ("--tol", "nan", "--tol must be >= 0, got nan"),
    ])
    def test_flag_is_named(self, capsys, monkeypatch, command, flag, value,
                           message):
        def unreachable(*args, **kwargs):
            raise AssertionError("a problem was built")
        monkeypatch.setattr("drsplit.cli.build_problem", unreachable)
        monkeypatch.setattr("drsplit.cli.bench_puzzle", unreachable)
        code, out, err = run_cli(capsys, *command, flag, value)
        assert code == 1 and out == ""
        assert message in err
        assert "max_iter" not in err and "z_step_tol" not in err

    def test_circle_line_and_config_take_the_same_path(self, capsys,
                                                      tmp_path):
        code, out, err = run_cli(capsys, "solve", "--circle-line",
                                 "--tol", "-1")
        assert code == 1 and out == "" and "--tol must be >= 0" in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_iter = 0\n")
        code, out, err = run_cli(capsys, "solve", "--puzzle", "4x4",
                                 "--config", str(cfg))
        assert code == 1 and out == "" and "--max-iter must be >= 1" in err


class TestBenchCommand:
    def test_bench_writes_sorted_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "bench.csv"
        code, out, _ = run_cli(
            capsys, "bench", "--queens-size", "5", "--runs", "4",
            "--seed", "7", "--out", str(out_csv), "--workers", "1")
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "run_id,seed,outcome,iterations,wall_ms"
        seeds = [int(l.split(",")[1]) for l in lines[1:]]
        assert seeds == [7, 8, 9, 10]
        assert "success_rate=" in out
        assert "batch_wall_s=" in out

    def test_negative_workers_rejected(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "bench", "--queens-size", "5",
                                 "--runs", "2", "--workers", "-3")
        assert code == 1
        assert "--workers" in err and "-3" in err
        assert out == ""
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("workers = -1\n")
        code, _, err = run_cli(capsys, "bench", "--queens-size", "5",
                               "--runs", "2", "--config", str(cfg))
        assert code == 1 and "--workers" in err

    @pytest.mark.parametrize("runs", ["0", "-3"])
    def test_runs_below_one_are_named(self, capsys, monkeypatch, tmp_path,
                                      runs):
        def unreachable(*args, **kwargs):
            raise AssertionError("a batch was run")
        monkeypatch.setattr("drsplit.cli.bench_puzzle", unreachable)
        code, out, err = run_cli(capsys, "bench", "--puzzle", "4x4",
                                 "--runs", runs)
        assert code == 1 and out == ""
        assert f"--runs must be >= 1, got {runs}" in err
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"runs = {runs}\n")
        code, out, err = run_cli(capsys, "bench", "--puzzle", "4x4",
                                 "--config", str(cfg))
        assert code == 1 and out == ""
        assert f"--runs must be >= 1, got {runs}" in err

    def test_zero_workers_means_default(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--queens-size", "5",
                               "--runs", "2", "--workers", "0")
        assert code == 0
        assert "runs=2" in out


class TestRatesCommand:
    def test_rates_from_inline_solve(self, capsys, tmp_path):
        svg = tmp_path / "rate.svg"
        report = tmp_path / "rate.json"
        code, out, _ = run_cli(
            capsys, "rates", "--puzzle", PUZZLE4, "--method", "sdr",
            "--seed", "0", "--out", str(svg), "--report", str(report))
        assert code == 0
        assert "slope=" in out
        rec = json.loads(report.read_text())
        assert abs(rec["slope"] - np.sqrt(5.0) / 5.0) < 0.02
        assert rec["quantity"] == "z_res"
        assert "window" in rec and "r_squared" in rec
        assert abs(rec["deviation"]) < 0.02
        text = svg.read_text()
        assert 'id="theory-guide"' in text

    def test_ddr_theory_is_the_spectral_radius(self, capsys, tmp_path):
        # for gamma in (1, 5/4] gamma/(1+gamma) exceeds lam_plus
        report = tmp_path / "rate.json"
        code, out, _ = run_cli(
            capsys, "rates", "--puzzle", PUZZLE37, "--method", "ddr",
            "--gamma", "1.2", "--seed", "0", "--report", str(report))
        assert code == 0
        assert "theory=0.545455" in out
        rec = json.loads(report.read_text())
        assert abs(rec["deviation"]) < 1e-4

    def test_objective_theory_is_the_squared_rate(self, capsys, tmp_path):
        # half a squared distance decays at the square of the z rate
        svg, report = tmp_path / "rate.svg", tmp_path / "rate.json"
        code, out, _ = run_cli(
            capsys, "rates", "--puzzle", PUZZLE4, "--seed", "3",
            "--quantity", "objective", "--out", str(svg),
            "--report", str(report))
        assert code == 0
        assert "theory=0.200000 deviation=+0.001546" in out
        rec = json.loads(report.read_text())
        assert abs(rec["theory"] - 0.2) < 1e-12
        assert abs(rec["deviation"]) < 0.02
        assert ">theory 0.2000</text>" in svg.read_text()

    def test_objective_that_does_not_decay_has_no_rate(self, capsys,
                                                        tmp_path):
        # this ddr run stalls off the solution set: its objective levels
        # off at 20.8 and has no rate to fit
        report = tmp_path / "rate.json"
        code, out, err = run_cli(
            capsys, "rates", "--puzzle", "4x4", "--method", "ddr",
            "--gamma", "0.2", "--seed", "3", "--quantity", "objective",
            "--report", str(report))
        assert code == 2
        assert out == "outcome=stalled iterations=182\n"
        assert "objective ends at 20.8" in err
        assert not report.exists()

    def test_gamma_inf_has_the_sdr_theory(self, capsys, tmp_path):
        report = tmp_path / "rate.json"
        code, out, _ = run_cli(
            capsys, "rates", "--puzzle", "9x9-22", "--method", "ddr",
            "--gamma", "inf", "--seed", "2", "--report", str(report))
        assert code == 0
        assert "slope=0.447221" in out and "theory=0.447214" in out
        rec = json.loads(report.read_text())
        assert rec["theory"] == pytest.approx(np.sqrt(5.0) / 5.0, abs=1e-15)
        assert abs(rec["deviation"]) < 0.02

    def test_rates_from_trace_file(self, capsys, tmp_path):
        trace = tmp_path / "t.csv"
        code, _, _ = run_cli(capsys, "solve", "--puzzle", PUZZLE4,
                             "--seed", "0", "--run-to-stall",
                             "--trace", str(trace))
        assert code == 0
        code, out, _ = run_cli(capsys, "rates", "--trace", str(trace))
        assert code == 0
        assert "slope=" in out

    def test_insufficient_data_exits_two(self, capsys, tmp_path):
        trace = tmp_path / "flat.csv"
        rows = ["k,z_step,z_res,x_res,u0_mismatch,objective"]
        rows += [f"{k},1e-15,1e-15,1e-15,0,0.0" for k in range(1, 41)]
        trace.write_text("\n".join(rows) + "\n")
        code, _, err = run_cli(capsys, "rates", "--trace", str(trace))
        assert code == 2
        assert "insufficient" in err.lower()

    def test_queens_rates_report_termination_not_slope(self, capsys):
        code, out, _ = run_cli(capsys, "rates", "--queens-size", "8",
                               "--seed", "0")
        assert code == 0
        assert "finite termination" in out
        assert "K=" in out

    def test_queens_rates_writes_report(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        code, out, _ = run_cli(capsys, "rates", "--queens-size", "8",
                               "--seed", "0", "--report", str(report))
        assert code == 0
        rec = json.loads(report.read_text())
        assert rec["outcome"] == "feasible-found"
        assert f"iterations={rec['iterations']}" in out
        freeze = rec["finite_termination"]
        assert list(freeze) == ["z", "u0", "u1", "u2", "u3"]
        for block, k in freeze.items():
            assert f"{block} K={'none' if k is None else k}" in out
        assert all(isinstance(k, int) for k in freeze.values())  # all froze
        # the run stalls, at min_iter, before its iterate repeats
        assert rec["orbit_k"] is None and ", orbit_k=none\n" in out

    def test_queens_rates_report_the_closed_orbit(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        code, out, _ = run_cli(capsys, "rates", "--queens-size", "8",
                               "--seed", "2", "--max-iter", "300",
                               "--min-iter", "300", "--report", str(report))
        assert code == 0
        rec = json.loads(report.read_text())
        assert rec["iterations"] == 300
        assert rec["finite_termination"]["z"] == 55
        assert rec["orbit_k"] == 57 and "orbit_k=57" in out

    @pytest.mark.parametrize("flags, named", [
        (["--quantity", "x_res", "--tail-fraction", "0.9"],
         ["--quantity", "--tail-fraction"]),
        (["--tail-fraction", "auto"], ["--tail-fraction"]),
    ])
    def test_queens_rates_reject_fit_flags(self, capsys, flags, named):
        code, out, err = run_cli(capsys, "rates", "--queens-size", "8",
                                 *flags)
        assert code == 1
        assert err.startswith("error: ")
        assert all(flag in err for flag in named)
        assert out == ""  # rejected before running

    def test_bad_tail_fraction_rejected(self, capsys):
        for instance in (["--queens-size", "8"], ["--puzzle", PUZZLE4]):
            code, out, err = run_cli(capsys, "rates", *instance,
                                     "--tail-fraction", "banana")
            assert code == 1
            assert "banana" in err and out == ""

    @pytest.mark.parametrize("value", ["0", "1.5", "nan", "-0.1"])
    def test_tail_fraction_outside_range_rejected(self, capsys, tmp_path,
                                                  value):
        trace = tmp_path / "t.csv"
        run_cli(capsys, "solve", "--puzzle", PUZZLE4, "--seed", "0",
                "--run-to-stall", "--trace", str(trace))
        for source in (["--puzzle", PUZZLE4], ["--trace", str(trace)]):
            code, out, err = run_cli(capsys, "rates", *source,
                                     "--tail-fraction", value)
            assert code == 1 and out == ""   # rejected before running
            assert "--tail-fraction" in err and value in err

    def test_trace_rejects_run_flags(self, capsys, tmp_path):
        trace = tmp_path / "t.csv"
        run_cli(capsys, "solve", "--puzzle", PUZZLE4, "--seed", "0",
                "--run-to-stall", "--trace", str(trace))
        code, out, err = run_cli(capsys, "rates", "--trace", str(trace),
                                 "--queens-size", "8", "--method", "ddr",
                                 "--gamma", "0.2", "--seed", "5")
        assert code == 1
        for flag in ("--queens-size", "--method", "--gamma", "--seed"):
            assert flag in err
        assert out == ""
        code, _, err = run_cli(capsys, "rates", "--trace", str(trace),
                               "--circle-line", "--max-iter", "9",
                               "--seed", "0")
        assert code == 1
        for flag in ("--circle-line", "--max-iter", "--seed"):
            assert flag in err
        code, out, _ = run_cli(capsys, "rates", "--trace", str(trace),
                               "--quantity", "x_res", "--tail-fraction", "0.5")
        assert code == 0 and "quantity=x_res" in out

    def test_truncated_trace_is_an_input_error(self, capsys, tmp_path):
        trace = tmp_path / "t.csv"
        run_cli(capsys, "solve", "--puzzle", PUZZLE4, "--seed", "0",
                "--run-to-stall", "--trace", str(trace))
        lines = trace.read_text().splitlines()
        cut = ",".join(lines[-1].split(",")[:3])
        trace.write_text("\n".join(lines[:-1] + [cut]) + "\n")
        code, _, err = run_cli(capsys, "rates", "--trace", str(trace))
        assert code == 1
        assert err.startswith("error: ")
        assert f"{trace}:{len(lines)}:" in err


    def test_trace_field_that_is_not_a_number_is_named(self, capsys,
                                                        tmp_path):
        trace = tmp_path / "t.csv"
        run_cli(capsys, "solve", "--puzzle", PUZZLE4, "--seed", "0",
                "--run-to-stall", "--trace", str(trace))
        lines = trace.read_text().splitlines()
        fields = lines[2].split(",")
        fields[lines[0].split(",").index("u3_mismatch")] = "x"
        trace.write_text("\n".join(lines[:2] + [",".join(fields)]
                                   + lines[3:]) + "\n")
        code, out, err = run_cli(capsys, "rates", "--trace", str(trace))
        assert code == 1 and out == ""
        assert f"{trace}:3: column u3_mismatch: 'x' is not a number" in err


class TestAnglesCommand:
    def test_reports_friedrichs_and_spectrum(self, capsys):
        code, out, _ = run_cli(capsys, "angles", "--puzzle", PUZZLE4,
                               "--gamma", "0.2")
        assert code == 0
        assert "cos_friedrichs=0.44721359" in out
        assert "eigenvalue" in out
        assert "semi_simple=True" in out

    def test_nine_by_nine_needs_no_flag(self, capsys):
        code, out, _ = run_cli(capsys, "angles", "--puzzle", PUZZLE37)
        assert code == 0
        assert "free_coordinates=396" in out
        assert ("0 x333, 0.038701244025 x396, 0.166666666667 x2520, "
                "0.861298755975 x396") in out
        assert "eigenvalue check (model)" in out
        assert "semi_simple=True" in out

    def test_dominant_rate_above_gamma_one(self, capsys):
        # at gamma = 5/4 lam_minus = lam_plus = 1/3 is a Jordan pair, but
        # gamma/(1+gamma) = 5/9 dominates, and it is semi-simple
        code, out, _ = run_cli(capsys, "angles", "--puzzle", PUZZLE4,
                               "--gamma", "1.25")
        assert code == 0
        assert "dominant_rate=0.5555555555555556 semi_simple=True" in out

    def test_gamma_past_five_quarters_is_an_input_error(self, capsys):
        code, out, err = run_cli(capsys, "angles", "--puzzle", PUZZLE4,
                                 "--gamma", "1.3")
        assert code == 1
        assert out == ""
        assert "5/4" in err

    @pytest.mark.parametrize("gamma", ["2", "0", "-1", "nan", "inf"])
    def test_gamma_out_of_range_is_named(self, capsys, gamma):
        code, out, err = run_cli(capsys, "angles", "--puzzle", PUZZLE4,
                                 "--gamma", gamma)
        assert code == 1 and out == ""
        assert f"--gamma must lie in (0, 5/4], got {float(gamma)}" in err

    def test_fully_clued_grid_has_no_rate(self, capsys, tmp_path):
        solved = tmp_path / "solved.txt"
        solved.write_text("1 2 3 4\n3 4 1 2\n2 1 4 3\n4 3 2 1\n")
        code, out, err = run_cli(capsys, "angles", "--puzzle", str(solved))
        assert code == 1
        assert "free_coordinates=0" in out
        assert "no local rate" in err
        assert "coincide" not in err
