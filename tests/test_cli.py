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

    @pytest.mark.parametrize("value", ["", ".", "tmp_path"])
    def test_puzzle_that_is_not_a_file_is_named(self, capsys, tmp_path,
                                                value):
        # an empty value is not read as the path "."
        value = str(tmp_path) if value == "tmp_path" else value
        message = f"error: {value!r} is neither a bundled key"
        code, out, err = run_cli(capsys, "solve", "--puzzle", value)
        assert code == 1 and out == "" and err.startswith(message)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"puzzle = {value}\n")
        code, out, err = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 1 and out == "" and err.startswith(message)

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

    @pytest.mark.parametrize("flags,text", [
        (["--puzzle", "4x4", "--seed", "1"],
         "1 2 3 4\n3 4 2 1\n2 1 4 3\n4 3 1 2\n"),
        (["--queens-size", "8", "--seed", "0"],
         "".join(" ".join("1" if j == col else "0" for j in range(8)) + "\n"
                 for col in (7, 2, 0, 5, 1, 4, 6, 3))),
        # the pair's candidate is the step's x, written with repr
        (["--circle-line", "--method", "ddr", "--gamma", "0.2"],
         "-0.4099776105601249 0.9120955864596763\n"),
    ])
    def test_out_writes_the_candidate_text(self, capsys, tmp_path, flags,
                                           text):
        out_file = tmp_path / "solution.txt"
        code, out, _ = run_cli(capsys, "solve", *flags, "--out",
                               str(out_file))
        assert code == 0
        assert out.endswith(f"\nsolution written to {out_file}\n")
        assert out_file.read_text() == text

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

    @pytest.mark.parametrize("line,choices", [
        ("method=foo", "'sdr', 'ddr', 'sdr-switched', 'altproj'"),
        ("tie_break=Random", "'lowest', 'random'")])
    def test_bad_choice_names_the_line(self, capsys, monkeypatch, tmp_path,
                                       line, choices):
        def unreachable(*args, **kwargs):
            raise AssertionError("a problem was built")
        monkeypatch.setattr("drsplit.cli.build_problem", unreachable)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = 1\n{line}\n")
        code, out, err = run_cli(capsys, "solve", "--puzzle", "4x4",
                                 "--config", str(cfg))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {cfg}:2: argument --")
        assert f"invalid choice: '{line.split('=')[1]}'" in err
        assert f"(choose from {choices})" in err

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
        ["solve", "--puzzle", "4x4", "--method", "ddr"],
        ["bench", "--puzzle", "4x4", "--runs", "2", "--method", "ddr"],
        ["rates", "--puzzle", "4x4", "--method", "ddr"],
        ["rates", "--queens-size", "8", "--method", "ddr"],
        ["solve", "--circle-line", "--method", "ddr"],
    ])
    @pytest.mark.parametrize("flag,value,message", [
        ("--max-iter", "0", "--max-iter must be >= 1, got 0"),
        ("--max-iter", "-5", "--max-iter must be >= 1, got -5"),
        ("--tol", "-1", "--tol must be >= 0, got -1.0"),
        ("--tol", "nan", "--tol must be >= 0, got nan"),
        ("--tol", "-1e-3", "--tol must be >= 0, got -0.001"),
        ("--tol", "-2.5E+1", "--tol must be >= 0, got -25.0"),
        ("--gamma", "0", "--gamma must be > 0, got 0.0"),
        ("--gamma", "-1e-3", "--gamma must be > 0, got -0.001"),
        ("--gamma", "nan", "--gamma must be > 0, got nan"),
        ("--gamma", "-1", "--gamma must be > 0, got -1.0"),
        ("--seed", "-1", "--seed must be >= 0, got -1"),
        ("--seed", "x", "argument --seed: invalid int value: 'x'"),
        ("--queens-size", "3", "--queens-size must be >= 4, got 3"),
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

    @pytest.mark.parametrize("command,line,message", [
        (command, line, message)
        for command in (["solve", "--puzzle", "4x4", "--method", "ddr"],
                        ["bench", "--puzzle", "4x4", "--method", "ddr"])
        for line, message in [
            ("gamma = 0", "--gamma must be > 0, got 0.0"),
            ("gamma = nan", "--gamma must be > 0, got nan"),
            ("gamma = -1", "--gamma must be > 0, got -1.0"),
            ("gamma = -1e-3", "--gamma must be > 0, got -0.001"),
            ("seed = -1", "--seed must be >= 0, got -1"),
            ("seed = x", "argument --seed: invalid int value: 'x'"),
            ("max_iter = 0", "--max-iter must be >= 1, got 0"),
            ("max-iter = -5", "--max-iter must be >= 1, got -5"),
            ("tol = -1e-3", "--tol must be >= 0, got -0.001"),
            ("tol = nan", "--tol must be >= 0, got nan"),
            ("queens_size = 3", "--queens-size must be >= 4, got 3"),
        ]] + [
        (["bench", "--puzzle", "4x4"], "runs = 0",
         "--runs must be >= 1, got 0"),
        (["bench", "--puzzle", "4x4"], "workers = -1",
         "--workers must be >= 0 (0 for the default), got -1"),
        (["bench", "--puzzle", "4x4"], "workers = 1.5",
         "argument --workers: invalid int value: '1.5'"),
    ])
    def test_config_line_reads_as_its_flag(self, capsys, monkeypatch,
                                           tmp_path, command, line, message):
        def unreachable(*args, **kwargs):
            raise AssertionError("a problem was built")
        monkeypatch.setattr("drsplit.cli.build_problem", unreachable)
        monkeypatch.setattr("drsplit.cli.bench_puzzle", unreachable)
        key, value = (part.strip() for part in line.split("="))
        flag = f"--{key.replace('_', '-')}={value}"
        assert run_cli(capsys, *command, flag) == (1, "",
                                                   f"error: {message}\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# checked as {flag}\n{line}\n")
        assert run_cli(capsys, *command, "--config", str(cfg)) == (
            1, "", f"error: {cfg}:2: {message}\n")


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

    @pytest.mark.parametrize("method,theory", [
        ("sdr-switched", "theory=0.447214 deviation=+0.000000"),
        ("altproj", "theory=0.200000 deviation=-0.000000"),
    ])
    def test_undamped_variants_have_a_theory(self, capsys, tmp_path, method,
                                             theory):
        report = tmp_path / "rate.json"
        code, out, _ = run_cli(capsys, "rates", "--puzzle", "9x9-37",
                               "--seed", "0", "--method", method,
                               "--report", str(report))
        assert code == 0 and theory in out
        rec = json.loads(report.read_text())
        assert abs(rec["deviation"]) < 0.02

    def test_ddr_past_five_quarters_has_a_theory(self, capsys, tmp_path):
        # gamma/(1+gamma) = 0.6 dominates the complex pair of modulus 0.35
        code, out, _ = run_cli(capsys, "rates", "--puzzle", "4x4",
                               "--seed", "0", "--method", "ddr",
                               "--gamma", "1.5")
        assert code == 0
        assert out == (
            "outcome=stalled iterations=100\n"
            "quantity=z_res slope=0.600000 r_squared=1.000000 window=43..75 "
            "n_points=33 theory=0.600000 deviation=-0.000000\n")

    @pytest.mark.parametrize("source", [
        ["--puzzle", "9x9-37", "--method", "ddr", "--gamma", "1.5",
         "--seed", "0", "--max-iter", "500"],
        ["--circle-line", "--max-iter", "2000"]])
    @pytest.mark.parametrize("quantity", ["z_res", "x_res"])
    def test_run_that_never_settled_has_no_rate(self, capsys, tmp_path,
                                                source, quantity):
        # z_res and x_res are distances to the final iterate, so they end
        # at 0 even when that iterate is no limit
        trace = tmp_path / "t.csv"
        code, out, err = run_cli(capsys, "rates", *source, "--quantity",
                                 quantity, "--report", str(tmp_path / "r"))
        assert code == 2
        assert out.startswith("outcome=max-iter ") and out.count("\n") == 1
        assert err.startswith(
            "error: insufficient data for a rate fit: "
            f"{quantity} is a distance to the last iterate, and the run did "
            "not settle: its last z step is ")
        assert err.endswith(", above 1e-4\n")
        assert not (tmp_path / "r").exists()
        # a saved trace of the same run is refused alike
        run_cli(capsys, "solve", *source, "--run-to-stall",
                "--trace", str(trace))
        code, out, err2 = run_cli(capsys, "rates", "--trace", str(trace),
                                  "--quantity", quantity)
        assert (code, out, err2) == (2, "", err)

    def test_short_run_that_stops_in_its_tail_fits(self, capsys):
        # cut at 50 iterations, the run ends at a z step of 2.8e-10
        code, out, _ = run_cli(capsys, "rates", "--puzzle", "4x4",
                               "--max-iter", "50")
        assert code == 0
        assert "quantity=z_res slope=0.446892 " in out

    def test_fully_clued_grid_reports_termination(self, capsys, tmp_path):
        # the one class (5, 0) has sdr rate 0, as on queens
        solved = tmp_path / "solved.txt"
        solved.write_text("1 2 3 4\n3 4 1 2\n2 1 4 3\n4 3 2 1\n")
        code, out, err = run_cli(capsys, "rates", "--puzzle", str(solved))
        assert (code, err) == (0, "")
        assert out == ("outcome=feasible-found iterations=100\n"
                       "finite termination: z K=4, u0 K=4, u1 K=4, u2 K=4, "
                       "u3 K=3, u4 K=1, orbit_k=11\n")
        code, out, err = run_cli(capsys, "rates", "--puzzle", str(solved),
                                 "--quantity", "x_res")
        assert code == 1 and out == ""
        assert err == ("error: the problem's sdr rate is 0, so its runs "
                       "report finite termination, not a rate fit; "
                       "--quantity would be ignored\n")

    def test_circle_line_has_no_theory(self, capsys, tmp_path):
        report = tmp_path / "rate.json"
        code, out, _ = run_cli(capsys, "rates", "--circle-line", "--method",
                               "ddr", "--gamma", "0.5", "--report",
                               str(report))
        assert code == 0 and "slope=" in out and "theory=" not in out
        rec = json.loads(report.read_text())
        assert rec["theory"] is None and "deviation" not in rec

    @pytest.mark.parametrize("flags, solve_code", [
        (("--puzzle", PUZZLE4, "--seed", "0"), 0),
        (("--puzzle", "9x9-37", "--seed", "0"), 0),
        (("--puzzle", PUZZLE4, "--tie-break", "random", "--seed", "1"), 0),
        # ddr at gamma 1 stalls on 9x9-22 without a feasible candidate
        (("--puzzle", "9x9-22", "--method", "ddr", "--gamma", "1.0",
          "--seed", "2"), 2)],
        ids=["4x4", "9x9-37", "4x4-random", "9x9-22-ddr"])
    def test_rates_from_trace_file(self, capsys, tmp_path, flags,
                                   solve_code):
        """The trace `solve --run-to-stall` saves fits as its run does:
        the fit line up to the theory, which a saved trace has none of."""
        trace = tmp_path / "t.csv"
        code, _, _ = run_cli(capsys, "solve", *flags, "--run-to-stall",
                             "--trace", str(trace))
        assert code == solve_code
        code, out, _ = run_cli(capsys, "rates", "--trace", str(trace))
        assert code == 0
        code, fresh, _ = run_cli(capsys, "rates", *flags)
        assert code == 0
        fit = fresh.splitlines()[-1]
        assert " theory=" in fit
        assert out == fit[:fit.index(" theory=")] + "\n"

    def test_insufficient_data_exits_two(self, capsys, tmp_path):
        flat = ["k,z_step,z_res,x_res,u0_mismatch,objective"]
        flat += [f"{k},1e-15,1e-15,1e-15,0,0.0" for k in range(1, 41)]
        for name, rows in (("flat", flat), ("header-only", ["k,z_step"])):
            trace = tmp_path / f"{name}.csv"
            trace.write_text("\n".join(rows) + "\n")
            code, _, err = run_cli(capsys, "rates", "--trace", str(trace))
            assert code == 2
            assert "insufficient" in err.lower()
        # a trace with no rows has no settle to check: both quantities
        # count its records first
        for quantity in ("z_res", "objective"):
            code, _, err = run_cli(capsys, "rates", "--trace", str(trace),
                                   "--quantity", quantity)
            assert code == 2
            assert "0 records; need at least 30" in err

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
    def test_reports_classes_and_spectrum(self, capsys):
        code, out, _ = run_cli(capsys, "angles", "--puzzle", PUZZLE4,
                               "--gamma", "0.2")
        assert code == 0
        assert out.splitlines()[:3] == [
            f"instance={PUZZLE4} ambient_dim=320 blocks=5",
            "class m=5 p=0 coordinates=16 eigenvalues: 0 x1, "
            "0.166666666667 x4",
            "class m=5 p=1 coordinates=48 eigenvalues: 0.038701244025 x1, "
            "0.166666666667 x3, 0.861298755975 x1"]
        assert "dominant_rate=0.861298755975 semi_simple=True" in out

    def test_nine_by_nine_needs_no_flag(self, capsys):
        code, out, _ = run_cli(capsys, "angles", "--puzzle", PUZZLE37)
        assert code == 0
        assert "class m=5 p=1 coordinates=396 " in out
        assert "class m=5 p=0 coordinates=333 " in out
        assert ("gamma=0.2 eigenvalues: 0 x333, 0.038701244025 x396, "
                "0.166666666667 x2520, 0.861298755975 x396\n") in out
        assert "semi_simple=True" in out

    def test_dominant_rate_above_gamma_one(self, capsys):
        # at gamma = 5/4 lam_minus = lam_plus = 1/3 is a Jordan pair, one
        # level, but gamma/(1+gamma) = 5/9 dominates, and it is semi-simple
        code, out, _ = run_cli(capsys, "angles", "--puzzle", PUZZLE4,
                               "--gamma", "1.25")
        assert code == 0
        assert "0.333333333333 x96, 0.555555555556 x208" in out
        assert "dominant_rate=0.555555555556 semi_simple=True" in out

    def test_gamma_past_five_quarters_is_complex(self, capsys):
        # lam_minus and lam_plus leave the reals, as (8 +- i sqrt(11))/25;
        # gamma/(1+gamma) = 0.6 still dominates
        code, out, _ = run_cli(capsys, "angles", "--puzzle", PUZZLE4,
                               "--gamma", "1.5")
        assert code == 0
        assert "0.320000000000-0.132664991614i x48, " \
            "0.320000000000+0.132664991614i x48" in out
        assert "dominant_rate=0.600000000000 semi_simple=True" in out

    def test_gamma_inf_is_sdr(self, capsys):
        # the free block's 0.2 +- 0.4i have modulus sqrt(5)/5, and each is
        # tested for semi-simplicity
        code, out, _ = run_cli(capsys, "angles", "--puzzle", "9x9-37",
                               "--gamma", "inf")
        assert code == 0
        assert ("gamma=inf eigenvalues: 0 x333, "
                "0.200000000000-0.400000000000i x396, "
                "0.200000000000+0.400000000000i x396, "
                "1.000000000000 x2520") in out
        assert "dominant_rate=0.447213595500 semi_simple=True" in out

    @pytest.mark.parametrize("gamma,lines", [
        ("0.2", ["class m=4 p=0 coordinates=64 eigenvalues: 0 x1, "
                 "0.166666666667 x3",
                 "gamma=0.2 eigenvalues: 0 x64, 0.166666666667 x192",
                 "dominant_rate=0.166666666667 semi_simple=True"]),
        # sdr terminates finitely on queens: its rate is 0
        ("inf", ["class m=4 p=0 coordinates=64 eigenvalues: 0 x1, "
                 "1.000000000000 x3",
                 "gamma=inf eigenvalues: 0 x64, 1.000000000000 x192",
                 "dominant_rate=0 semi_simple=True"]),
    ])
    def test_queens_takes_the_instance_flag(self, capsys, gamma, lines):
        code, out, err = run_cli(capsys, "angles", "--queens-size", "8",
                                 "--gamma", gamma)
        assert code == 0 and err == ""
        assert out.splitlines() == [
            "instance=queens-8 ambient_dim=256 blocks=4"] + lines

    @pytest.mark.parametrize("flags,message", [
        ([], "an instance is required: --puzzle, --queens-size"),
        (["--puzzle", "4x4", "--queens-size", "8"],
         "choose one instance, got --puzzle and --queens-size"),
        (["--circle-line"], "unrecognized arguments: --circle-line"),
    ])
    def test_one_product_instance_is_required(self, capsys, flags, message):
        assert run_cli(capsys, "angles", *flags) == (1, "",
                                                     f"error: {message}\n")

    @pytest.mark.parametrize("gamma", ["0", "-1", "nan", "-1e-3"])
    def test_gamma_out_of_range_is_named(self, capsys, gamma):
        code, out, err = run_cli(capsys, "angles", "--puzzle", PUZZLE4,
                                 "--gamma", gamma)
        assert code == 1 and out == ""
        assert f"--gamma must be > 0, got {float(gamma)}" in err

    def test_fully_clued_grid_has_one_class(self, capsys, tmp_path):
        solved = tmp_path / "solved.txt"
        solved.write_text("1 2 3 4\n3 4 1 2\n2 1 4 3\n4 3 2 1\n")
        code, out, err = run_cli(capsys, "angles", "--puzzle", str(solved))
        assert code == 0 and err == ""
        assert out.splitlines()[1:] == [
            "class m=5 p=0 coordinates=64 eigenvalues: 0 x1, "
            "0.166666666667 x4",
            "gamma=0.2 eigenvalues: 0 x64, 0.166666666667 x256",
            "dominant_rate=0.166666666667 semi_simple=True"]
