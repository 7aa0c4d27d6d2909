"""Command line entry point.

Subcommands: solve one instance, bench a batch of seeded runs, fit the
empirical convergence rate (or report finite termination), and inspect
the subspace angles and spectrum behind the predicted rates.

Exit codes: 0 success / feasible, 1 usage or input error, 2 solver did
not reach feasibility or the data could not support a rate fit.
"""

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    InsufficientDataError,
    auto_tail_fraction,
    coordinate_classes,
    detect_finite_termination,
    dominant_rate,
    fit_linear_rate,
    is_semi_simple,
    linear_model,
    spectrum,
    theoretical_rate,
)
from .bench import bench_puzzle
from .plotting import render_rate_plot
from .puzzles import (
    BUNDLED,
    InvalidInstanceError,
    ParseError,
    QueensInstance,
    build_problem,
    bundled_sudoku,
    circle_line_instance,
    parse_sudoku,
)
from .splitting import FEASIBLE, METHODS, StopPolicy, read_trace_csv, run

__all__ = ["CliError", "main"]

class CliError(Exception):
    """Usage-level problem; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a token such as -1e-3 is a value, as -1 and -0.5 are
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$", re.IGNORECASE)

    def error(self, message):
        raise CliError(message)


# ---------------------------------------------------------------------------
# argument plumbing

def _checked(convert, flag, ok, rule, word=None):
    """An argparse type: `convert` the text (`word` passes as it is), then
    raise `CliError` naming `flag` unless `ok` holds; nan fails every
    rule.  argparse lets a CliError through, and reports a text that
    `convert` refuses under the converter's name."""
    def check(text):
        if text == word:
            return text
        value = convert(text)
        if not ok(value):
            raise CliError(f"{flag} must {rule}, got {value}")
        return value
    check.__name__ = convert.__name__
    return check


def _add_instance_flags(sp, circle=False):
    """Add the instance flags; return their actions."""
    actions = [
        sp.add_argument("--puzzle", metavar="KEY_OR_FILE",
                        help=f"bundled instance key ({', '.join(BUNDLED)}) "
                             "or a puzzle text file"),
        sp.add_argument("--queens-size", metavar="S", type=_checked(
            int, "--queens-size", lambda s: s >= 4, "be >= 4"),
            help="s-queens board side")]
    if circle:
        actions.append(sp.add_argument(
            "--circle-line", action="store_true",
            help="the bundled 2-D circle/line pair"))
    return actions


def _add_solver_flags(sp):
    """Add the method and stop flags; return their actions."""
    return [
        sp.add_argument("--method", choices=list(METHODS)),
        sp.add_argument("--gamma", type=_checked(
            float, "--gamma", lambda g: g > 0, "be > 0"),
            help="damping parameter for ddr; inf recovers sdr"),
        sp.add_argument("--seed", type=_checked(
            int, "--seed", lambda s: s >= 0, "be >= 0")),
        sp.add_argument("--max-iter", type=_checked(
            int, "--max-iter", lambda k: k >= 1, "be >= 1")),
        sp.add_argument("--min-iter", type=int),
        sp.add_argument("--tol", type=_checked(
            float, "--tol", lambda t: t >= 0, "be >= 0"),
            help="z-step stall tolerance"),
        sp.add_argument("--tie-break", choices=["lowest", "random"])]


def _config_flags(actions):
    """The keys a config file may set: dest -> flag of each action that
    takes a value."""
    return {a.dest: a.option_strings[0] for a in actions if a.nargs is None}


def _build_parser():
    parser = _Parser(prog="drsplit",
                     description="feasibility solving by projection "
                                 "splitting, with rate analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="run one instance from one seed")
    flags = _add_instance_flags(sp, circle=True) + _add_solver_flags(sp)
    sp.add_argument("--run-to-stall", action="store_true",
                    help="ignore feasibility, iterate until the z step "
                         "stalls or max-iter")
    sp.add_argument("--config", metavar="FILE",
                    help="key=value defaults; explicit flags win")
    sp.add_argument("--out", metavar="FILE",
                    help="write the rounded solution")
    sp.add_argument("--trace", metavar="FILE",
                    help="write the per-iteration trace CSV")
    sp.set_defaults(func=_cmd_solve, config_flags=_config_flags(flags))

    sp = sub.add_parser("bench", help="batch of seeded runs")
    flags = _add_instance_flags(sp) + _add_solver_flags(sp) + [
        sp.add_argument("--runs", type=_checked(
            int, "--runs", lambda r: r >= 1, "be >= 1")),
        sp.add_argument("--workers", type=_checked(
            int, "--workers", lambda w: w >= 0,
            "be >= 0 (0 for the default)"))]
    sp.add_argument("--config", metavar="FILE")
    sp.add_argument("--out", metavar="FILE", help="write per-run CSV")
    sp.set_defaults(func=_cmd_bench, config_flags=_config_flags(flags))

    sp = sub.add_parser("rates", help="fit the local linear rate of a run")
    flags = _add_instance_flags(sp, circle=True) + _add_solver_flags(sp)
    sp.add_argument("--trace", metavar="FILE",
                    help="fit a previously written trace CSV instead of "
                         "running")
    sp.add_argument("--quantity", choices=["z_res", "x_res", "objective"])
    sp.add_argument("--tail-fraction", type=_checked(
        float, "--tail-fraction", lambda f: 0 < f <= 1,
        "be 'auto' or lie in (0, 1]", word="auto"),
        help="fraction of the run to fit, or 'auto'")
    sp.add_argument("--out", metavar="FILE", help="write an SVG plot")
    sp.add_argument("--report", metavar="FILE", help="write a JSON report")
    # what a run needs and a saved trace does not
    sp.set_defaults(func=_cmd_rates, run_flags=[a.dest for a in flags])

    sp = sub.add_parser("angles",
                        help="the damped step's linear model and spectrum")
    _add_instance_flags(sp)
    sp.add_argument("--gamma", default=0.2, type=_checked(
        float, "--gamma", lambda g: g > 0, "be > 0"),
        help="damping parameter; inf recovers sdr")
    sp.set_defaults(func=_cmd_angles)

    return parser


def _apply_config(args, parser):
    """Fill parse results from a key=value file, each line parsed as its
    flag `--key=value`, so it meets the flag's type, range and choices.
    Flags keep priority because only still-unset (None) values are
    overwritten, and the file's gamma goes with its method=ddr when a
    flag overrides that."""
    path = Path(args.config)
    if not path.exists():
        raise CliError(f"config file {args.config!r} not found")
    given = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{args.config}:{lineno}:"
        if "=" not in line:
            raise CliError(f"{where} expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in args.config_flags:
            raise CliError(f"{where} unknown key {key!r}")
        if key in given:
            raise CliError(f"{where} key {key!r} repeats line "
                           f"{given[key][0]}")
        try:     # one token, so a value such as -1e-3 is not a flag
            one = parser.parse_args(
                [args.command, f"{args.config_flags[key]}={value}"])
        except CliError as exc:
            raise CliError(f"{where} {exc}") from None
        given[key] = (lineno, getattr(one, key))
    file_method = given.get("method", (0, None))[1]
    if file_method == "ddr" and args.method not in (None, "ddr"):
        given.pop("gamma", None)
    for key, (_, value) in given.items():
        if getattr(args, key) is None:
            setattr(args, key, value)


# ---------------------------------------------------------------------------
# shared resolution helpers

def _resolve_instance(args):
    """(label, instance) from the mutually exclusive instance flags."""
    chosen = [flag for flag in ("--puzzle", "--queens-size", "--circle-line")
              if getattr(args, flag[2:].replace("-", "_"), None)
              not in (None, False)]
    if len(chosen) > 1:
        raise CliError(f"choose one instance, got {' and '.join(chosen)}")
    if args.puzzle is not None:
        if args.puzzle in BUNDLED:
            return args.puzzle, bundled_sudoku(args.puzzle)
        path = Path(args.puzzle)
        if not path.is_file():
            raise CliError(
                f"{args.puzzle!r} is neither a bundled key "
                f"{tuple(BUNDLED)} nor an existing file")
        return args.puzzle, parse_sudoku(path.read_text())
    if args.queens_size is not None:
        return f"queens-{args.queens_size}", QueensInstance(args.queens_size)
    if getattr(args, "circle_line", False):
        _reject_ignored(args, ("seed", "tie_break"),
                        "--circle-line has a fixed start and no argmax")
        return "circle-line", circle_line_instance()
    raise CliError("an instance is required: --puzzle, --queens-size"
                   + (" or --circle-line" if hasattr(args, "circle_line")
                      else ""))


def _resolve_method(args):
    method = args.method if args.method is not None else "sdr"
    if method == "ddr" and args.gamma is None:
        raise CliError("--gamma is required for the damped method (ddr)")
    if method != "ddr":
        _reject_ignored(args, ("gamma",), f"method {method} is undamped")
    return method


def _resolve_policy(args, stop_on_feasible=True):
    """The given stop flags over `StopPolicy`'s defaults; with no min_iter
    given, the default floor is cut to max_iter."""
    cap = StopPolicy.max_iter if args.max_iter is None else args.max_iter
    floor = args.min_iter
    if floor is None:
        floor = min(StopPolicy.min_iter, cap)
    elif not 0 <= floor <= cap:
        raise CliError(f"--min-iter {floor} is not in [0, --max-iter {cap}]")
    tol = StopPolicy.z_step_tol if args.tol is None else args.tol
    return StopPolicy(cap, floor, tol, stop_on_feasible)


def _reject_ignored(args, names, reason):
    """CliError naming each of the given flags that was set, since
    `reason` means none of them would take effect."""
    given = [f"--{name.replace('_', '-')}" for name in names
             if getattr(args, name) is not None
             and getattr(args, name) is not False]
    if given:
        raise CliError(f"{reason}; {', '.join(given)} would be ignored")


def _resolve_seed(args):
    return 0 if args.seed is None else args.seed


def _resolve_problem(args):
    """The problem of the instance flags; under --tie-break random the
    run's seed breaks its ties."""
    _, inst = _resolve_instance(args)
    tie_seed = _resolve_seed(args) if args.tie_break == "random" else None
    return build_problem(inst, tie_seed=tie_seed)


def _run(problem, args, stop_on_feasible=True, keep_iterates=False):
    step = problem.step(_resolve_method(args), args.gamma)
    policy = _resolve_policy(args,
                             stop_on_feasible and problem.stop_on_feasible)
    return run(step, problem.initial_state(_resolve_seed(args)), policy,
               feasible=problem.feasible, keep_iterates=keep_iterates)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_solve(args):
    problem = _resolve_problem(args)
    res = _run(problem, args, stop_on_feasible=not args.run_to_stall,
               keep_iterates=args.trace is not None)
    print(f"outcome={res.outcome} iterations={res.iterations} "
          f"final_z_step={res.trace.z_step[-1]:.3e}")
    if args.out:
        Path(args.out).write_text(problem.format(res.candidate))
        print(f"solution written to {args.out}")
    if args.trace:
        res.trace.to_csv(args.trace)
        print(f"trace written to {args.trace}")
    return 0 if res.outcome == FEASIBLE else 2


def _cmd_bench(args):
    label, inst = _resolve_instance(args)
    method = _resolve_method(args)
    policy = _resolve_policy(args)
    report = bench_puzzle(inst, method, args.gamma, policy,
                          runs=20 if args.runs is None else args.runs,
                          base_seed=_resolve_seed(args),
                          workers=args.workers,
                          tie_break=args.tie_break or "lowest")
    print(f"instance={label} method={method}"
          + (f" gamma={args.gamma}" if method == "ddr" else ""))
    print(report.summary())
    if args.out:
        report.to_csv(args.out)
        print(f"records written to {args.out}")
    return 0


def _cmd_rates(args):
    quantity = args.quantity if args.quantity is not None else "z_res"
    terminates = theory = guide = None
    if args.trace is not None:
        _reject_ignored(args, args.run_flags, "--trace fits a saved trace")
        trace = read_trace_csv(args.trace)
    else:
        problem = _resolve_problem(args)
        method = _resolve_method(args)
        # sdr's model has rate 0 on queens and on a fully clued grid
        terminates = theoretical_rate(problem, "sdr") == 0
        if terminates:
            _reject_ignored(args, ("quantity", "tail_fraction"),
                            "the problem's sdr rate is 0, so its runs "
                            "report finite termination, not a rate fit")
        res = _run(problem, args, stop_on_feasible=False, keep_iterates=True)
        trace = res.trace
        print(f"outcome={res.outcome} iterations={res.iterations}")
        theory = theoretical_rate(problem, method, args.gamma)
        # the objective is half a squared distance: it decays at the
        # square of the rate
        if theory is not None and quantity == "objective":
            theory = theory ** 2

    if terminates:
        freeze = {"z": detect_finite_termination(trace, "z")}
        for i in range(trace.n_blocks):
            freeze[f"u{i}"] = detect_finite_termination(trace, f"u{i}")
        orbit = "none" if res.orbit_k is None else res.orbit_k
        print("finite termination: " + ", ".join(
            f"{block} K={'none' if k is None else k}"
            for block, k in freeze.items()) + f", orbit_k={orbit}")
        label, values, title = "z step", trace.z_step, "finite termination"
        record = {"outcome": res.outcome, "iterations": res.iterations,
                  "finite_termination": freeze, "orbit_k": res.orbit_k}
    else:
        if quantity != "objective" and len(trace) and trace.z_step[-1] > 1e-4:
            raise InsufficientDataError(
                f"{quantity} is a distance to the last iterate, and the run "
                f"did not settle: its last z step is {trace.z_step[-1]:.3e}, "
                f"above 1e-4")
        tail = args.tail_fraction
        if tail is None or tail == "auto":
            tail = auto_tail_fraction(trace, quantity)
        est = fit_linear_rate(trace, quantity, tail)
        line = (f"quantity={quantity} slope={est.slope:.6f} "
                f"r_squared={est.r_squared:.6f} "
                f"window={est.window[0]}..{est.window[1]} "
                f"n_points={est.n_points}")
        record = {
            "quantity": quantity,
            "slope": est.slope,
            "r_squared": est.r_squared,
            "window": [est.window[0], est.window[1]],
            "n_points": est.n_points,
            "tail_fraction": tail,
            "theory": theory,
        }
        if theory is not None:
            line += (f" theory={theory:.6f} "
                     f"deviation={est.slope - theory:+.6f}")
            record["deviation"] = est.slope - theory
            guide = (theory, f"theory {theory:.4f}")
        print(line)
        label, values = quantity, trace.residuals(quantity)
        title = f"residual decay ({quantity})"

    if args.out:
        render_rate_plot(args.out, label, np.arange(1, len(trace) + 1),
                         values, guide=guide, title=title)
        print(f"plot written to {args.out}")
    if args.report:
        Path(args.report).write_text(json.dumps(record, indent=2) + "\n")
        print(f"report written to {args.report}")
    return 0


def _cmd_angles(args):
    label, inst = _resolve_instance(args)
    problem = build_problem(inst)
    print(f"instance={label} "
          f"ambient_dim={problem.n_blocks * problem.ambient_dim} "
          f"blocks={problem.n_blocks}")
    # the damped step at a solution, one m x m block per coordinate class
    blocks = []
    for (m, p), count in coordinate_classes(problem).items():
        block = linear_model(m, p, "ddr", args.gamma)
        blocks.append((block, count))
        print(f"class m={m} p={p} coordinates={count} eigenvalues: "
              + _levels(spectrum([(block, 1)])))
    levels = spectrum(blocks)
    print(f"gamma={args.gamma} eigenvalues: " + _levels(levels))
    rate = dominant_rate(levels)
    semi_simple = all(is_semi_simple(block, lam) for block, _ in blocks
                      for lam, _ in levels
                      if np.isclose(abs(lam), rate, rtol=1e-9, atol=0.0))
    print(f"dominant_rate={_level(rate)} semi_simple={semi_simple}")
    return 0


def _levels(levels):
    return ", ".join(f"{_level(lam)} x{mult}" for lam, mult in levels)


def _level(lam):
    """An eigenvalue at 12 digits, 0 as 0 and a complex one as re+imi."""
    if isinstance(lam, complex):
        return f"{lam.real:.12f}{lam.imag:+.12f}i"
    return "0" if lam == 0 else f"{lam:.12f}"


# ---------------------------------------------------------------------------

def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            _apply_config(args, parser)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InsufficientDataError as exc:
        print(f"error: insufficient data for a rate fit: {exc}",
              file=sys.stderr)
        return 2
    except (ParseError, InvalidInstanceError, KeyError, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
