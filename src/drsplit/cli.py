"""Command line entry point.

Subcommands: solve one instance, bench a batch of seeded runs, fit the
empirical convergence rate (or report finite termination), and inspect
the subspace angles and spectrum behind the predicted rates.

Exit codes: 0 success / feasible, 1 usage or input error, 2 solver did
not reach feasibility or the data could not support a rate fit.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    SUDOKU_SDR_RATE,
    InsufficientDataError,
    auto_tail_fraction,
    ddr_rate_eigenvalues,
    detect_finite_termination,
    fit_linear_rate,
    friedrichs_angle,
    is_semi_simple,
    numerical_rank,
    principal_angles,
    sudoku_linear_model,
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
    format_grid,
    parse_sudoku,
)
from .splitting import (
    FEASIBLE,
    METHODS,
    StopPolicy,
    product_step,
    read_trace_csv,
    run,
    two_set_step,
)

__all__ = ["CliError", "main"]

class CliError(Exception):
    """Usage-level problem; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


# ---------------------------------------------------------------------------
# argument plumbing

def tail_fraction(text):
    """'auto' or a float in (0, 1]: the argparse type of --tail-fraction."""
    if text == "auto":
        return text
    value = float(text)
    if not 0.0 < value <= 1.0:      # nan fails too
        raise argparse.ArgumentTypeError(
            f"must be 'auto' or lie in (0, 1], got {text}")
    return value


def _add_instance_flags(sp, circle=False):
    sp.add_argument("--puzzle", metavar="KEY_OR_FILE",
                    help=f"bundled instance key ({', '.join(BUNDLED)}) "
                         "or a puzzle text file")
    sp.add_argument("--queens-size", type=int, dest="queens_size",
                    metavar="S", help="s-queens board side")
    if circle:
        sp.add_argument("--circle-line", action="store_true",
                        dest="circle_line",
                        help="the bundled 2-D circle/line pair")


def _add_solver_flags(sp):
    sp.add_argument("--method", choices=list(METHODS), default=None)
    sp.add_argument("--gamma", type=float, default=None,
                    help="damping parameter for ddr; inf recovers sdr")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--max-iter", type=int, dest="max_iter", default=None)
    sp.add_argument("--min-iter", type=int, dest="min_iter", default=None)
    sp.add_argument("--tol", type=float, default=None,
                    help="z-step stall tolerance")
    sp.add_argument("--tie-break", choices=["lowest", "random"],
                    dest="tie_break", default=None)


def _build_parser():
    parser = _Parser(prog="drsplit",
                     description="feasibility solving by projection "
                                 "splitting, with rate analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="run one instance from one seed")
    _add_instance_flags(sp, circle=True)
    _add_solver_flags(sp)
    sp.add_argument("--run-to-stall", action="store_true",
                    dest="run_to_stall",
                    help="ignore feasibility, iterate until the z step "
                         "stalls or max-iter")
    sp.add_argument("--config", metavar="FILE",
                    help="key=value defaults; explicit flags win")
    sp.add_argument("--out", metavar="FILE",
                    help="write the rounded solution")
    sp.add_argument("--trace", metavar="FILE",
                    help="write the per-iteration trace CSV")
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("bench", help="batch of seeded runs")
    _add_instance_flags(sp)
    _add_solver_flags(sp)
    sp.add_argument("--runs", type=int, default=None)
    sp.add_argument("--workers", type=int, default=None)
    sp.add_argument("--config", metavar="FILE")
    sp.add_argument("--out", metavar="FILE", help="write per-run CSV")
    sp.set_defaults(func=_cmd_bench)

    sp = sub.add_parser("rates", help="fit the local linear rate of a run")
    _add_instance_flags(sp, circle=True)
    _add_solver_flags(sp)
    sp.add_argument("--trace", metavar="FILE",
                    help="fit a previously written trace CSV instead of "
                         "running")
    sp.add_argument("--quantity", default=None,
                    choices=["z_res", "x_res", "objective"])
    sp.add_argument("--tail-fraction", dest="tail_fraction", default=None,
                    type=tail_fraction,
                    help="fraction of the run to fit, or 'auto'")
    sp.add_argument("--out", metavar="FILE", help="write an SVG plot")
    sp.add_argument("--report", metavar="FILE", help="write a JSON report")
    sp.set_defaults(func=_cmd_rates)

    sp = sub.add_parser("angles",
                        help="subspace angles and the damped-map spectrum")
    sp.add_argument("--puzzle", metavar="KEY_OR_FILE", required=True)
    sp.add_argument("--gamma", type=float, default=0.2)
    sp.set_defaults(func=_cmd_angles)

    return parser


_CONFIG_TYPES = {
    "method": str,
    "gamma": float,
    "seed": int,
    "max_iter": int,
    "min_iter": int,
    "tol": float,
    "tie_break": str,
    "puzzle": str,
    "queens_size": int,
    "runs": int,
    "workers": int,
}


def _apply_config(args):
    """Fill parse results from a key=value file; flags keep priority
    because only still-unset (None) values are overwritten, and the file's
    gamma goes with its method=ddr when a flag overrides that."""
    path = Path(args.config)
    if not path.exists():
        raise CliError(f"config file {args.config!r} not found")
    given = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(
                f"{args.config}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _CONFIG_TYPES or not hasattr(args, key):
            raise CliError(f"{args.config}:{lineno}: unknown key {key!r}")
        if key in given:
            raise CliError(f"{args.config}:{lineno}: key {key!r} repeats "
                           f"line {given[key][0]}")
        given[key] = (lineno, value)
    file_method = given.get("method", (0, None))[1]
    if file_method == "ddr" and args.method not in (None, "ddr"):
        given.pop("gamma", None)
    for key, (lineno, value) in given.items():
        if getattr(args, key) is None:
            try:
                setattr(args, key, _CONFIG_TYPES[key](value))
            except ValueError:
                raise CliError(
                    f"{args.config}:{lineno}: bad value {value!r} "
                    f"for {key}") from None


# ---------------------------------------------------------------------------
# shared resolution helpers

def _resolve_instance(args):
    """(kind, instance) from the mutually exclusive instance flags."""
    chosen = []
    if args.puzzle is not None:
        chosen.append("--puzzle")
    if getattr(args, "queens_size", None) is not None:
        chosen.append("--queens-size")
    if getattr(args, "circle_line", False):
        chosen.append("--circle-line")
    if len(chosen) > 1:
        raise CliError(f"choose one instance, got {' and '.join(chosen)}")
    if args.puzzle is not None:
        if args.puzzle in BUNDLED:
            return "sudoku", bundled_sudoku(args.puzzle)
        path = Path(args.puzzle)
        if not path.exists():
            raise CliError(
                f"{args.puzzle!r} is neither a bundled key "
                f"{tuple(BUNDLED)} nor an existing file")
        return "sudoku", parse_sudoku(path.read_text())
    if getattr(args, "queens_size", None) is not None:
        return "queens", QueensInstance(args.queens_size)
    if getattr(args, "circle_line", False):
        return "circle-line", circle_line_instance()
    raise CliError("an instance is required: --puzzle, --queens-size"
                   + (" or --circle-line" if hasattr(args, "circle_line")
                      else ""))


def _resolve_method(args):
    method = args.method if args.method is not None else "sdr"
    if method not in METHODS:
        raise CliError(f"unknown method {method!r}; choose from {METHODS}")
    if method == "ddr" and args.gamma is None:
        raise CliError("--gamma is required for the damped method (ddr)")
    if method != "ddr":
        _reject_ignored(args, ("gamma",), f"method {method} is undamped")
    return method


def _resolve_policy(args, stop_on_feasible=True):
    """The given stop flags over `StopPolicy`'s defaults; with no min_iter
    given, the default floor is cut to max_iter."""
    cap = StopPolicy.max_iter if args.max_iter is None else args.max_iter
    if cap < 1:
        raise CliError(f"--max-iter must be >= 1, got {cap}")
    floor = args.min_iter
    if floor is None:
        floor = min(StopPolicy.min_iter, cap)
    elif not 0 <= floor <= cap:
        raise CliError(f"--min-iter {floor} is not in [0, --max-iter {cap}]")
    tol = StopPolicy.z_step_tol if args.tol is None else args.tol
    if not tol >= 0.0:      # nan too
        raise CliError(f"--tol must be >= 0, got {tol}")
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
    if args.seed is not None and args.seed < 0:
        raise CliError(f"--seed must be >= 0, got {args.seed}")
    return 0 if args.seed is None else args.seed


def _resolve_tie_break(args):
    return "lowest" if args.tie_break is None else args.tie_break


def _run_instance(kind, inst, args, stop_on_feasible=True,
                  keep_iterates=False):
    method = _resolve_method(args)
    if kind == "circle-line":
        _reject_ignored(args, ("seed", "tie_break"),
                        "--circle-line has a fixed start and no argmax")
        # continuous sets: the tracked point can drift through near-feasible
        # positions without the iteration converging, so stop on the z-step
        # stall and classify feasibility there
        policy = _resolve_policy(args, stop_on_feasible=False)
        step = two_set_step(inst.line.project, inst.project_circle,
                            method, gamma=args.gamma)
        res = run(step, inst.z0, policy, feasible=inst.feasible,
                  keep_iterates=keep_iterates)
        return res, None
    policy = _resolve_policy(args, stop_on_feasible=stop_on_feasible)
    problem = build_problem(inst, tie_break=_resolve_tie_break(args),
                            tie_seed=_resolve_seed(args))
    step = product_step(problem.projections, method, gamma=args.gamma)
    res = run(step, problem.initial_state(_resolve_seed(args)), policy,
              feasible=problem.feasible, keep_iterates=keep_iterates)
    return res, problem


# ---------------------------------------------------------------------------
# subcommands

def _cmd_solve(args):
    kind, inst = _resolve_instance(args)
    keep = args.trace is not None
    res, problem = _run_instance(
        kind, inst, args, stop_on_feasible=not args.run_to_stall,
        keep_iterates=keep)
    print(f"outcome={res.outcome} iterations={res.iterations} "
          f"final_z_step={res.trace.z_step[-1]:.3e}")
    if args.out:
        if kind == "sudoku":
            grid = problem.round(res.candidate)
            Path(args.out).write_text(format_grid(grid))
        elif kind == "queens":
            board = problem.round(res.candidate)
            text = "\n".join(" ".join(str(int(v)) for v in row)
                             for row in board) + "\n"
            Path(args.out).write_text(text)
        else:
            Path(args.out).write_text(
                " ".join(repr(float(v)) for v in res.x) + "\n")
        print(f"solution written to {args.out}")
    if args.trace:
        res.trace.to_csv(args.trace)
        print(f"trace written to {args.trace}")
    return 0 if res.outcome == FEASIBLE else 2


def _cmd_bench(args):
    kind, inst = _resolve_instance(args)
    if kind == "circle-line":
        raise CliError("bench needs a puzzle instance")
    method = _resolve_method(args)
    policy = _resolve_policy(args)
    if args.workers is not None and args.workers < 0:
        raise CliError(f"--workers must be >= 0 (0 for the default), "
                       f"got {args.workers}")
    runs = 20 if args.runs is None else args.runs
    if runs < 1:
        raise CliError(f"--runs must be >= 1, got {runs}")
    report = bench_puzzle(inst, method, args.gamma, policy, runs=runs,
                          base_seed=_resolve_seed(args),
                          workers=args.workers,
                          tie_break=_resolve_tie_break(args))
    print(f"instance={args.puzzle or f'queens-{inst.size}'} "
          f"method={method}"
          + (f" gamma={args.gamma}" if method == "ddr" else ""))
    print(report.summary())
    if args.out:
        report.to_csv(args.out)
        print(f"records written to {args.out}")
    return 0


# what a run needs and a saved trace does not
_RUN_FLAGS = ("puzzle", "queens_size", "circle_line", "method", "gamma",
              "seed", "max_iter", "min_iter", "tol", "tie_break")


def _cmd_rates(args):
    quantity = args.quantity if args.quantity is not None else "z_res"
    kind = theory = guide = None
    if args.trace is not None:
        _reject_ignored(args, _RUN_FLAGS, "--trace fits a saved trace")
        trace = read_trace_csv(args.trace)
    else:
        kind, inst = _resolve_instance(args)
        method = _resolve_method(args)
        if kind == "queens":
            _reject_ignored(args, ("quantity", "tail_fraction"),
                            "queens runs report finite termination, "
                            "not a rate fit")
        res, _ = _run_instance(kind, inst, args, stop_on_feasible=False,
                               keep_iterates=True)
        trace = res.trace
        print(f"outcome={res.outcome} iterations={res.iterations}")
        theory = theoretical_rate(kind, method, args.gamma)
        # the objective is half a squared distance: it decays at the
        # square of the rate
        if theory is not None and quantity == "objective":
            theory = theory ** 2

    if kind == "queens":
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
        _write_report(args.report, record)
    return 0


def _write_report(path, record):
    Path(path).write_text(json.dumps(record, indent=2) + "\n")
    print(f"report written to {path}")


def _cmd_angles(args):
    _, inst = _resolve_instance(args)
    s = inst.size
    n = s ** 3
    p = s * (s * s - len(inst.clues))       # the pillars of blank cells
    gamma = args.gamma
    if not 0.0 < gamma <= 1.25:     # nan too
        raise CliError(f"--gamma must lie in (0, 5/4], got {gamma}")
    levels = np.unique(ddr_rate_eigenvalues(gamma))
    print(f"instance={args.puzzle} ambient_dim={5 * n} blocks=5 "
          f"free_coordinates={p}")
    if p == 0:
        raise CliError("every cell is clued: the clue-side subspace is {0}, "
                       "so no angle and no local rate exist")

    # the subspace pair splits per coordinate like the map: a free one
    # pairs the clamp's span(e5) with the diagonal's span(1, ..., 1), a
    # clued one pairs {0} with it and has no angle
    clamp, diagonal = np.eye(5)[4:], np.full((1, 5), np.sqrt(0.2))
    cos_f = float(np.cos(friedrichs_angle(clamp, diagonal)))
    cosines = np.cos(principal_angles(clamp, diagonal))
    spread = float(np.max(np.abs(cosines - SUDOKU_SDR_RATE)))
    print(f"cos_friedrichs={cos_f!r} "
          f"deviation_from_theory={abs(cos_f - SUDOKU_SDR_RATE):.3e}")
    print(f"principal_cosines: count={p * len(cosines)} "
          f"max_deviation={spread:.3e}")

    blocks = sudoku_linear_model(gamma)
    counts = np.zeros(len(levels), dtype=int)
    deviation = 0.0
    for block, mult in zip(blocks, (p, n - p)):
        dist = np.abs(np.linalg.eigvals(block)[:, None] - levels)
        deviation = max(deviation, float(dist.min(axis=1).max()))
        np.add.at(counts, dist.argmin(axis=1), mult)
    print(f"gamma={gamma} eigenvalues: " + ", ".join(
        f"{'0' if lam == 0.0 else f'{lam:.12f}'} x{c}"
        for lam, c in zip(levels, counts)))
    print(f"eigenvalue check (model): max_deviation={deviation:.3e}")

    rate = theoretical_rate("sudoku", "ddr", gamma)
    free = blocks[0]
    a = free - rate * np.eye(5)
    print(f"dominant_rate={rate!r} "
          f"semi_simple={all(is_semi_simple(b, rate) for b in blocks)} "
          f"free_block_rank={numerical_rank(a, reference=free)} "
          f"rank_of_square={numerical_rank(a @ a, reference=free)}")
    return 0


# ---------------------------------------------------------------------------

def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            _apply_config(args)
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
