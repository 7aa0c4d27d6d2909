"""Small helpers that only the tests use: the text form of an instance's
clues, a digit grid or a 0/1 board as a flat vector, a bench CSV read
back, and the spectral radius of a matrix.
"""

import csv

import numpy as np

from drsplit.bench import BenchRecord, BenchReport
from drsplit.puzzles import format_grid


def format_sudoku(inst):
    """Text form of an instance's clue grid, which parse_sudoku reads back."""
    return format_grid(inst.clue_grid())


def lift_grid(grid):
    """Indicator cube of a (possibly partial) digit grid, flattened."""
    grid = np.asarray(grid)
    s = grid.shape[0]
    v = np.zeros(s ** 3)
    ii, jj = np.nonzero(grid >= 0)
    v[(ii * s + jj) * s + grid[ii, jj]] = 1.0
    return v


def lift_board(board):
    """A queens board (0/1 rows) as the flat vector of its s*s cells."""
    return np.asarray(board, dtype=float).ravel().copy()


def read_bench_csv(path):
    """The report of a `BenchReport.to_csv` file, without its batch time."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    records = [BenchRecord(run_id=int(r[0]), seed=int(r[1]), outcome=r[2],
                           iterations=int(r[3]), wall_ms=float(r[4]))
               for r in rows[1:]]
    return BenchReport(records)


def spectral_radius(matrix):
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


def reference_run(step, z0, policy, feasible=None):
    """The textbook loop that `splitting.run` and `splitting.run_batch`
    must agree with: every iteration stepped, no orbit replay, and each
    z step taken by np.linalg.norm (one BLAS dot, as the library's norms
    are for the at most 8192 elements of every test problem).

    Returns (outcome, iterations, z, x, u, candidate, z_steps, objectives):
    the last step's output, the candidate the oracle saw going into it
    (the mean of the block rows of z for a product-space state, x for a
    two-set one), and the per-iteration z steps and objectives.
    """
    z = np.array(z0, dtype=float)
    z_steps, objectives = [], []
    outcome = "max-iter"
    for k in range(1, policy.max_iter + 1):
        z_new, x, u = step(z)
        z_steps.append(float(np.linalg.norm(z_new - z)))
        spread = u - (u.mean(axis=0) if u.ndim == 2 else x)
        objectives.append(0.5 * float(np.sum(spread ** 2)))
        candidate = z.mean(axis=0) if z.ndim == 2 else x
        z = z_new
        if not np.isfinite(z_steps[-1]):
            outcome = "non-finite"
            break
        if k < policy.min_iter:
            continue
        stalled = z_steps[-1] <= policy.z_step_tol
        if (feasible is not None and (policy.stop_on_feasible or stalled)
                and feasible(candidate)):
            outcome = "feasible-found"
            break
        if stalled:
            outcome = "stalled"
            break
    return (outcome, k, z, x, u, candidate, np.array(z_steps),
            np.array(objectives))
