"""Small helpers that only the tests use: the text form of an instance's
clues, a planted solution grid, a digit grid or a 0/1 board as a flat
vector, the slow queens validator, a bench CSV read back, the spectral
radius of a matrix, and the dense 4x4 oracles of the linearized sudoku
map that `analysis.sudoku_linear_model` reduces to 5x5 blocks.
"""

import csv

import numpy as np

from drsplit.bench import BenchRecord, BenchReport
from drsplit.constraints import ClueProjection
from drsplit.puzzles import format_grid


def format_sudoku(inst):
    """Text form of an instance's clue grid, which parse_sudoku reads back."""
    return format_grid(inst.clue_grid())


def planted_grid(s):
    """The box-shift solved grid (b*(i % b) + i // b + j) % s, b = sqrt(s)."""
    b = int(round(s ** 0.5))
    return np.array([[(b * (i % b) + i // b + j) % s for j in range(s)]
                     for i in range(s)])


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


def validate_queens(board, inst):
    """(ok, violations) for a 0/1 board: one queen per row and column,
    at most one per diagonal.  Tags: ("row", i), ("column", j),
    ("antidiag", i+j), ("diag", i-j)."""
    s = inst.size
    g = np.asarray(board)
    violations = []
    for i in range(s):
        if g[i, :].sum() != 1:
            violations.append(("row", i))
    for j in range(s):
        if g[:, j].sum() != 1:
            violations.append(("column", j))
    for t in range(2 * s - 1):
        if sum(g[i, t - i] for i in range(s) if 0 <= t - i < s) > 1:
            violations.append(("antidiag", t))
    for d in range(-(s - 1), s):
        if sum(g[i, i - d] for i in range(s) if 0 <= i - d < s) > 1:
            violations.append(("diag", d))
    return not violations, violations


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


def ddr_rate_block(gamma, p):
    """The 2p x 2p invariant block of the damped sudoku map whose
    eigenvalues are exactly lam_minus and lam_plus, p times each."""
    core = np.array([[gamma + 5.0, 2.0 * gamma],
                     [-2.0 * gamma, gamma]]) / (5.0 * (1.0 + gamma))
    return np.kron(core, np.eye(p))


# ---------------------------------------------------------------------------
# explicit linearization on the five-block sudoku product space

def _free_mask(inst):
    return ClueProjection(inst.size, inst.clues).free_mask


def sudoku_product_projectors(inst):
    """Dense projectors (PC, PS) onto the constraint-linearization subspace
    and the consensus diagonal of the five-block product space."""
    n = inst.size ** 3
    dim = 5 * n
    free = _free_mask(inst).astype(float)
    pc = np.zeros((dim, dim))
    idx = 4 * n + np.arange(n)
    pc[idx, idx] = free
    ps = np.kron(np.full((5, 5), 0.2), np.eye(n))
    return pc, ps


def build_sudoku_linearization(inst, gamma=None, dim_cap=2000):
    """Dense matrix of the splitting map linearized at a solution.

    gamma=None gives the plain fixed-point map T; otherwise the damped
    map (gamma T + PC) / (1 + gamma).  Refuses product dimensions above
    dim_cap to keep memory predictable.
    """
    n = inst.size ** 3
    dim = 5 * n
    if dim > dim_cap:
        raise ValueError(
            f"product dimension {dim} exceeds dim_cap={dim_cap}; "
            "raise the cap to build this matrix")
    if gamma is not None and not 0.0 < gamma < np.inf:
        raise ValueError(f"damping parameter must be positive, got {gamma}")
    free = _free_mask(inst).astype(float)
    ps = np.kron(np.full((5, 5), 0.2), np.eye(n))
    # T = I - PS - PC + 2 PC PS, assembled without forming dense PC
    t = -ps
    t[4 * n:] += 2.0 * free[:, None] * ps[4 * n:]
    diag = np.arange(dim)
    t[diag, diag] += 1.0
    t[diag[4 * n:], diag[4 * n:]] -= free
    if gamma is None:
        return t
    t *= gamma
    t[diag[4 * n:], diag[4 * n:]] += free
    t /= 1.0 + gamma
    return t


def sudoku_subspace_bases(inst):
    """Row-orthonormal bases (constraint side, consensus diagonal) of the
    two subspaces whose principal angles drive the local rate."""
    n = inst.size ** 3
    dim = 5 * n
    free_idx = np.nonzero(_free_mask(inst))[0]
    p = len(free_idx)
    basis_c = np.zeros((p, dim))
    basis_c[np.arange(p), 4 * n + free_idx] = 1.0
    basis_s = np.zeros((n, dim))
    w = 1.0 / np.sqrt(5.0)
    cols = np.arange(n)
    for block in range(5):
        basis_s[cols, block * n + cols] = w
    return basis_c, basis_s
