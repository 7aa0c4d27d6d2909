"""Small helpers that only the tests use: an instance's clue grid, its
text form and its free coordinates, a planted solution grid, a digit grid
or a 0/1 board as a flat vector, the slow queens validator, the per-group
loop oracle of the group projections, a bench CSV read back, the spectral
radius of a matrix, the textbook oracles of the product step
(`oracle_step`) and of a run (`reference_run`), the closed-form spectrum
of the damped sudoku map (`ddr_rate_eigenvalues`, `ddr_rate_block`), and
the dense 4x4 oracles of the linearized sudoku map that
`analysis.linear_model` reduces to one 5x5 block per coordinate class.
"""

import csv
import functools

import numpy as np

from drsplit.bench import BenchRecord, BenchReport
from drsplit.constraints import ClueProjection, GroupProjection
from drsplit.puzzles import format_grid


def clue_grid(inst):
    """An instance's clues as a digit grid, -1 on unclued cells."""
    grid = np.full((inst.size, inst.size), -1, dtype=int)
    for i, j, k in inst.clues:
        grid[i, j] = k
    return grid


def format_sudoku(inst):
    """Text form of an instance's clue grid, which parse_sudoku reads back."""
    return format_grid(clue_grid(inst))


def free_mask(inst):
    """The coordinates of an instance's indicator cube that no clue fixes:
    every digit of every unclued cell, as a flat bool vector."""
    s = inst.size
    mask = np.ones((s, s, s), dtype=bool)
    for i, j, _ in inst.clues:
        mask[i, j] = False
    return mask.ravel()


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


def first_argmax(v):
    """Index of the first NaN, else of the first largest entry (the rule of
    np.argmax), found by a plain loop."""
    for i, a in enumerate(v):
        if a != a:
            return i
    best = 0
    for i, a in enumerate(v):
        if a > v[best]:
            best = i
    return best


def loop_project(table, x, allow_zero, draws=None):
    """The group projection of a vector, one group at a time; allow_zero
    is one bool or one per group.  With `draws` (one uniform per table
    cell, as the random tie-break draws them), the tie winner is the entry
    with the largest draw among the real entries equal to the group's
    maximum.  A group holding a NaN spikes its first NaN under either
    rule."""
    out = x.copy()
    table = np.asarray(table)
    zero = np.broadcast_to(allow_zero, len(table))
    for r, row in enumerate(table):
        g = [int(i) for i in row if i >= 0]
        v = [float(x[i]) for i in g]
        k = first_argmax(v)
        if draws is not None and v[k] == v[k]:
            ties = [i for i, a in enumerate(v) if a == v[k]]
            k = max(ties, key=lambda i: draws[r][i])
        for i in g:
            out[i] = 0.0
        if not zero[r] or v[k] >= 0.5:
            out[g[k]] = 1.0
    return out


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


# ---------------------------------------------------------------------------
# the textbook oracles of the product step and of a run

def stacked_oracle(blocks, z):
    """The product of the set projections as a per-block loop: block i's
    projection of row i of z (blocks, n), or of rows [:, i] of a batch
    (runs, blocks, n), assigned into a new array of z's shape."""
    out = np.empty_like(z)
    z_rows, out_rows = z.swapaxes(0, -2), out.swapaxes(0, -2)
    for i, proj in enumerate(blocks):
        out_rows[i] = proj(z_rows[i])
    return out


def oracle_step(blocks, method, gamma, z):
    """One product-space step as plain formulas: the consensus is the mean
    of the block rows, the other set the product of `blocks`."""
    def pa(v):
        return v.mean(axis=-2, keepdims=v.ndim == 3)

    def pb(v):
        return stacked_oracle(blocks, v)
    if method == "altproj":
        u = pb(z)
        x = pa(u)
        return np.broadcast_to(x, u.shape).copy(), x, u
    if method == "sdr-switched":
        x = pb(z)
        u = np.broadcast_to(pa(2.0 * x - z), x.shape).copy()
        return z + u - x, x, u
    if method == "sdr" or gamma == np.inf:
        x = pa(z)
    else:
        x = z + gamma / (1.0 + gamma) * (pa(z) - z)
    u = pb(2.0 * x - z)
    return z + u - x, x, u


class Textbook:
    """The textbook product step, z -> oracle_step(blocks, method, gamma,
    z).  It is a function of z alone (`pure`) when every block is a
    lowest-tie group projection or a clue clamp, and it then keeps each
    start's steps and runs, so that `reference_run` steps a start once
    whatever the policies it runs it under."""

    def __init__(self, blocks, method, gamma=None):
        self.blocks, self.method, self.gamma = list(blocks), method, gamma
        self.pure = all(isinstance(p, ClueProjection) or (
            isinstance(p, GroupProjection) and p.tie_break == "lowest")
            for p in self.blocks)
        self._kept = {}

    def __call__(self, z):
        return oracle_step(self.blocks, self.method, self.gamma, z)

    def kept(self, z0):
        """(z0's steps so far, its runs by (iterations, outcome))."""
        if not self.pure:
            return [], {}
        return self._kept.setdefault((z0.shape, z0.tobytes()), ([], {}))


class Reference:
    """A reference run: its outcome and iterations, the last step's z, x
    and u, the candidate the feasibility check saw going into it (the mean
    of the block rows of z for a product-space state, x for a two-set one)
    and the trace's z_step column.  The other columns, each block's last
    change of u and orbit_k are worked out on first read."""

    def __init__(self, outcome, steps, pure):
        self.outcome, self.iterations = outcome, len(steps)
        self._steps, self._pure = steps, pure    # (z in, z, x, u, size)
        z_in, self.z, self.x, self.u, _ = steps[-1]
        self.candidate = z_in.mean(axis=0) if z_in.ndim == 2 else self.x
        self.z_step = np.array([size for *_, size in steps])

    @functools.cached_property
    def objective(self):    # half the squared spread of u
        return np.array([0.5 * float(np.sum(
            (u - (u.mean(axis=0) if u.ndim == 2 else x)) ** 2))
            for _, _, x, u, _ in self._steps])

    @functools.cached_property
    def z_res(self):
        return np.array([np.linalg.norm(z - self.z)
                         for _, z, *_ in self._steps])

    @functools.cached_property
    def x_res(self):
        return np.array([np.linalg.norm(x - self.x)
                         for _, _, x, *_ in self._steps])

    @functools.cached_property
    def u_mismatch(self):
        final = np.atleast_2d(self.u)
        return np.array([np.count_nonzero(np.atleast_2d(u) != final, axis=1)
                         for *_, u, _ in self._steps], dtype=float)

    @functools.cached_property
    def u_last_change(self):    # per block, the last row unlike the next
        us = [np.atleast_2d(u) for *_, u, _ in self._steps]
        last = np.full(len(us[-1]), -1)
        for row, (a, b) in enumerate(zip(us, us[1:])):
            last[(a != b).any(axis=1)] = row
        return last

    @functools.cached_property
    def orbit_k(self):      # the first k with z_k == z_{k-2}, bit for bit
        if not self._pure:
            return None
        path = [self._steps[0][0]] + [z for _, z, *_ in self._steps]
        return next((k for k in range(2, len(path))
                     if path[k].tobytes() == path[k - 2].tobytes()), None)


def reference_run(step, z0, policy, feasible=None, pure=None):
    """The run that `splitting.run`, each row of `splitting.run_batch` and
    each row record of the loop must equal, bit for bit, as a `Reference`:
    `step` (a `Textbook`, or any other step, such as a two-set one or a
    seeded twin of a random-tie one) stepped in full from z0 under the
    stop rule as written.  Each z step, and each distance to the final z
    and x, is np.linalg.norm's (one BLAS dot, as the library's norms are
    for the at most 8192 elements of a test run's state).  orbit_k is
    read for a pure step: a `Textbook` one that says so, or any step given
    with pure=True; it is None for any other.
    """
    pure = getattr(step, "pure", False) if pure is None else pure
    z = np.array(z0, dtype=float)
    steps, runs = step.kept(z) if isinstance(step, Textbook) else ([], {})
    outcome = "max-iter"
    for k in range(1, policy.max_iter + 1):
        if len(steps) < k:
            z_new, x, u = (np.array(a, dtype=float) for a in step(z))
            steps.append((z, z_new, x, u, float(np.linalg.norm(z_new - z))))
        z_in, z, x, _, size = steps[k - 1]
        if not np.isfinite(size):
            outcome = "non-finite"
            break
        if k < policy.min_iter:
            continue
        stalled = size <= policy.z_step_tol
        if (feasible is not None and (policy.stop_on_feasible or stalled)
                and feasible(z_in.mean(axis=0) if z_in.ndim == 2 else x)):
            outcome = "feasible-found"
            break
        if stalled:
            outcome = "stalled"
            break
    if (k, outcome) not in runs:
        runs[k, outcome] = Reference(outcome, steps[:k], pure)
    return runs[k, outcome]


def ddr_rate_eigenvalues(gamma):
    """The four eigenvalue levels (0, lam_minus, gamma/(1+gamma), lam_plus)
    of the damped sudoku map; real only for 0 < gamma <= 5/4."""
    if not 0.0 < gamma <= 1.25:
        raise ValueError(
            f"closed form is real only for 0 < gamma <= 5/4, got {gamma}")
    disc = np.sqrt(25.0 - 16.0 * gamma * gamma)
    denom = 10.0 * (1.0 + gamma)
    lam_minus = (2.0 * gamma + 5.0 - disc) / denom
    lam_plus = (2.0 * gamma + 5.0 + disc) / denom
    return (0.0, float(lam_minus), gamma / (1.0 + gamma), float(lam_plus))


def ddr_rate_block(gamma, p):
    """The 2p x 2p invariant block of the damped sudoku map whose
    eigenvalues are exactly lam_minus and lam_plus, p times each."""
    core = np.array([[gamma + 5.0, 2.0 * gamma],
                     [-2.0 * gamma, gamma]]) / (5.0 * (1.0 + gamma))
    return np.kron(core, np.eye(p))


# ---------------------------------------------------------------------------
# explicit linearization on the five-block sudoku product space

def sudoku_product_projectors(inst):
    """Dense projectors (PC, PS) onto the constraint-linearization subspace
    and the consensus diagonal of the five-block product space."""
    n = inst.size ** 3
    dim = 5 * n
    free = free_mask(inst).astype(float)
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
    free = free_mask(inst).astype(float)
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

