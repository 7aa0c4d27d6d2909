"""Douglas-Rachford splitting: plain and damped steps, stop policies, and
the iteration loop.

Conventions shared by every step function: a step maps the governing
variable z to a triple (z_next, x, u) where x came from the first
projection and u from the second.  The damped variant relaxes the first
projection by lam = gamma / (1 + gamma); gamma = inf recovers the plain
method exactly, bit for bit, by delegating to it.

A many-set problem runs the same two-set steps on the product space
(Gravel & Elser's "divide and concur"): z has one row per constraint set,
the first set is the consensus diagonal, reached by the row mean, whose
single row broadcasts against z, and the second is the product of the
sets, each applied to its own row.  A batch of product-space runs adds a
leading run axis, z of shape (runs, blocks, n), which the same steps
carry through when the set projections accept (runs, n) rows.

One loop, `_iterate`, steps every run, a lone row as a single state:
`run_batch` is that loop over a batch, and `run` is its batch of one,
whose `_Recorder` streams what `run` builds its trace from.
A product-space step over lowest-index-tie `GroupProjection`s and
`ClueProjection`s is a function of z alone: once such a run's iterate
equals, bit for bit, the one two steps back (a fixed point or a 2-cycle),
the rest repeats with period 2, so the loop works out the run's exit at
once and reports the orbit's k.  A trace keeps no iterates: `run` streams
each block's last change of u, and the trace fills its other columns by
stepping the run again from the start (full recomputation, the
zero-checkpoint end of Griewank & Walther's revolve trade-off).
"""

import copy
import csv
import dataclasses
import functools
import math
import sys
import time

import numpy as np

from .analysis import ddr_affine_rate
from .constraints import ClueProjection, GroupProjection

__all__ = [
    "FEASIBLE",
    "MAX_ITER",
    "METHODS",
    "NON_FINITE",
    "STALLED",
    "IterationTrace",
    "RunResult",
    "StopPolicy",
    "ap_step",
    "ddr_step",
    "dr_step",
    "dr_step_switched",
    "product_step",
    "read_trace_csv",
    "run",
    "run_batch",
    "two_set_step",
]

FEASIBLE = "feasible-found"
STALLED = "stalled"
MAX_ITER = "max-iter"
NON_FINITE = "non-finite"

METHODS = ("sdr", "ddr", "sdr-switched", "altproj")

_COLUMNS = ("z_step", "objective", "z_res", "x_res", "u_mismatch")


# ---------------------------------------------------------------------------
# steps: a product-space first projection returns one row, which the
# broadcasts below tile to the state's shape (a no-op on two-set states)

# Each expression is evaluated in its written order, the later operations
# in place on the first one's array, which has z's shape: the same bits as
# the plain expression, with fewer arrays made.  A step writes its
# reflection (and ddr its relaxed x) in the array that `reflected(shape)`
# (`relaxed(shape)`) gives: a fresh one by default, a `_Reused` one in a
# bound step.

def _reflect(x, z, r):
    """2x - z, written in r: a consensus row is doubled before it is
    broadcast, an x of z's shape in r itself."""
    if x.shape != z.shape:
        return np.subtract(2.0 * x, z, out=r)
    np.multiply(2.0, x, out=r)
    r -= z
    return r


def _dr_update(x, pb, z, reflected):
    """(z + u - x, x, u) for u = pb(2x - z), the update every
    Douglas-Rachford variant ends with."""
    u = pb(_reflect(x, z, reflected(z.shape)))
    t = z + u
    t -= x
    return t, x, u


def dr_step(pa, pb, z, reflected=np.empty):
    return _dr_update(pa(z), pb, z, reflected)


def dr_step_switched(pa, pb, z, reflected=np.empty):
    """Same update with the projection order reversed."""
    z_next, x, u = _dr_update(pb(z), pa, z, reflected)
    return z_next, x, np.broadcast_to(u, x.shape).copy()


def ddr_step(pa, pb, gamma, z, relaxed=np.empty, reflected=np.empty):
    """Damped step: move only partway toward the first projection."""
    lam = ddr_affine_rate(gamma)
    if lam == 1.0:
        return dr_step(pa, pb, z, reflected)
    x = np.subtract(pa(z), z, out=relaxed(z.shape))
    x *= lam
    x += z      # z + lam * (pa(z) - z): addition commutes, bit for bit
    return _dr_update(x, pb, z, reflected)


def ap_step(pa, pb, z):
    """One round of alternating projections; the next z is x."""
    u = pb(z)
    x = pa(u)
    return np.broadcast_to(x, u.shape).copy(), x, u


_STEPS = {"sdr": dr_step, "sdr-switched": dr_step_switched}


class _Reused:
    """Gives one array of a shape again on every call while nothing but
    this object holds it or a view of it (every view holds a reference to
    it, so its reference count is then back at its value of when it was
    new), and a new one otherwise.  A loop that drops what a step made
    writes warm memory instead of faulting in fresh pages every step."""

    def __init__(self):
        self._array = None
        self._unshared = None   # the array's reference count when unshared

    def __call__(self, shape):
        if self._array is None or self._array.shape != shape or \
                sys.getrefcount(self._array) != self._unshared:
            self._array = np.empty(shape)
            self._unshared = sys.getrefcount(self._array)
        return self._array


def two_set_step(pa, pb, method, gamma=None):
    """Bind two projections and a method into a step z -> (z_next, x, u),
    which reuses its reflection's array, and ddr's relaxed x, while nothing
    else holds them."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    if method == "altproj":
        return functools.partial(ap_step, pa, pb)
    if method == "ddr":
        ddr_affine_rate(gamma)      # reject a bad gamma now, not mid-run
        return functools.partial(ddr_step, pa, pb, gamma, relaxed=_Reused(),
                                 reflected=_Reused())
    return functools.partial(_STEPS[method], pa, pb, reflected=_Reused())


def _consensus(z):
    """Mean of the block rows of z (blocks, n); for a (runs, blocks, n)
    batch, each run's mean as a (runs, 1, n) array that broadcasts
    against z.  This is z.mean's own sum and division, bit for bit,
    without its argument handling, the division in place."""
    mean = np.add.reduce(z, axis=-2, keepdims=z.ndim == 3)
    mean /= z.shape[-2]
    return mean


class _Stacked:
    """The product of the set projections: each block's projection of its
    own row(s) of z, as an array of z's shape, (blocks, n) or (runs,
    blocks, n).

    Each block's path is fixed here.  The lowest-tie `GroupProjection`
    blocks merge into one projection of the flattened rows
    (`GroupProjection.merged`), whose call writes every block.  Each other
    block projects its row(s) into its own slice: a clue clamp or a
    random-tie group (one run only) in place, any other callable by a
    copy.  `pure` says every unmerged block is a clue clamp, making the
    product a function of z alone.  u is a `_Reused` array.
    """

    def __init__(self, blocks):
        blocks = list(blocks)
        merged = {i: p for i, p in enumerate(blocks)
                  if isinstance(p, GroupProjection) and p.tie_seed is None}
        self._merged = GroupProjection.merged(merged, len(blocks)) \
            if merged else None
        self._rest = [(i, p if isinstance(p, (ClueProjection, GroupProjection))
                       else functools.partial(_copied, p))
                      for i, p in enumerate(blocks) if i not in merged]
        self.pure = all(isinstance(p, ClueProjection) for _, p in self._rest)
        self._u = _Reused()

    def __call__(self, z):
        u = self._u(z.shape)
        if self._merged is not None:
            rows = z.reshape(z.shape[:-2] + (-1,))
            self._merged(rows, out=u.reshape(rows.shape))
        for i, proj in self._rest:
            proj(z[..., i, :], out=u[..., i, :])
        return u


def _copied(proj, x, out):
    out[...] = proj(x)


class _PureStep(functools.partial):
    """A step whose output is a function of z alone: no random stream, no
    state.  The run loop ends its exact orbits early (see `_iterate`)."""


def product_step(blocks, method, gamma=None):
    """Bind a list of set projections into a single product-space step.
    When every block is a lowest-index-tie `GroupProjection` or a
    `ClueProjection`, the step is marked as a function of z alone."""
    stacked = _Stacked(blocks)
    step = two_set_step(_consensus, stacked, method, gamma)
    return _PureStep(step) if stacked.pure else step


# ---------------------------------------------------------------------------
# stop policy and per-iteration trace

@dataclasses.dataclass(frozen=True)
class StopPolicy:
    max_iter: int = 10_000
    min_iter: int = 100
    z_step_tol: float = 1e-12
    stop_on_feasible: bool = True

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not 0 <= self.min_iter <= self.max_iter:
            raise ValueError(
                f"min_iter must lie in [0, max_iter], got {self.min_iter}")
        if not self.z_step_tol >= 0.0:
            raise ValueError(
                f"z_step_tol must be >= 0, got {self.z_step_tol}")


class IterationTrace:
    """Per-iteration columns.  z_step is recorded as the run goes; the
    others are given to the constructor or filled on first read by one
    replay of the run (`_fill`).  objective is half the squared spread of
    u.  The reference columns compare every iterate with the last: z_res
    and x_res are Frobenius distances, and u_mismatch (iterations x
    blocks) counts the coordinates of each block's u that differ (exact
    float inequality) from its final u.  `run` also streams each block's
    last change of u (`u_last_change`), which shows finite termination of
    combinatorial blocks without a replay; a trace built from columns
    reads it off its u_mismatch.  A run that ends in an exact orbit
    records rows up to its final iterate; past them, row i is row i - 2.
    """

    def __init__(self, n_blocks=1, **columns):
        unknown = set(columns).difference(_COLUMNS)
        if unknown:
            raise ValueError(f"unknown trace columns {sorted(unknown)}")
        self.n_blocks = int(n_blocks)
        self._table = {"z_step": []}
        self._table.update((name, list(v)) for name, v in columns.items())
        if len({len(v) for v in self._table.values()}) > 1:
            raise ValueError("trace columns differ in length")
        mismatch = self._table.get("u_mismatch")
        if mismatch and np.shape(mismatch)[1:] != (self.n_blocks,):
            raise ValueError(f"u_mismatch rows must be {self.n_blocks} wide")
        self._replay = None     # (z0, step, final (z, x, u)) of a run
        # a run sets its length and the last changes of u it streamed
        self._length, self._last_change = len(self._table["z_step"]), None
        if mismatch is not None:
            changed = np.reshape(mismatch, (-1, self.n_blocks)) != 0
            rows = np.arange(len(changed))[:, None]
            self._last_change = np.where(changed, rows, -1).max(0, initial=-1)

    def __len__(self):
        return self._length

    def _fill(self, objective=False, reference=False):
        """Derive the objective and/or the reference columns by stepping a
        fresh copy of the run's step (a step that is a function of z alone
        is its own) from z0 over the recorded rows; the replay must end at
        the run's final z, bit for bit."""
        if self._replay is None:
            raise ValueError(
                "the run cannot be replayed; rerun with keep_iterates")
        if not (objective or reference):
            return
        z, step, (z_ref, x_ref, u_ref) = self._replay
        if not isinstance(step, _PureStep):
            step = copy.deepcopy(step)  # its random streams from the start
        u_ref = np.atleast_2d(u_ref)
        obj, z_res, x_res, mismatch = [], [], [], []
        for _ in range(len(self._table["z_step"])):
            z, x, u = step(z)
            if objective:
                obj.append(_objective(x, u))
            if reference:
                z_res += _row_norms((z - z_ref).reshape(1, -1))
                x_res += _row_norms((x - x_ref).reshape(1, -1))
                mismatch.append((u.reshape(u_ref.shape) != u_ref).sum(-1))
            x = u = None    # lets `_Stacked` reuse the array of u
        if z.tobytes() != z_ref.tobytes():
            raise ValueError("the replay did not reach the run's final z; "
                             "its step depends on more than its copy's state")
        if objective:
            self._table["objective"] = obj
        if reference:
            self._table["z_res"] = z_res
            self._table["x_res"] = x_res
            self._table["u_mismatch"] = np.array(mismatch, dtype=float)

    def set_reference(self):
        """Check that z_res, x_res and u_mismatch, the distances to the
        final iterate, can be filled; each is filled on first read."""
        self._fill()

    def residuals(self, name):
        """Column `name` as a new float array; a missing objective or
        reference column is filled by a replay on first use."""
        if name not in _COLUMNS:
            raise ValueError(f"unknown residual quantity {name!r}")
        if name not in self._table:
            self._fill(objective=name == "objective",
                       reference=name != "objective")
        recorded = np.asarray(self._table[name], dtype=float)
        rows, n = np.arange(len(self)), len(recorded)
        rows[n:] = n - 2 + (rows[n:] - n) % 2
        return recorded[rows]

    @property
    def z_step(self):
        return self.residuals("z_step")

    @property
    def u_last_change(self):
        """Per block, the last row whose u differs from the next row's, or
        -1: streamed by `run`, or read off a given u_mismatch column."""
        if self._last_change is None:
            raise ValueError("the trace was built without a u_mismatch column")
        # past the recorded rows a block changes on every row when the
        # last two recorded rows differ
        n = len(self._table["z_step"])
        last = self._last_change.copy()
        last[last == n - 2] = len(self) - 2
        return last

    def to_csv(self, path):
        """Write one row per iteration; floats use repr for an exact round
        trip, and columns that were not recorded and that no replay can fill
        are nan."""
        if self._replay is not None:    # fill what it can, in one replay
            self._fill(objective="objective" not in self._table,
                       reference="z_res" not in self._table)
        n = len(self)
        cols = {"objective": np.full(n, np.nan), "z_res": np.full(n, np.nan),
                "x_res": np.full(n, np.nan),
                "u_mismatch": np.full((n, self.n_blocks), np.nan),
                **{name: self.residuals(name) for name in self._table}}
        header = (["k", "z_step", "z_res", "x_res"]
                  + [f"u{i}_mismatch" for i in range(self.n_blocks)]
                  + ["objective"])
        rows = zip(cols["z_step"], cols["z_res"], cols["x_res"],
                   cols["u_mismatch"], cols["objective"])
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for k, (step, z_res, x_res, mm, obj) in enumerate(rows, 1):
                writer.writerow([k] + [repr(float(v)) for v in
                                       (step, z_res, x_res, *mm, obj)])


def read_trace_csv(path):
    """Build a trace from a `to_csv` file.  Absent columns read as nan,
    except u_mismatch, which is then left out; its block columns must be
    u0_mismatch, u1_mismatch, ... in order.  A column of any other name,
    or one that repeats, is an error."""
    with open(path, newline="") as fh:
        header, *body = list(csv.reader(fh)) or [[]]
    if "z_step" not in header:
        raise ValueError(f"trace file {path!r} lacks a z_step column")
    u_names = [name for name in header
               if name.startswith("u") and name.endswith("_mismatch")]
    if u_names != [f"u{i}_mismatch" for i in range(len(u_names))]:
        raise ValueError(f"{path}: the u columns {u_names} are not "
                         f"u0_mismatch, u1_mismatch, ... in order")
    for i, name in enumerate(header):
        if name not in ("k", *_COLUMNS[:-1], *u_names):
            raise ValueError(f"{path}: unknown column {name!r}")
        if name in header[:i]:
            raise ValueError(f"{path}: column {name!r} repeats")
    names = (*_COLUMNS[:-1], *u_names)
    values = np.full((len(body), len(names)), np.nan)
    at = [(j, header.index(name)) for j, name in enumerate(names)
          if name in header]
    for line, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise ValueError(f"{path}:{line}: {len(row)} fields, "
                             f"the header has {len(header)}")
        for j, i in at:
            try:
                values[line - 2, j] = float(row[i])
            except ValueError:
                raise ValueError(f"{path}:{line}: column {names[j]}: "
                                 f"{row[i]!r} is not a number") from None
    columns = dict(zip(_COLUMNS, values.T[:4]))
    if u_names:
        columns["u_mismatch"] = values[:, 4:]
    return IterationTrace(max(1, len(u_names)), **columns)


# ---------------------------------------------------------------------------
# the driver

@dataclasses.dataclass
class RunResult:
    """A finished run.  orbit_k is the iteration at which z_k first equalled
    z_{k-2} bit for bit; None when no orbit closed or the step was stepped
    in full."""

    outcome: str
    iterations: int
    z: np.ndarray
    x: np.ndarray
    u: np.ndarray
    candidate: np.ndarray
    trace: IterationTrace
    orbit_k: int = None


def _objective(x, u):
    """Half the squared spread of u: about its row mean for a
    product-space state, about x for a two-set one."""
    spread = u - (u.mean(axis=0) if u.ndim == 2 else x)
    return 0.5 * float(np.sum(spread ** 2))


def _candidate(z, x):
    """A batch's rounding candidates: the mean of the block rows of z going
    into the step for product-space states, the step's x for two-set ones."""
    return _consensus(z)[:, 0] if z.ndim == 3 else x


def _orbit_exit(policy, first, step_size, found):
    """(outcome, iterations) of a run whose every iteration from `first` on
    repeats, with period 2, one of two phases of equal step size.
    found(k) says whether iteration k's candidate is feasible; it is
    called for at most two iterations, one of each phase."""
    first = max(first, policy.min_iter)
    if first > policy.max_iter:
        return MAX_ITER, policy.max_iter
    if step_size <= policy.z_step_tol:
        return (FEASIBLE if found(first) else STALLED), first
    if policy.stop_on_feasible:
        for k in range(first, min(first + 2, policy.max_iter + 1)):
            if found(k):
                return FEASIBLE, k
    return MAX_ITER, policy.max_iter


# Step norms sum a vector's squares as BLAS dots over consecutive blocks of
# this many elements, added in order.  A dot this short runs on one thread,
# so the bits do not depend on the machine's BLAS thread count, and a
# vector of at most one block has np.linalg.norm's bits.
_DOT_BLOCK = 8192


def _row_norms(d):
    """The Frobenius norm of each row of d, as floats: the square root of
    the sum, in order, of the BLAS dots of its contiguous blocks (a strided
    dot sums in another order): ndarray.dot for one row, else a stack of
    (1, m) @ (m, 1) products, whose fixed cost is a few microseconds more."""
    d = np.ascontiguousarray(d)
    if len(d) == 1:
        row = d[0, :_DOT_BLOCK]
        total = row.dot(row)
        for i in range(_DOT_BLOCK, d.shape[1], _DOT_BLOCK):
            row = d[0, i:i + _DOT_BLOCK]
            total += row.dot(row)
        return [math.sqrt(total)]   # sqrt is correctly rounded, as np.sqrt
    block = d[:, :_DOT_BLOCK]
    total = (block[:, None, :] @ block[:, :, None])[:, 0, 0]
    for i in range(_DOT_BLOCK, d.shape[1], _DOT_BLOCK):
        block = d[:, i:i + _DOT_BLOCK]
        total += (block[:, None, :] @ block[:, :, None])[:, 0, 0]
    return np.sqrt(total).tolist()


def _iterate(step, z, policy, feasible, record=None):
    """The one loop over iterations: step the batch z (runs, ...) under
    `policy`, drop each run when it stops, and return each run's (outcome,
    iterations, wall_s, orbit_k), wall_s being its share of the stepping
    time and orbit_k the k of a closed orbit, else None.

    A lone row is stepped as a single state, `step(z[0])`, with the run
    axis put back on the result: this is the one place that picks the
    single-state or the batched kernels, from the active row count.
    `feasible` maps candidate rows to one bool each, or is None.  For a
    `_PureStep`, a row whose z_k equals z_{k-2} bit for bit (the z going
    into the previous step is held by reference) has closed an orbit at k
    and leaves with its exit from `_orbit_exit`.  `record`, the
    `_Recorder` of a batch of one, is called with each step's size.
    """
    if not np.all(np.isfinite(z)):
        raise ValueError("initial state contains non-finite entries")
    pure = isinstance(step, _PureStep)
    outcomes = [MAX_ITER] * len(z)
    iterations = [policy.max_iter] * len(z)
    orbits = [None] * len(z)
    wall = np.zeros(len(z))
    active = np.arange(len(z))
    # the previous iteration's step sizes, and the z going into it
    back, z_back = [math.nan] * len(z), None
    diff = np.empty(z.shape)        # the step differences, reused
    t = time.perf_counter()         # when the active set last changed
    k = 0
    while k < policy.max_iter:
        k += 1
        # dropping u, and x but for a two-set candidate, before the next
        # step lets `_Stacked` reuse its array
        if len(z) == 1:
            z_new, x = step(z[0])[:2]
            z_new, x = z_new[None], x[None]
        else:
            z_new, x = step(z)[:2]
        x = x if z.ndim == 2 else None
        np.subtract(z_new, z, out=diff)
        steps = _row_norms(diff.reshape(len(diff), -1))
        if record is not None:
            record(steps[0])
        # the stop rule as {row: (outcome, k)}, most often decided on the
        # floats: no row ends while the steps have a finite sum and, from
        # min_iter on, neither the oracle nor a stall is due
        exits = {}
        if not sum(steps) < math.inf or k >= policy.min_iter and (
                policy.stop_on_feasible or min(steps) <= policy.z_step_tol):
            norms = np.array(steps)
            finite = norms < np.inf         # neither inf nor nan
            exits = dict.fromkeys((~finite).nonzero()[0].tolist(),
                                  (NON_FINITE, k))
            if k >= policy.min_iter:
                stalled = finite & (norms <= policy.z_step_tol)
                exits.update(dict.fromkeys(stalled.nonzero()[0].tolist(),
                                           (STALLED, k)))
                asked = (finite if policy.stop_on_feasible
                         else stalled).nonzero()[0]
                if asked.size and feasible is not None:
                    exits.update((r, (FEASIBLE, k)) for r, ok in zip(
                        asked.tolist(), feasible(_candidate(z, x)[asked]))
                        if ok)
        # a repeated step size is the cheap test for z_k == z_{k-2}
        for r, s in enumerate(steps if pure else ()):
            if s != back[r] or not np.array_equal(z_new[r], z_back[r]):
                continue
            if r not in exits:  # k + 1, k + 3, ... start from z_new[r]
                exits[r] = _orbit_exit(
                    policy, k + 1, steps[r],
                    lambda j: feasible is not None and feasible(_candidate(
                        (z, z_new)[(j - k) % 2][r:r + 1], None))[0])
            orbits[active[r]] = k
        z_back = z if pure else None    # only a pure step's orbit closes
        back, z = steps, z_new
        if exits:
            now = time.perf_counter()
            wall[active] += (now - t) / len(active)
            t = now
            for r, (outcome, end) in exits.items():
                outcomes[active[r]], iterations[active[r]] = outcome, end
            if len(exits) == len(active):
                break
            kept = [r for r in range(len(z)) if r not in exits]
            z, active = z[kept], active[kept]
            back, diff = [back[r] for r in kept], diff[:len(z)]
            if pure:
                z_back = z_back[kept]
    else:
        wall[active] += (time.perf_counter() - t) / len(active)
    return list(zip(outcomes, iterations, wall.tolist(), orbits))


class _Recorder:
    """The record of the loop's batch of one: `step` is the run's own step,
    which keeps the latest iteration's (z in, (z, x, u)) as `last`, and
    each call appends that iteration's step size to `z_step`.  Each row's
    u is compared, block by block, with the previous row's, held in one
    buffer that takes a block's new u only when it changed; `last_change`
    is each block's last row that differs from the next one, or -1."""

    def __init__(self, step, n_blocks):
        self._step, self.last_change = step, np.full(n_blocks, -1)
        self.z_step, self.last, self._u = [], None, None

    def step(self, z):
        self.last = None    # lets `_Stacked` reuse the array of the last u
        iterates = self._step(z)
        self.last = z, iterates
        return iterates

    def __call__(self, step_size):
        self.z_step.append(step_size)
        u = self.last[1][2].reshape(len(self.last_change), -1)
        if self._u is None:
            self._u = u.copy()
        changed = np.logical_or.reduce(u != self._u, axis=1)
        if changed.any():   # the row before this one differs from it
            self.last_change[changed] = len(self.z_step) - 2
            np.copyto(self._u, u)   # the other blocks are equal


def run(step, z0, policy, feasible=None, keep_iterates=False):
    """Iterate a step function under a stop policy (`_iterate` on a batch
    of one, which steps it as a single state, with a `_Recorder`).

    The rounding candidate tested for feasibility is the consensus average
    of z going INTO the step (for product-space states), which is what the
    combinatorial blocks actually saw; for flat states it is the returned x.
    Stopping, checked only once min_iter is reached: feasible candidate
    (when stop_on_feasible), else a z step at or below z_step_tol, which is
    FEASIBLE or STALLED depending on the candidate; exhausting max_iter is
    always MAX_ITER.  The first z step that is not finite ends the run as
    NON_FINITE, whatever min_iter says.  Once an exact orbit closes (see
    `_iterate`), the trace records at most one more row.  The trace records
    each z step and each block's last change of u; with keep_iterates it
    can replay the run to fill its other columns.
    """
    z = np.array(z0, dtype=float)
    if z.ndim not in (1, 2):
        raise ValueError(f"z0 must have shape (n,) or (blocks, n), got "
                         f"{z.shape}; a batch of runs goes to run_batch")
    n_blocks = z.shape[0] if z.ndim == 2 else 1
    pure = isinstance(step, _PureStep)
    # a step with a random stream replays from a copy of its first state
    replay = copy.deepcopy(step) if keep_iterates and not pure else step
    record = _Recorder(step, n_blocks)
    [(outcome, k, _, orbit_k)] = _iterate(
        _PureStep(record.step) if pure else record.step, z[None], policy,
        None if feasible is None else (lambda rows: [feasible(rows[0])]),
        record)
    # past an orbit closed at orbit_k, row i repeats row i - 2; the last
    # row recorded is the final iterate: when k - orbit_k is odd, one step
    # from z_{orbit_k}, whose size is orbit_k's, bit for bit
    if orbit_k is not None and (k - orbit_k) % 2:
        record.step(record.last[1][0])
        record(record.z_step[-1])
    z_in, (z_end, x, u) = record.last
    trace = IterationTrace(n_blocks, z_step=record.z_step)
    trace._length, trace._last_change = k, record.last_change
    if keep_iterates:   # z is this run's own copy of z0
        trace._replay = (z, replay, (z_end, x, u))
    # a two-set run's candidate is its x itself
    candidate = x if z_in.ndim == 1 else _consensus(z_in)
    return RunResult(outcome, k, z_end, x, u, candidate, trace, orbit_k)


def run_batch(step, z0s, policy, feasible):
    """`_iterate` over z0s (runs, blocks, n), with no trace: each run ends
    as `run` would; one (outcome, iterations, wall_s) per run, in order,
    the wall_s shares summing to the stepping time.  `step` and `feasible`
    take the leading run axis, as those of `product_step` and `Problem` do,
    and `step` a single state (blocks, n), which a lone row is stepped as.
    A random-tie step takes single states only: over two or more rows it
    raises at the first step.  An empty batch returns [] without a step.
    """
    if np.ndim(z0s) != 3:
        raise ValueError(f"z0s must have shape (runs, blocks, n), got "
                         f"{np.shape(z0s)}")
    if not len(z0s):
        return []
    # no name holds the copy, so it is freed once the loop steps past it
    return [row[:3] for row in _iterate(step, np.array(z0s, dtype=float),
                                        policy, feasible)]
