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
sets, each applied to its own row.
"""

import csv
import dataclasses
import functools
import math

import numpy as np

from .analysis import ddr_affine_rate

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
    "two_set_step",
]

FEASIBLE = "feasible-found"
STALLED = "stalled"
MAX_ITER = "max-iter"
NON_FINITE = "non-finite"

METHODS = ("sdr", "ddr", "sdr-switched", "altproj")


# ---------------------------------------------------------------------------
# steps: a product-space first projection returns one row, which the
# broadcasts below tile to the state's shape (a no-op on two-set states)

def dr_step(pa, pb, z):
    x = pa(z)
    u = pb(2.0 * x - z)
    return z + u - x, x, u


def dr_step_switched(pa, pb, z):
    """Same update with the projection order reversed."""
    x = pb(z)
    u = np.broadcast_to(pa(2.0 * x - z), x.shape).copy()
    return z + u - x, x, u


def ddr_step(pa, pb, gamma, z):
    """Damped step: move only partway toward the first projection."""
    lam = ddr_affine_rate(gamma)
    if lam == 1.0:
        return dr_step(pa, pb, z)
    x = z + lam * (pa(z) - z)
    u = pb(2.0 * x - z)
    return z + u - x, x, u


def ap_step(pa, pb, z):
    """One round of alternating projections; the next z is x."""
    u = pb(z)
    x = pa(u)
    return np.broadcast_to(x, u.shape).copy(), x, u


_STEPS = {"sdr": dr_step, "sdr-switched": dr_step_switched,
          "altproj": ap_step}


def two_set_step(pa, pb, method, gamma=None):
    """Bind two projections and a method into a step z -> (z_next, x, u)."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    if method == "ddr":
        ddr_affine_rate(gamma)      # reject a bad gamma now, not mid-run
        return functools.partial(ddr_step, pa, pb, gamma)
    return functools.partial(_STEPS[method], pa, pb)


def _consensus(z):
    return z.mean(axis=0)


def _stacked(blocks, z):
    out = np.empty_like(z)
    for i, proj in enumerate(blocks):
        out[i] = proj(z[i])
    return out


def product_step(blocks, method, gamma=None):
    """Bind a list of set projections into a single product-space step."""
    return two_set_step(_consensus, functools.partial(_stacked, list(blocks)),
                        method, gamma)


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
    """Per-iteration scalars plus, when snapshots were kept, residuals of
    every iterate against the final one.

    Residual semantics: z_res and x_res are Frobenius distances to the last
    recorded iterate; u_mismatch counts coordinates of each block's u that
    differ (exact float inequality) from that block's final u, which makes
    finite termination of combinatorial blocks directly visible.
    """

    def __init__(self, n_blocks=1):
        self.n_blocks = int(n_blocks)
        self._z_step = []
        self._objective = []
        self._z = []
        self._x = []
        self._u = []
        self._derived = {}

    def __len__(self):
        return len(self._z_step)

    def append(self, z_step, objective, z=None, x=None, u=None):
        self._z_step.append(float(z_step))
        self._objective.append(float(objective))
        if z is not None:
            self._z.append(np.array(z, dtype=float))
        if x is not None:
            self._x.append(np.array(x, dtype=float))
        if u is not None:
            self._u.append(np.array(u, dtype=float))

    @property
    def z_step(self):
        return np.asarray(self._z_step)

    @property
    def has_snapshots(self):
        return bool(self._z)

    def inject_residuals(self, z_res=None, x_res=None, u_mismatch=None):
        """Attach externally computed residual columns (e.g. from a CSV)."""
        if z_res is not None:
            self._derived["z_res"] = np.asarray(z_res, dtype=float)
        if x_res is not None:
            self._derived["x_res"] = np.asarray(x_res, dtype=float)
        if u_mismatch is not None:
            self._derived["u_mismatch"] = np.asarray(u_mismatch, dtype=float)

    def set_reference(self):
        """Take the final snapshot as the reference and fill residuals."""
        if not self._z:
            raise ValueError(
                "no iterate snapshots recorded; rerun with keep_iterates")
        z_ref = self._z[-1]
        self._derived["z_res"] = np.array(
            [float(np.linalg.norm(zz - z_ref)) for zz in self._z])
        if self._x:
            x_ref = self._x[-1]
            self._derived["x_res"] = np.array(
                [float(np.linalg.norm(xx - x_ref)) for xx in self._x])
        if self._u:
            u_ref = np.atleast_2d(self._u[-1])
            mm = np.zeros((len(self._u), u_ref.shape[0]))
            for t, uu in enumerate(self._u):
                mm[t] = np.count_nonzero(np.atleast_2d(uu) != u_ref, axis=1)
            self._derived["u_mismatch"] = mm

    @property
    def u_mismatch(self):
        if "u_mismatch" not in self._derived:
            self.set_reference()
        return self._derived["u_mismatch"]

    def residuals(self, name):
        if name == "objective":
            return np.asarray(self._objective)
        if name == "z_step":
            return self.z_step
        if name in ("z_res", "x_res"):
            if name not in self._derived:
                self.set_reference()
            return self._derived[name]
        raise ValueError(f"unknown residual quantity {name!r}")

    def _column(self, name):
        if name in self._derived:
            return self._derived[name]
        if self._z:
            self.set_reference()
            return self._derived.get(name)
        return None

    def to_csv(self, path):
        """Write one row per iteration; floats use repr for an exact
        round trip, missing columns are written as nan."""
        n = len(self)
        nan_col = np.full(n, np.nan)
        z_res = self._column("z_res")
        x_res = self._column("x_res")
        mm = self._column("u_mismatch")
        if z_res is None:
            z_res = nan_col
        if x_res is None:
            x_res = nan_col
        if mm is None:
            mm = np.full((n, self.n_blocks), np.nan)
        header = (["k", "z_step", "z_res", "x_res"]
                  + [f"u{i}_mismatch" for i in range(mm.shape[1])]
                  + ["objective"])
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for k in range(n):
                row = [k + 1, repr(float(self._z_step[k])),
                       repr(float(z_res[k])), repr(float(x_res[k]))]
                row += [repr(float(v)) for v in mm[k]]
                row.append(repr(float(self._objective[k])))
                writer.writerow(row)


def read_trace_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"empty trace file {path!r}")
    header = rows[0]
    col = {name: i for i, name in enumerate(header)}
    if "z_step" not in col:
        raise ValueError(f"trace file {path!r} lacks a z_step column")
    u_cols = [name for name in header
              if name.startswith("u") and name.endswith("_mismatch")]
    trace = IterationTrace(n_blocks=max(1, len(u_cols)))
    z_res, x_res, mm = [], [], []
    for row in rows[1:]:
        objective = float(row[col["objective"]]) if "objective" in col else np.nan
        trace.append(z_step=float(row[col["z_step"]]), objective=objective)
        z_res.append(float(row[col["z_res"]]) if "z_res" in col else np.nan)
        x_res.append(float(row[col["x_res"]]) if "x_res" in col else np.nan)
        mm.append([float(row[col[name]]) for name in u_cols])
    trace.inject_residuals(
        z_res=np.asarray(z_res),
        x_res=np.asarray(x_res),
        u_mismatch=np.asarray(mm) if u_cols else None)
    return trace


# ---------------------------------------------------------------------------
# the driver

@dataclasses.dataclass
class RunResult:
    outcome: str
    iterations: int
    z: np.ndarray
    x: np.ndarray
    u: np.ndarray
    candidate: np.ndarray
    trace: IterationTrace


def run(step, z0, policy, feasible=None, keep_iterates=False):
    """Iterate a step function under a stop policy.

    The rounding candidate tested for feasibility is the consensus average
    of z going INTO the step (for product-space states), which is what the
    combinatorial blocks actually saw; for flat states it is the returned x.
    Stopping, checked only once min_iter is reached: feasible candidate
    (when stop_on_feasible), else a z step at or below z_step_tol, which is
    FEASIBLE or STALLED depending on the candidate; exhausting max_iter is
    always MAX_ITER.  The first z step that is not finite ends the run as
    NON_FINITE, whatever min_iter says.
    """
    z = np.array(z0, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("initial state contains non-finite entries")
    trace = None
    outcome = MAX_ITER
    k = 0
    x = u = candidate = None
    while k < policy.max_iter:
        k += 1
        pre_mean = z.mean(axis=0) if z.ndim == 2 else None
        z_new, x, u = step(z)
        candidate = x if pre_mean is None else pre_mean
        step_size = float(np.linalg.norm(z_new - z))
        if u.ndim == 2:
            objective = 0.5 * float(np.sum((u - u.mean(axis=0)) ** 2))
        else:
            objective = 0.5 * float(np.sum((u - x) ** 2))
        if trace is None:
            trace = IterationTrace(n_blocks=u.shape[0] if u.ndim == 2 else 1)
        trace.append(z_step=step_size, objective=objective,
                     z=z_new if keep_iterates else None,
                     x=x if keep_iterates else None,
                     u=u if keep_iterates else None)
        z = z_new
        if not math.isfinite(step_size):
            outcome = NON_FINITE
            break
        if k >= policy.min_iter:
            if (policy.stop_on_feasible and feasible is not None
                    and feasible(candidate)):
                outcome = FEASIBLE
                break
            if step_size <= policy.z_step_tol:
                if feasible is not None and feasible(candidate):
                    outcome = FEASIBLE
                else:
                    outcome = STALLED
                break
    if trace is None:
        trace = IterationTrace()
    return RunResult(outcome=outcome, iterations=k, z=z, x=x, u=u,
                     candidate=candidate, trace=trace)
