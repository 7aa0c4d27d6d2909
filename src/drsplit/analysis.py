"""Analysis toolkit: empirical rate fitting, finite-termination detection,
and the step linearized at a solution, with its spectrum and rate.

At a solution the step splits into one m x m block per coordinate, which
depends on the method and on (m, p): m blocks cover the coordinate and p
of them pass it through (`linear_model`, `coordinate_classes`).  For sdr
the rate is sqrt(p/m), the cosine of the Friedrichs angle between the
consensus diagonal and the pass-through subspace: sqrt(5)/5 on sudoku at
every size (m = 5, p <= 1) and 0, finite termination, on queens (m = 4,
p = 0).
"""

import dataclasses
import math
import re

import numpy as np

__all__ = [
    "SUDOKU_SDR_RATE",
    "InsufficientDataError",
    "RateFit",
    "auto_tail_fraction",
    "coordinate_classes",
    "ddr_affine_rate",
    "detect_finite_termination",
    "dominant_rate",
    "fit_linear_rate",
    "is_semi_simple",
    "linear_model",
    "numerical_rank",
    "spectrum",
    "theoretical_rate",
]

SUDOKU_SDR_RATE = np.sqrt(5.0) / 5.0


class InsufficientDataError(RuntimeError):
    """Too few clean residual points for a meaningful rate fit."""


@dataclasses.dataclass(frozen=True)
class RateFit:
    slope: float
    r_squared: float
    window: tuple
    n_points: int


# residuals this close to the reference iterate carry mostly rounding
# noise; never fit through them
_FIT_FLOOR = 1e-11
# a fit's tail starts where the residual first drops below this
_TAIL_THRESHOLD = 1e-4
# z steps at or below this count as frozen
_FREEZE_TOL = 1e-14
# eigenvalues this close are one level (eigvals splits a Jordan pair by
# about 1e-8); a level or its imaginary part this close to 0 is 0
_LEVEL_TOL = 1e-6
_ZERO_TOL = 1e-12
_FIT_SKIP_LAST = 5
_FIT_MIN_RECORDS = 30
_FIT_MIN_POINTS = 10


def fit_linear_rate(trace, quantity, tail_fraction):
    """Least-squares slope of log10(residual) over the trailing window.

    tail_fraction in (0, 1] selects how much of the run to fit; points at
    or below the noise floor and the last few (reference-polluted) records
    are always excluded.  When the requested window holds fewer than 10
    clean points the fit falls back to the last 10 clean points overall.
    A series that ends above the noise floor has no decay to 0 to fit.
    """
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError(
            f"tail_fraction must lie in (0, 1], got {tail_fraction}")
    r = np.asarray(trace.residuals(quantity), dtype=float)
    n = len(r)
    if n < _FIT_MIN_RECORDS:
        raise InsufficientDataError(
            f"{n} records; need at least {_FIT_MIN_RECORDS}")
    clean = (r > _FIT_FLOOR) & (np.arange(n) < n - _FIT_SKIP_LAST)
    usable = np.nonzero(clean)[0]
    k0 = n - int(math.ceil(tail_fraction * n))
    pts = usable[usable >= k0]
    if len(pts) < _FIT_MIN_POINTS:
        pts = usable[-_FIT_MIN_POINTS:]
    if len(pts) < _FIT_MIN_POINTS:
        raise InsufficientDataError(
            f"only {len(pts)} residuals above the {_FIT_FLOOR} noise floor")
    if not r[-1] <= _FIT_FLOOR:
        raise InsufficientDataError(
            f"{quantity} ends at {float(r[-1])!r}, above the noise floor")
    y = np.log10(r[pts])
    design = np.vstack([pts.astype(float), np.ones(len(pts))]).T
    (slope_log, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ np.array([slope_log, intercept])
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return RateFit(slope=float(10.0 ** slope_log), r_squared=r_squared,
                   window=(int(pts[0]), int(pts[-1])), n_points=len(pts))


def auto_tail_fraction(trace, quantity):
    """Tail fraction starting where the residual first drops below
    _TAIL_THRESHOLD, skipping any initial plateau; 0.5 if it never does."""
    r = np.asarray(trace.residuals(quantity), dtype=float)
    below = np.nonzero(r < _TAIL_THRESHOLD)[0]
    if len(below) == 0:
        return 0.5
    return float((len(r) - below[0]) / len(r))


def detect_finite_termination(trace, block):
    """Smallest K with the block exactly constant (bitwise, or dithering
    at or below _FREEZE_TOL for the z steps) for all k >= K; None if never.

    block is "z" (uses recorded step sizes) or "uI" (uses the block's last
    change of u, `trace.u_last_change`: streamed by `run`, or read off the
    u_mismatch column of a trace built from columns).
    """
    m = re.fullmatch(r"z|u(\d+)", block)
    if m is None:
        raise ValueError(f"unknown block {block!r}; use 'z' or 'u<i>'")
    if block == "z":
        steps = np.asarray(trace.z_step, dtype=float)
        moving = np.nonzero(steps > _FREEZE_TOL)[0]
        freeze = int(moving[-1]) + 1 if len(moving) else 0
        return freeze if freeze < len(steps) else None
    i = int(m.group(1))
    if i >= trace.n_blocks:
        raise ValueError(
            f"block u{i} out of range for {trace.n_blocks} blocks")
    # row u_last_change + 1 holds the final u, and since the final record
    # matches itself trivially, demand one more quiet record beyond it
    freeze = int(trace.u_last_change[i]) + 2
    return freeze if freeze < len(trace) else None


# ---------------------------------------------------------------------------
# spectra

def numerical_rank(matrix, reference=None):
    """Singular values above max(shape) * 1e-12 * smax(reference) count.

    Pass the parent operator as reference when ranking a shifted matrix
    like M - lam I, so the threshold reflects the parent's scale.
    """
    sv = np.linalg.svd(matrix, compute_uv=False)
    ref_sv = sv if reference is None else np.linalg.svd(reference,
                                                        compute_uv=False)
    smax = float(ref_sv[0]) if len(ref_sv) else 0.0
    tol = max(matrix.shape) * 1e-12 * smax
    return int(np.count_nonzero(sv > tol))


def is_semi_simple(matrix, eigenvalue):
    """True when the eigenvalue has equal algebraic and geometric
    multiplicity: rank(A) == rank(A^2) for A = M - lam I."""
    shifted = matrix - eigenvalue * np.eye(matrix.shape[0])
    return (numerical_rank(shifted, reference=matrix)
            == numerical_rank(shifted @ shifted, reference=matrix))


def spectrum(blocks):
    """The eigenvalues of a block-diagonal matrix given as a list of
    (block, copies) pairs, as [(eigenvalue, multiplicity)] sorted by
    modulus.  An eigenvalue joins the level of the first one within
    _LEVEL_TOL of it, and a level is the mean of its members, real when
    its imaginary part is below _ZERO_TOL and 0 when its modulus is."""
    lams = np.concatenate([np.linalg.eigvals(b) for b, _ in blocks])
    copies = np.concatenate([np.full(len(b), c) for b, c in blocks])
    first = (np.abs(lams[:, None] - lams) < _LEVEL_TOL).argmax(axis=1)
    out = []
    for level in np.unique(first):
        lam = complex(lams[first == level].mean())
        lam = lam.real if abs(lam.imag) < _ZERO_TOL else lam
        out.append((0.0 if abs(lam) < _ZERO_TOL else lam,
                    int(copies[first == level].sum())))
    return sorted(out, key=lambda lv: (abs(lv[0]), lv[0].real, lv[0].imag))


def dominant_rate(levels):
    """The largest modulus below 1 of a `spectrum`; moduli within
    _LEVEL_TOL of 1 are the fixed-point directions."""
    return max((abs(lam) for lam, _ in levels
                if abs(lam) < 1.0 - _LEVEL_TOL), default=0.0)


# ---------------------------------------------------------------------------
# the step linearized at a solution

def ddr_affine_rate(gamma):
    """Contraction factor of the damped map on affine pairs, which is also
    the damped step's relaxation weight lam = gamma / (1 + gamma); inf
    maps to 1."""
    if gamma is None or not gamma > 0.0:
        raise ValueError(f"damping parameter must be positive, got {gamma}")
    if np.isinf(gamma):
        return 1.0
    return gamma / (1.0 + gamma)


def linear_model(m, p, method, gamma=None):
    """The step linearized at a solution, at a coordinate that m blocks
    cover, as an m x m matrix.  The consensus there is PS = J/m, the last
    p blocks pass it through (PC, the identity on them) and the others
    are locally constant.  sdr is I - PS - PC + 2 PC PS, sdr-switched
    I - PC - PS + 2 PS PC, altproj PS PC, and ddr lam sdr + (1 - lam) PC
    with lam = ddr_affine_rate(gamma), so gamma = inf gives sdr."""
    ps = np.full((m, m), 1.0 / m)
    pc = np.diag((np.arange(m) >= m - p).astype(float))
    eye = np.eye(m)
    t = eye - ps - pc + 2.0 * pc @ ps
    if method == "ddr":
        lam = ddr_affine_rate(gamma)
        return lam * t + (1.0 - lam) * pc
    models = {"sdr": t, "sdr-switched": eye - pc - ps + 2.0 * ps @ pc,
              "altproj": ps @ pc}
    if method not in models:
        raise ValueError(f"unknown method {method!r}")
    return models[method]


def coordinate_classes(problem):
    """{(m, p): count} over the coordinates of a problem's vector: m is its
    number of blocks, p the number of them that pass the coordinate
    through (each projection's `passes` mask).  A problem with no product
    blocks, the circle/line pair, has none."""
    m = problem.n_blocks
    if not m:
        return {}
    p = np.count_nonzero([proj.passes for proj in problem.projections],
                         axis=0)
    return {(m, int(k)): int(c) for k, c in enumerate(np.bincount(p)) if c}


def theoretical_rate(problem, method, gamma=None):
    """The predicted local linear rate of a method on a problem: the
    largest eigenvalue modulus below 1 of the linear model over the
    problem's coordinate classes; 0 means finite termination, and None
    that the problem has no classes to model."""
    classes = coordinate_classes(problem)
    if not classes:
        return None
    return dominant_rate(spectrum([(linear_model(m, p, method, gamma), 1)
                                   for m, p in classes]))
