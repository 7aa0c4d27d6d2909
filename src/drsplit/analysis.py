"""Analysis toolkit: empirical rate fitting, finite-termination detection,
principal angles between constraint subspaces, and closed-form spectra of
the damped splitting map on lifted sudoku.

The closed forms live on the product space of the five sudoku blocks,
where the map linearized at a solution splits into one 5x5 block per cube
coordinate, a free one or a clued one (`sudoku_linear_model`).  With p
free coordinates, the damped map has eigenvalues {0, lam_minus,
gamma/(1+gamma), lam_plus}, the largest of which is the observable linear
rate; the plain method contracts at cos of the Friedrichs angle between the
diagonal and the clue-constraint subspace, which is sqrt(5)/5 regardless of
the clue pattern and the size.
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
    "ddr_affine_rate",
    "ddr_rate_eigenvalues",
    "detect_finite_termination",
    "fit_linear_rate",
    "friedrichs_angle",
    "is_semi_simple",
    "numerical_rank",
    "principal_angles",
    "sudoku_linear_model",
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
# principal angles whose cosine is this close to 1 span the intersection
_INTERSECTION_TOL = 1e-10
_FIT_SKIP_LAST = 5
_FIT_MIN_RECORDS = 30
_FIT_MIN_POINTS = 10


def fit_linear_rate(trace, quantity, tail_fraction):
    """Least-squares slope of log10(residual) over the trailing window.

    tail_fraction in (0, 1] selects how much of the run to fit; points at
    or below the noise floor and the last few (reference-polluted) records
    are always excluded.  When the requested window holds fewer than 10
    clean points the fit falls back to the last 10 clean points overall.
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
# subspace geometry

def _validated_orthonormal(basis):
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2:
        raise ValueError("basis must be a 2-D array of rows")
    gram = basis @ basis.T
    if not np.allclose(gram, np.eye(basis.shape[0]), atol=1e-8):
        raise ValueError("basis rows must be orthonormal")
    return basis


def principal_angles(basis_a, basis_b):
    """Ascending principal angles between two linear subspaces given by
    row-orthonormal bases."""
    a = _validated_orthonormal(basis_a)
    b = _validated_orthonormal(basis_b)
    cosines = np.linalg.svd(a @ b.T, compute_uv=False)
    return np.arccos(np.clip(cosines, 0.0, 1.0))


def friedrichs_angle(basis_a, basis_b):
    """First principal angle after discarding the common directions."""
    angles = principal_angles(basis_a, basis_b)
    separated = angles[np.cos(angles) < 1.0 - _INTERSECTION_TOL]
    if len(separated) == 0:
        raise ValueError(
            "subspaces coincide along every direction; no angle remains")
    return float(separated[0])


def numerical_rank(matrix, reference=None):
    """Singular values above max(shape) * 1e-12 * smax(reference) count.

    Pass the parent operator as reference when ranking a shifted matrix
    like M - lam I, so the threshold reflects the parent's scale.
    """
    sv = np.linalg.svd(matrix, compute_uv=False)
    if reference is None:
        smax = float(sv[0]) if len(sv) else 0.0
    else:
        ref_sv = np.linalg.svd(reference, compute_uv=False)
        smax = float(ref_sv[0]) if len(ref_sv) else 0.0
    tol = max(matrix.shape) * 1e-12 * smax
    return int(np.count_nonzero(sv > tol))


def is_semi_simple(matrix, eigenvalue):
    """True when the eigenvalue has equal algebraic and geometric
    multiplicity: rank(A) == rank(A^2) for A = M - lam I."""
    shifted = matrix - eigenvalue * np.eye(matrix.shape[0])
    return (numerical_rank(shifted, reference=matrix)
            == numerical_rank(shifted @ shifted, reference=matrix))


# ---------------------------------------------------------------------------
# closed-form spectra for the damped map

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


def ddr_affine_rate(gamma):
    """Contraction factor of the damped map on affine pairs, which is also
    the damped step's relaxation weight lam = gamma / (1 + gamma); inf
    maps to 1."""
    if gamma is None or not gamma > 0.0:
        raise ValueError(f"damping parameter must be positive, got {gamma}")
    if np.isinf(gamma):
        return 1.0
    return gamma / (1.0 + gamma)


def theoretical_rate(kind, method, gamma=None):
    """Predicted local linear rate, or None when no clean theory applies.
    ddr at gamma = inf steps sdr, so it has sdr's rate."""
    if method == "sdr" or (method == "ddr" and gamma == np.inf):
        return SUDOKU_SDR_RATE if kind == "sudoku" else None
    if method == "ddr" and gamma is not None:
        if kind == "queens":
            return ddr_affine_rate(gamma)
        if kind == "sudoku":
            if 0.0 < gamma <= 1.25:
                # lam_plus, except for gamma in (1, 5/4], where
                # gamma/(1+gamma) is the larger
                return max(ddr_rate_eigenvalues(gamma))
            return None
    return None


# ---------------------------------------------------------------------------
# the splitting map linearized at a sudoku solution

def sudoku_linear_model(gamma=None):
    """The splitting map linearized at a sudoku solution, as its 5x5
    blocks (free, clued).

    Each coordinate of the cube has one entry in each of the five blocks
    of the product space, and the linearized map acts on those five
    entries alone.  The consensus is PS = J/5 there; the clue clamp, the
    last block, is PC = e5 e5^T at a free coordinate and 0 at a clued one;
    the four group projections are locally constant.  gamma=None gives
    the plain map T = I - PS - PC + 2 PC PS, otherwise the damped map
    (gamma T + PC) / (1 + gamma).
    """
    if gamma is not None and not 0.0 < gamma < np.inf:
        raise ValueError(f"damping parameter must be positive, got {gamma}")
    ps = np.full((5, 5), 0.2)
    blocks = []
    for pc in (np.diag([0.0, 0.0, 0.0, 0.0, 1.0]), np.zeros((5, 5))):
        t = np.eye(5) - ps - pc + 2.0 * pc @ ps
        if gamma is not None:
            t = (gamma * t + pc) / (1.0 + gamma)
        blocks.append(t)
    return tuple(blocks)


