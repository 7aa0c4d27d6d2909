"""Projections onto combinatorial constraint sets, plus index-group builders.

The nonconvex sets used by the puzzle encodings are unions of finitely many
points per index group (unit vectors, optionally the zero vector), so the
nearest point has a closed form: spike the largest entry.  Ties resolve to
the lowest index unless a projection is built with tie_break="random".
"""

import math

import numpy as np

__all__ = [
    "ClueProjection",
    "GroupProjection",
    "project_one_hot",
    "project_one_hot_or_zero",
    "project_unit_sphere",
    "queens_groups",
    "sudoku_cell_index",
    "sudoku_groups",
]


def project_one_hot(x):
    """Nearest unit vector e_i; the first maximal entry wins ties."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    out[int(np.argmax(x))] = 1.0
    return out


def project_one_hot_or_zero(x):
    """Nearest point among the unit vectors and the zero vector.

    The spike is closer iff max(x) >= 1/2; equality prefers the spike.
    """
    x = np.asarray(x, dtype=float)
    i = int(np.argmax(x))
    out = np.zeros_like(x)
    if x[i] >= 0.5:
        out[i] = 1.0
    return out


def project_unit_sphere(x):
    """Nearest point of the unit sphere; the origin maps to e_0."""
    x = np.asarray(x, dtype=float)
    norm = np.linalg.norm(x)
    if norm == 0.0:
        out = np.zeros_like(x)
        out[0] = 1.0
        return out
    return x / norm


# ---------------------------------------------------------------------------
# index groups on the lifted cube / board

def sudoku_cell_index(s, i, j, k):
    """Flat index of cube cell (row i, column j, digit k)."""
    return (i * s + j) * s + k


def _check_side(s):
    b = math.isqrt(s)
    if s < 4 or b * b != s:
        raise ValueError(f"side {s} must be a perfect square >= 4")
    return b


def sudoku_groups(s, kind):
    """Index groups of one constraint family on the s^3 cube.

    row: fixed (j, k), vary i.  column: fixed (i, k), vary j.
    pillar: fixed (i, j), vary k.  block: one box and digit per group.
    Every kind partitions the cube into s^2 groups of s cells.
    """
    b = _check_side(s)
    groups = []
    if kind == "row":
        for j in range(s):
            for k in range(s):
                groups.append(tuple(sudoku_cell_index(s, i, j, k)
                                    for i in range(s)))
    elif kind == "column":
        for i in range(s):
            for k in range(s):
                groups.append(tuple(sudoku_cell_index(s, i, j, k)
                                    for j in range(s)))
    elif kind == "pillar":
        for i in range(s):
            for j in range(s):
                groups.append(tuple(sudoku_cell_index(s, i, j, k)
                                    for k in range(s)))
    elif kind == "block":
        for k in range(s):
            for bi in range(b):
                for bj in range(b):
                    groups.append(tuple(
                        sudoku_cell_index(s, i, j, k)
                        for i in range(bi * b, (bi + 1) * b)
                        for j in range(bj * b, (bj + 1) * b)))
    else:
        raise ValueError(f"unknown sudoku group kind {kind!r}")
    return groups


def queens_groups(s, kind):
    """Index groups on the s x s board (flat index i*s + j)."""
    groups = []
    if kind == "row":
        for i in range(s):
            groups.append(tuple(i * s + j for j in range(s)))
    elif kind == "column":
        for j in range(s):
            groups.append(tuple(i * s + j for i in range(s)))
    elif kind == "antidiag":            # i + j constant
        for t in range(2 * s - 1):
            groups.append(tuple(i * s + (t - i) for i in range(s)
                                if 0 <= t - i < s))
    elif kind == "diag":                # i - j constant
        for d in range(-(s - 1), s):
            groups.append(tuple(i * s + (i - d) for i in range(s)
                                if 0 <= i - d < s))
    else:
        raise ValueError(f"unknown queens group kind {kind!r}")
    return groups


# ---------------------------------------------------------------------------
# vectorized grouped projection

class GroupProjection:
    """Project each index group onto {e_i} (or {e_i} + {0} with allow_zero).

    Groups must be disjoint; coordinates outside every group pass through
    unchanged.  Groups of different lengths are padded into a rectangular
    index table so one masked argmax handles the whole family.
    """

    def __init__(self, groups, n, allow_zero=False, tie_break="lowest",
                 seed=None):
        groups = [tuple(int(i) for i in g) for g in groups]
        if tie_break not in ("lowest", "random"):
            raise ValueError(f"unknown tie_break {tie_break!r}")
        seen = set()
        for g in groups:
            if not g:
                raise ValueError("empty index group")
            for i in g:
                if not 0 <= i < n:
                    raise ValueError(f"index {i} out of range for n={n}")
                if i in seen:
                    raise ValueError(f"index {i} appears in two groups")
                seen.add(i)
        self.groups = groups
        self.n = n
        self.allow_zero = allow_zero
        self.tie_break = tie_break
        self._rng = np.random.default_rng(seed) if tie_break == "random" \
            else None

        width = max(len(g) for g in groups) if groups else 0
        self._idx = np.zeros((len(groups), width), dtype=np.intp)
        self._mask = np.zeros((len(groups), width), dtype=bool)
        for r, g in enumerate(groups):
            self._idx[r, :len(g)] = g
            self._mask[r, :len(g)] = True
        self._covered = np.fromiter(seen, dtype=np.intp)
        self._rows = np.arange(len(groups))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        vals = np.where(self._mask, x[self._idx], -np.inf)
        if self._rng is None:
            amax = np.argmax(vals, axis=1)
        else:
            vmax = vals.max(axis=1, keepdims=True)
            ties = vals == vmax
            keys = np.where(ties, self._rng.random(vals.shape), -1.0)
            amax = np.argmax(keys, axis=1)
        out = x.copy()
        out[self._covered] = 0.0
        winners = self._idx[self._rows, amax]
        if self.allow_zero:
            spike = vals[self._rows, amax] >= 0.5
            out[winners[spike]] = 1.0
        else:
            out[winners] = 1.0
        return out


class ClueProjection:
    """Affine clamp of clued pillars: cell (i, j) fixed to digit k means the
    pillar (i, j, :) is replaced by e_k; everything else passes through."""

    def __init__(self, s, clues):
        _check_side(s)
        n = s ** 3
        values = np.zeros(n)
        free = np.ones(n, dtype=bool)
        seen = set()
        for (i, j, k) in clues:
            if (i, j) in seen:
                raise ValueError(f"cell ({i}, {j}) is clued twice")
            seen.add((i, j))
            base = sudoku_cell_index(s, i, j, 0)
            free[base:base + s] = False
            values[base + k] = 1.0
        self.s = s
        self.clues = tuple(clues)
        self._values = values
        self._free = free

    @property
    def free_mask(self):
        return self._free.copy()

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = x.copy()
        out[~self._free] = self._values[~self._free]
        return out
