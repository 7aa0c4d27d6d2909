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
    "project_unit_sphere",
    "queens_groups",
    "sudoku_groups",
]


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
# index-group tables on the lifted cube / board: one group per row

def _check_side(s):
    b = math.isqrt(s)
    if s < 4 or b * b != s:
        raise ValueError(f"side {s} must be a perfect square >= 4")
    return b


def _check_clues(s, clues):
    """Clue triples (i, j, k) as an (m, 3) integer array.  Each entry
    must lie in 0..s-1, and no cell may be clued twice."""
    ijk = np.array(clues, dtype=int).reshape(len(clues), 3)
    bad = ((ijk < 0) | (ijk >= s)).any(axis=1)
    if bad.any():
        raise ValueError(f"clue {tuple(ijk[bad][0].tolist())} out of "
                         f"range for side {s}")
    twice = np.flatnonzero(
        np.bincount(ijk[:, 0] * s + ijk[:, 1], minlength=s * s) > 1)
    if twice.size:
        raise ValueError(f"cell {divmod(int(twice[0]), s)} is clued twice")
    return ijk


def sudoku_groups(s, kind):
    """Index table of one constraint family on the s^3 cube, shape (s^2, s).

    The cube cell (row i, column j, digit k) has flat index (i*s + j)*s + k.
    row: fixed (j, k), vary i.  column: fixed (i, k), vary j.
    pillar: fixed (i, j), vary k.  block: one box and digit per group.
    Every kind partitions the cube.
    """
    b = _check_side(s)
    cube = np.arange(s ** 3).reshape(s, s, s)
    tables = {"row": cube.transpose(1, 2, 0),
              "column": cube.transpose(0, 2, 1),
              "pillar": cube,
              # axes (box row, i in box, box column, j in box, k)
              "block": cube.reshape(b, b, b, b, s).transpose(4, 0, 2, 1, 3)}
    if kind not in tables:
        raise ValueError(f"unknown sudoku group kind {kind!r}")
    return tables[kind].reshape(s * s, s)


def queens_groups(s, kind):
    """Index table on the s x s board (flat index i*s + j), one line per
    row; the 2s - 1 (anti)diagonals are padded on the right with -1."""
    board = np.arange(s * s).reshape(s, s)
    if kind == "row":
        return board
    if kind == "column":
        return board.T.copy()
    if kind not in ("antidiag", "diag"):
        raise ValueError(f"unknown queens group kind {kind!r}")
    if kind == "antidiag":      # i + j constant: diagonals of the mirror
        board = board[:, ::-1]
    o = np.arange(1 - s, s)[:, None]    # line i - j = o holds s - |o| cells
    c = np.arange(s)
    i = np.maximum(o, 0) + c
    return np.where(c < s - np.abs(o),
                    board[np.minimum(i, s - 1), np.clip(i - o, 0, s - 1)], -1)


# ---------------------------------------------------------------------------
# vectorized grouped projection

class GroupProjection:
    """Project each index group onto {e_i} (or {e_i} + {0} with allow_zero).

    ``groups`` is a 2-D integer table with one group per row, such as the
    tables of sudoku_groups and queens_groups, or a list of equal-length
    tuples.  An entry -1 is padding, which lets groups of different lengths
    share one table; the tie-breaks read a row in table order, so pad on the
    right.  Groups must be non-empty and disjoint; coordinates outside every
    group (`passes`) pass through unchanged.  ``allow_zero`` is one bool for
    every group or a sequence of one bool per group.

    A call projects one vector of shape (n,) or each row of a (runs, n)
    batch; each row comes out as it would alone.  A random-tie projection
    takes one vector only, since a batch's rows would share its stream.
    With ``out``, a C-contiguous array of x's shape, the result is written
    there and returned; it must not overlap x.

    A single vector is gathered group-major, (G, m) for G groups of m
    members, and argmax picks each group's winner.  Under lowest ties a
    batch is gathered member-leading, (m, G, runs), so that each group
    maximum is a reduction over m long vectors; the first maximum is the
    largest of the ranks m..1 where an entry equals it, which is argmax's
    choice, NaN included, bit for bit.  The groups are gathered in chunks
    whose gather holds no more values than the batch itself.

    `merged` builds one projection of a product of blocks from several.
    """

    def __init__(self, groups, n, allow_zero=False, tie_break="lowest",
                 seed=None):
        if tie_break not in ("lowest", "random"):
            raise ValueError(f"unknown tie_break {tie_break!r}")
        # a copy in C order: __call__ gathers the table row by row
        idx = np.array(groups, dtype=np.intp, order="C")
        if idx.ndim != 2:
            raise ValueError(f"index table must be 2-D, got shape {idx.shape}")
        bad = idx[(idx < -1) | (idx >= n)]
        if bad.size:
            raise ValueError(f"index {bad[0]} out of range for n={n}")
        mask = idx >= 0
        if not mask.any(axis=1).all():
            raise ValueError("empty index group")
        counts = np.bincount(idx[mask], minlength=n)
        twice = np.flatnonzero(counts > 1)
        if twice.size:
            raise ValueError(f"index {twice[0]} appears in two groups")
        g, m = idx.shape
        zero = np.array(allow_zero, dtype=bool)
        if zero.shape not in ((), (g,)):
            raise ValueError(f"allow_zero must be one bool or one per "
                             f"group ({g}), got shape {zero.shape}")
        self.n = n
        self.tie_break = tie_break
        self._rng = np.random.default_rng(seed) if tie_break == "random" \
            else None
        self._idx = idx
        self._flat = idx.ravel()
        self._starts = np.arange(0, idx.size, m)    # row starts
        # per group, whether it may go to zero; None when none may, and
        # else the groups that spike whatever their maximum
        self._zero = np.broadcast_to(zero, (g,))
        self._spike = ~self._zero if zero.any() else None
        # None when the table has no padding
        self._pad = None if mask.all() else ~mask
        # the runs of coordinates outside every group, as slices
        edges = np.flatnonzero(np.diff(np.concatenate(
            ([False], counts == 0, [False])))).tolist()
        self._through = [slice(a, b) for a, b in zip(edges[::2], edges[1::2])]
        # the batched kernel's member-leading tables, in chunks of groups
        # whose gather (m, groups, runs) holds no more values than the
        # (runs, n) input, which bounds the kernel's largest transient (a
        # merged queens table gathers 1.4 values per coordinate): per
        # chunk, its cols (m, Gc), their padding with a run axis, each
        # group's column for the flat winner positions amax * Gc + group,
        # and its groups' spike flags; and the ranks m..1 of the members
        self._chunks, per = [], max(1, n // m)
        for rows in (slice(a, a + per) for a in range(0, g, per)):
            cols = np.ascontiguousarray(idx[rows].T)
            self._chunks.append((
                cols,
                None if self._pad is None else self._pad[rows].T[..., None],
                np.arange(cols.shape[1])[:, None],
                None if self._spike is None else self._spike[rows, None]))
        self._rank = np.arange(m, 0, -1, dtype=np.min_scalar_type(m))[
            :, None, None]

    @classmethod
    def merged(cls, blocks, n_blocks):
        """One projection of the flattened product of n_blocks copies of
        R^n, for a dict {i: lowest-tie projection of R^n} that projects
        block i; the other blocks pass through.  Block i's groups enter
        the table offset by i * n and padded with -1 on the right to the
        widest group, each with its own allow_zero, so every group spikes
        the entry its block's own call spikes."""
        placed = sorted(blocks.items())
        n = {p.n for _, p in placed}
        if len(n) != 1 or any(p.tie_break != "lowest" for _, p in placed):
            raise ValueError("merged blocks must be lowest-tie projections "
                             "of one length")
        n = n.pop()
        tables = [np.where(p._idx >= 0, p._idx + i * n, -1)
                  for i, p in placed]
        width = max(t.shape[1] for t in tables)
        table = np.concatenate([np.pad(t, ((0, 0), (0, width - t.shape[1])),
                                       constant_values=-1) for t in tables])
        return cls(table, n_blocks * n,
                   allow_zero=np.concatenate([p._zero for _, p in placed]))

    def __call__(self, x, out=None):
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2):
            raise ValueError(f"x must have shape (n,) or (runs, n), got "
                             f"{x.shape}")
        if x.ndim == 2 and self._rng is not None:
            raise ValueError("a random-tie projection takes one vector: the "
                             "rows of a batch would share its stream")
        out = _output(x, out)
        winners = self._single_winners(x) if x.ndim == 1 \
            else self._batch_winners(x)
        out.fill(0.0)
        for run in self._through:
            out[..., run] = x[..., run]
        out.reshape(-1)[winners] = 1.0
        return out

    @property
    def passes(self):
        """Bool mask of the coordinates outside every group."""
        return np.bincount(self._idx[self._idx >= 0], minlength=self.n) == 0

    def _single_winners(self, x):
        """Flat indices into x of the spiked entries, one vector."""
        vals = x[self._idx]
        if self._pad is not None:
            np.copyto(vals, -np.inf, where=self._pad)
        amax = vals.argmax(axis=-1)     # the first NaN, else lowest tie
        if self._rng is not None:
            top = vals.max(axis=-1, keepdims=True)
            ties = vals == top
            if self._pad is not None:       # padding never wins a tie
                np.copyto(ties, False, where=self._pad)
            keys = np.where(ties, self._rng.random(vals.shape), -1.0)
            # a group holding a NaN has no tie: its first NaN wins
            amax = np.where(np.isnan(top[..., 0]), amax,
                            keys.argmax(axis=-1))
        at = self._starts + amax        # the winners' flat table positions
        winners = self._flat[at]
        if self._spike is not None:
            winners = winners[(vals.reshape(-1)[at] >= 0.5) | self._spike]
        return winners

    def _batch_winners(self, x):
        """Flat indices into the C-ordered (runs, n) output of the spiked
        entries under lowest ties, chunk by chunk: each chunk's vals
        (m, Gc, runs) is reduced over its leading axis and freed before the
        next chunk is gathered."""
        winners = []
        for cols, pad, group, spike in self._chunks:
            vals = x.T[cols]
            if pad is not None:
                np.copyto(vals, -np.inf, where=pad)
            top = np.maximum.reduce(vals, axis=0)
            hit = vals == top
            if np.isnan(top).any():     # argmax's rule: a group's first
                hit |= np.isnan(vals)   # NaN wins
            del vals
            at = np.maximum.reduce(hit * self._rank, axis=0).astype(np.intp)
            del hit
            np.subtract(len(self._rank), at, out=at)    # the first hit
            at *= len(group)
            at += group
            won = cols.ravel()[at]
            won += self.n * np.arange(len(x))
            # a winner's value is its group's maximum
            winners.append(won if spike is None else won[(top >= 0.5) | spike])
        return np.concatenate(winners, axis=None)


class ClueProjection:
    """Affine clamp of clued pillars: cell (i, j) fixed to digit k means the
    pillar (i, j, :) is replaced by e_k; everything else (`passes`) passes
    through.
    A call clamps one vector of shape (n,) or each row of a (runs, n) batch.
    """

    def __init__(self, s, clues):
        _check_side(s)
        ijk = _check_clues(s, clues)
        cells = ijk[:, 0] * s + ijk[:, 1]
        values = np.zeros((s * s, s))          # the pillar view of the cube
        clued = np.zeros((s * s, s), dtype=bool)
        values[cells, ijk[:, 2]] = 1.0
        clued[cells] = True
        self.n = s ** 3
        self._fixed = np.flatnonzero(clued)
        self._fixed_values = values.ravel()[self._fixed]

    @property
    def passes(self):
        """Bool mask of the coordinates no clue fixes."""
        return np.isin(np.arange(self.n), self._fixed, invert=True)

    def __call__(self, x, out=None):
        """Clamp x; with ``out``, a float array of x's shape (of any
        strides, such as one block of a stacked batch) that does not
        overlap x, write the result there and return it."""
        x = np.asarray(x)
        out = _output(x, out, contiguous=False)
        out[...] = x
        out[..., self._fixed] = self._fixed_values
        return out


def _output(x, out, contiguous=True):
    """`out`, checked to be a float array of the array x's shape (and
    C-contiguous for a projection that writes through flat indices), or a
    new one."""
    if out is None:
        return np.empty(x.shape)
    if out.shape != x.shape or out.dtype != float:
        raise ValueError("out must be a float array of the input's shape")
    if contiguous and not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous: the projection writes "
                         "through flat indices")
    return out
