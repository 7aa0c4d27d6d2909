"""Puzzle instances: parsing, lifting, rounding, validation, and the
assembly of feasibility problems, the circle/line pair among them.

A sudoku grid is lifted to the s^3 indicator cube (flat index
(i*s + j)*s + k), an s-queens board to the flat s^2 vector.  Instances are
immutable value objects so they can be pickled into worker processes and
used as dictionary keys.
"""

import dataclasses
import functools
import math
import re
from pathlib import Path

import numpy as np

from .constraints import (
    ClueProjection,
    GroupProjection,
    _check_clues,
    _check_side,
    project_unit_sphere,
    queens_groups,
    sudoku_groups,
)
from .splitting import product_step, two_set_step

__all__ = [
    "BUNDLED",
    "CircleLineInstance",
    "Hyperplane",
    "InvalidInstanceError",
    "ParseError",
    "Problem",
    "QueensInstance",
    "SudokuInstance",
    "build_problem",
    "bundled_path",
    "bundled_sudoku",
    "circle_line_instance",
    "format_grid",
    "parse_sudoku",
    "queens_feasible",
    "queens_problem",
    "round_board",
    "round_cube",
    "sudoku_feasible",
    "sudoku_problem",
    "validate_sudoku",
]


class ParseError(ValueError):
    """Malformed puzzle text; carries the 1-based source position."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class InvalidInstanceError(ValueError):
    """Structurally valid input describing an inconsistent instance."""


def _instance_check(check, *args):
    """Run one of the constraints module's checks, raising its ValueError
    as InvalidInstanceError."""
    try:
        return check(*args)
    except ValueError as exc:
        raise InvalidInstanceError(str(exc)) from None


@dataclasses.dataclass(frozen=True)
class SudokuInstance:
    """Board side plus clue triples (row, column, digit), all 0-based."""

    size: int
    clues: tuple

    def __post_init__(self):
        b = _instance_check(_check_side, self.size)
        norm = []
        marks = set()
        for i, j, k in _instance_check(_check_clues, self.size,
                                       self.clues).tolist():
            for mark in (("row", i, k), ("column", j, k),
                         ("box", i // b, j // b, k)):
                if mark in marks:
                    raise InvalidInstanceError(
                        f"digit {k + 1} repeats in {mark[0]} "
                        f"{mark[1:-1]} at cell ({i}, {j})")
                marks.add(mark)
            norm.append((i, j, k))
        object.__setattr__(self, "clues", tuple(sorted(norm)))


@dataclasses.dataclass(frozen=True)
class QueensInstance:
    size: int

    def __post_init__(self):
        if self.size < 4:
            raise InvalidInstanceError(
                f"queens boards need size >= 4, got {self.size}")


# ---------------------------------------------------------------------------
# text format: one row per line, tokens separated by whitespace,
# "." or "0" for a blank, otherwise the 1-based digit

_TOKEN = re.compile(r"\S+")


def parse_sudoku(text):
    rows = [(lineno, raw) for lineno, raw in
            enumerate(text.splitlines(), start=1) if raw.strip()]
    if not rows:
        raise ParseError("empty puzzle text")
    s = len(_TOKEN.findall(rows[0][1]))
    if len(rows) != s:
        raise ParseError(
            f"line {rows[-1][0]}: expected {s} rows to match the "
            f"{s}-entry first row, got {len(rows)}", line=rows[-1][0])
    try:
        _check_side(s)
    except ValueError as exc:
        raise ParseError(f"line {rows[0][0]}: {exc}",
                         line=rows[0][0]) from None
    clues = []
    for i, (lineno, raw) in enumerate(rows):
        matches = list(_TOKEN.finditer(raw))
        if len(matches) != s:
            raise ParseError(
                f"line {lineno}: expected {s} entries, got {len(matches)}",
                line=lineno)
        for j, m in enumerate(matches):
            tok = m.group()
            col = m.start() + 1
            if tok in (".", "0"):
                continue
            try:
                v = int(tok)
            except ValueError:
                raise ParseError(
                    f"line {lineno} column {col}: bad entry {tok!r}",
                    line=lineno, column=col) from None
            if not 1 <= v <= s:
                raise ParseError(
                    f"line {lineno} column {col}: digit {v} outside 1..{s}",
                    line=lineno, column=col)
            clues.append((i, j, v - 1))
    return SudokuInstance(s, tuple(clues))


def format_grid(grid):
    """Text form of a full or partial grid (-1 marks a blank)."""
    grid = np.asarray(grid)
    lines = []
    for row in grid:
        lines.append(" ".join("." if v < 0 else str(int(v) + 1)
                              for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# lifting and rounding

def round_cube(v, s):
    """Digit grid from a cube vector: largest entry per pillar wins."""
    return np.asarray(v).reshape(s, s, s).argmax(axis=2)


def round_board(x, s):
    """0/1 board from a flat vector: one queen per row at the row argmax."""
    rows = np.asarray(x).reshape(s, s)
    board = np.zeros((s, s), dtype=int)
    board[np.arange(s), rows.argmax(axis=1)] = 1
    return board


# ---------------------------------------------------------------------------
# validation

def validate_sudoku(grid, inst):
    """(ok, violations) for a complete digit grid against an instance.

    Violation tags: ("row", i), ("column", j), ("block", b), ("clue", i, j).
    """
    s = inst.size
    b = math.isqrt(s)
    g = np.asarray(grid)
    full = frozenset(range(s))
    violations = []
    for i in range(s):
        if set(g[i, :].tolist()) != full:
            violations.append(("row", i))
    for j in range(s):
        if set(g[:, j].tolist()) != full:
            violations.append(("column", j))
    for bi in range(b):
        for bj in range(b):
            box = g[bi * b:(bi + 1) * b, bj * b:(bj + 1) * b]
            if set(box.ravel().tolist()) != full:
                violations.append(("block", bi * b + bj))
    for (i, j, k) in inst.clues:
        if g[i, j] != k:
            violations.append(("clue", i, j))
    return not violations, violations


# ---------------------------------------------------------------------------
# problem assembly

def _distinct(keys, span):
    """True when no key repeats in a (lines, m) table of ints in [0, span).
    For a (runs, lines, m) batch, one bool per run from one bincount, with
    run r's keys shifted to [r * span, (r + 1) * span)."""
    if keys.ndim == 2:
        return bool(np.bincount(keys.ravel()).max() <= 1)
    runs = len(keys)
    keys = keys + span * np.arange(runs)[:, None, None]
    counts = np.bincount(keys.ravel(), minlength=runs * span)
    return counts.reshape(runs, span).max(axis=1) <= 1


def _sudoku_line_keys(s):
    """(3, s*s) offsets that put digit k of cell (i, j) at a key of its
    row i, column j and box, each line owning a disjoint range of s keys."""
    b = math.isqrt(s)
    i, j = np.divmod(np.arange(s * s), s)
    return np.stack((i, s + j, 2 * s + (i // b) * b + j // b)) * s


def sudoku_feasible(v, s, line_keys, clue_cells, clue_digits):
    """``validate_sudoku(round_cube(v, s), inst)[0]`` without the Python
    loops: the rounded grid holds the clue digit at every clue cell (flat
    indices `clue_cells`) and each digit once per row, column and box.
    v is one cube of shape (s**3,), answered by a bool, or a (runs, s**3)
    batch, answered by a bool array."""
    v = np.asarray(v)
    g = v.reshape(v.shape[:-1] + (s * s, s)).argmax(axis=-1)
    if v.ndim == 1:
        return (not np.count_nonzero(g[clue_cells] != clue_digits)
                and _distinct(g + line_keys, 3 * s * s))
    return ((g[:, clue_cells] == clue_digits).all(axis=1)
            & _distinct(g[:, None, :] + line_keys, 3 * s * s))


def _queens_line_keys(s):
    """(3, s) offsets taking the column j of row i's queen to disjoint key
    ranges: its column j, antidiagonal i + j (shifted by s) and diagonal
    j - i (shifted by 4s)."""
    i = np.arange(s)
    return np.stack((0 * i, s + i, 4 * s - i))


def queens_feasible(v, s, line_keys):
    """``validate_queens(round_board(v, s), inst)[0]``, the slow oracle of
    the tests, without the Python loops: rounding puts one queen per row, at column cols[i], so the
    board is valid iff the columns, the antidiagonals i + j and the
    diagonals i - j are each distinct.  v is one board of shape (s*s,),
    answered by a bool, or a (runs, s*s) batch, answered by a bool array.
    """
    v = np.asarray(v)
    cols = v.reshape(v.shape[:-1] + (1, s, s)).argmax(axis=-1)
    return _distinct(cols + line_keys, 5 * s)


@dataclasses.dataclass
class Problem:
    """A feasibility problem as a list of set projections on one vector,
    stepped on the product space, with the feasibility predicate of a
    vector (a vectorized check equal to ``validate_*(round_*(v))[0]``) and
    the text of the candidate a vector rounds to."""

    projections: list
    ambient_dim: int
    format: object
    feasible: object
    # a run may stop at the first candidate the predicate accepts
    stop_on_feasible = True

    @property
    def n_blocks(self):
        return len(self.projections)

    def initial_state(self, seed):
        """Seeded uniform start, one block row per constraint set."""
        rng = np.random.default_rng(seed)
        return rng.uniform(0.0, 1.0, size=(self.n_blocks, self.ambient_dim))

    def step(self, method, gamma=None):
        return product_step(self.projections, method, gamma=gamma)


def _grid_text(v, s):
    return format_grid(round_cube(v, s))


def _board_text(x, s):
    return "\n".join(" ".join(str(int(v)) for v in row)
                     for row in round_board(x, s)) + "\n"


def sudoku_problem(inst, tie_break="lowest", tie_seed=None):
    """Five-set lifted encoding: row, column, pillar, block, clue clamp."""
    s = inst.size
    n = s ** 3
    projections = [
        GroupProjection(sudoku_groups(s, kind), n, tie_break=tie_break,
                        seed=None if tie_seed is None else tie_seed + off)
        for off, kind in enumerate(("row", "column", "pillar", "block"))
    ]
    projections.append(ClueProjection(s, inst.clues))
    clues = np.array(inst.clues, dtype=int).reshape(-1, 3)
    feasible = functools.partial(
        sudoku_feasible, s=s, line_keys=_sudoku_line_keys(s),
        clue_cells=clues[:, 0] * s + clues[:, 1], clue_digits=clues[:, 2])
    return Problem(projections, n, functools.partial(_grid_text, s=s),
                   feasible)


def queens_problem(inst, tie_break="lowest", tie_seed=None):
    """Four-set encoding: one-hot rows and columns, at-most-one diagonals."""
    s = inst.size
    n = s * s
    specs = (("row", False), ("column", False),
             ("antidiag", True), ("diag", True))
    projections = [
        GroupProjection(queens_groups(s, kind), n, allow_zero=zero,
                        tie_break=tie_break,
                        seed=None if tie_seed is None else tie_seed + off)
        for off, (kind, zero) in enumerate(specs)
    ]
    return Problem(projections, n, functools.partial(_board_text, s=s),
                   functools.partial(queens_feasible, s=s,
                                     line_keys=_queens_line_keys(s)))


# ---------------------------------------------------------------------------
# bundled instances

BUNDLED = {
    "4x4": "sudoku_4x4_4.txt",
    "9x9-37": "sudoku_9x9_37.txt",
    "9x9-22": "sudoku_9x9_22.txt",
}


def bundled_path(key):
    try:
        name = BUNDLED[key]
    except KeyError:
        raise KeyError(f"unknown bundled instance {key!r}; "
                       f"available: {sorted(BUNDLED)}") from None
    return Path(__file__).parent / "data" / name


def bundled_sudoku(key):
    return parse_sudoku(bundled_path(key).read_text())


# ---------------------------------------------------------------------------
# the 2-D circle/line pair

class Hyperplane:
    """Solution set of ``normal @ x == rhs`` with a closed-form projection.

    The projection is evaluated as the literal one-line formula rather than
    through an orthonormal-basis factorization: the non-convergent orbits
    this instance exists to exhibit are sensitive at the last-ulp level, so
    the arithmetic must stay reproducible across refactors.
    """

    def __init__(self, normal, rhs):
        self.normal = np.asarray(normal, dtype=float)
        self.rhs = float(rhs)

    def project(self, x):
        n = self.normal
        return x + (self.rhs - x @ n) * n / (n @ n)


# how far a circle/line point may lie off either set and still be feasible
_FEASIBLE_TOL = 1e-9


class CircleLineInstance(Problem):
    """Unit circle against a fixed line, from a fixed start: a two-set
    problem with no product blocks, whose candidate is the step's x.  The
    tracked point can drift through near-feasible positions without the
    iteration converging, so a run stops on the z-step stall."""

    projections = ()
    ambient_dim = 2
    stop_on_feasible = False

    def __init__(self, line, z0):
        self.line = line
        self.z0 = np.asarray(z0, dtype=float)

    def project_circle(self, x):
        return project_unit_sphere(x)

    def initial_state(self, seed):
        return self.z0

    def step(self, method, gamma=None):
        return two_set_step(self.line.project, self.project_circle, method,
                            gamma=gamma)

    def feasible(self, pt):
        pt = np.asarray(pt, dtype=float)
        on_line = np.linalg.norm(self.line.project(pt) - pt) <= _FEASIBLE_TOL
        on_circle = abs(np.linalg.norm(pt) - 1.0) <= _FEASIBLE_TOL
        return bool(on_line and on_circle)

    def format(self, x):
        return " ".join(repr(float(v)) for v in x) + "\n"


def circle_line_instance():
    line = Hyperplane(np.array([1.0, 2.0]), np.sqrt(2.0))
    return CircleLineInstance(line, np.array([-10.0, -8.0]))


_BUILDERS = {SudokuInstance: sudoku_problem, QueensInstance: queens_problem,
             # the circle/line pair is its own problem, with no ties
             CircleLineInstance: lambda instance, **ties: instance}


def build_problem(instance, tie_break="lowest", tie_seed=None):
    """The problem of a sudoku, queens or circle/line instance."""
    return _BUILDERS[type(instance)](instance, tie_break=tie_break,
                                     tie_seed=tie_seed)
