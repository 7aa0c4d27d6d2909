"""Generated 16x16 sudoku instances with a planted solution.

The planted grid is the box-shift pattern digit(i, j) = (4*(i % 4) + i // 4
+ j) % 16, the same solution the optional 16x16 acceptance check plants.
The clue cells are drawn from the caller's seed, so one seed always gives
the same instance.
"""

import numpy as np

from drsplit.puzzles import SudokuInstance, validate_sudoku

SIZE = 16
BOX = 4
DEFAULT_CLUES = 120


def planted_grid():
    return np.array([[(BOX * (i % BOX) + i // BOX + j) % SIZE
                      for j in range(SIZE)] for i in range(SIZE)])


def generate_sudoku16(seed, n_clues=DEFAULT_CLUES):
    """Instance with `n_clues` cells of the planted grid revealed."""
    sol = planted_grid()
    rng = np.random.default_rng(seed)
    cells = rng.choice(SIZE * SIZE, size=n_clues, replace=False)
    clues = tuple(sorted((int(c // SIZE), int(c % SIZE),
                          int(sol[c // SIZE, c % SIZE])) for c in cells))
    inst = SudokuInstance(SIZE, clues)
    ok, violations = validate_sudoku(sol, inst)
    if not ok:
        raise RuntimeError(f"planted 16x16 grid is invalid: {violations[:4]}")
    return inst
