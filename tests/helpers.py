"""Small helpers that only the tests use: the text form of an instance's
clues, a 0/1 board as a flat vector, and the spectral radius of a matrix.
"""

import numpy as np

from drsplit.puzzles import format_grid


def format_sudoku(inst):
    """Text form of an instance's clue grid, which parse_sudoku reads back."""
    return format_grid(inst.clue_grid())


def lift_board(board):
    """A queens board (0/1 rows) as the flat vector of its s*s cells."""
    return np.asarray(board, dtype=float).ravel().copy()


def spectral_radius(matrix):
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))
