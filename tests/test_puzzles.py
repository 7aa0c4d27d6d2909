import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from drsplit.constraints import ClueProjection
from drsplit.puzzles import (
    CircleLineInstance,
    InvalidInstanceError,
    ParseError,
    QueensInstance,
    SudokuInstance,
    build_problem,
    bundled_sudoku,
    circle_line_instance,
    format_grid,
    parse_sudoku,
    queens_problem,
    round_board,
    round_cube,
    sudoku_problem,
    validate_sudoku,
)
from drsplit.splitting import StopPolicy, product_step, run

from helpers import (
    clue_grid,
    format_sudoku,
    lift_board,
    lift_grid,
    planted_grid,
    validate_queens,
)

RNG = np.random.default_rng(7)


SOLVED4 = planted_grid(4)
SOLVED9 = planted_grid(9)

TEXT4 = "1 2 3 .\n. . . .\n. . . .\n4 . . .\n"


class TestParsing:
    def test_parse_basic(self):
        inst = parse_sudoku(TEXT4)
        assert inst.size == 4
        assert set(inst.clues) == {(0, 0, 0), (0, 1, 1), (0, 2, 2), (3, 0, 3)}

    def test_zero_and_dot_blanks_are_equivalent(self):
        alt = TEXT4.replace(".", "0")
        assert parse_sudoku(alt).clues == parse_sudoku(TEXT4).clues

    def test_round_trip_identity(self):
        inst = parse_sudoku(TEXT4)
        assert parse_sudoku(format_sudoku(inst)) == inst
        assert format_sudoku(inst) == TEXT4

    def test_crlf_tolerated(self):
        inst = parse_sudoku(TEXT4.replace("\n", "\r\n"))
        assert inst.size == 4

    def test_ragged_row_reports_line(self):
        bad = "1 2 3 .\n. . .\n. . . .\n4 . . .\n"
        with pytest.raises(ParseError) as e:
            parse_sudoku(bad)
        assert e.value.line == 2
        assert "line 2" in str(e.value)

    def test_bad_token_reports_line_and_column(self):
        bad = "1 2 3 .\n. . x .\n. . . .\n4 . . .\n"
        with pytest.raises(ParseError) as e:
            parse_sudoku(bad)
        assert e.value.line == 2
        assert e.value.column == 5

    def test_digit_out_of_range(self):
        bad = "1 2 3 .\n. . 5 .\n. . . .\n4 . . .\n"
        with pytest.raises(ParseError) as e:
            parse_sudoku(bad)
        assert e.value.line == 2

    def test_non_square_side_rejected(self):
        bad = "\n" + "\n".join([" ".join(["."] * 5)] * 5) + "\n"
        with pytest.raises(ParseError) as e:
            parse_sudoku(bad)
        assert e.value.line == 2
        assert str(e.value) == "line 2: side 5 must be a perfect square >= 4"

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse_sudoku("")

    def test_conflicting_clues_rejected(self):
        # two 1s in the top row
        bad = "1 1 . .\n. . . .\n. . . .\n. . . .\n"
        with pytest.raises(InvalidInstanceError):
            parse_sudoku(bad)

    def test_random_instance_round_trip(self):
        for _ in range(20):
            s = int(RNG.choice([4, 9]))
            sol = planted_grid(s)
            n_clues = int(RNG.integers(1, s * s // 2))
            cells = RNG.choice(s * s, size=n_clues, replace=False)
            clues = tuple(sorted((int(c // s), int(c % s), int(sol[c // s, c % s]))
                                 for c in cells))
            inst = SudokuInstance(s, clues)
            assert parse_sudoku(format_sudoku(inst)) == inst


class TestSudokuInstance:
    def test_rejects_bad_size(self):
        with pytest.raises(InvalidInstanceError,
                           match="side 5 must be a perfect square >= 4"):
            SudokuInstance(5, ())
        with pytest.raises(InvalidInstanceError):
            SudokuInstance(3, ())

    def test_rejects_out_of_range_clue(self):
        with pytest.raises(InvalidInstanceError):
            SudokuInstance(4, ((0, 0, 4),))
        with pytest.raises(InvalidInstanceError):
            SudokuInstance(4, ((4, 0, 0),))

    def test_rejects_duplicate_cell(self):
        with pytest.raises(InvalidInstanceError):
            SudokuInstance(4, ((0, 0, 1), (0, 0, 2)))

    @pytest.mark.parametrize("clues", [((0, 0, 4),), ((1, 1, 1), (-1, 0, 2)),
                                       ((0, 0, 1), (0, 0, 2)),
                                       ((2, 3, 0), (1, 1, 1), (2, 3, 1))])
    def test_clue_errors_are_the_projections(self, clues):
        # one check serves both: the instance re-raises the projection's
        # error as InvalidInstanceError
        with pytest.raises(ValueError) as want:
            ClueProjection(4, clues)
        with pytest.raises(InvalidInstanceError) as got:
            SudokuInstance(4, clues)
        assert str(got.value) == str(want.value)

    def test_rejects_pairwise_conflicts(self):
        # same digit twice in one column
        with pytest.raises(InvalidInstanceError):
            SudokuInstance(4, ((0, 0, 1), (2, 0, 1)))
        # same digit twice in one box
        with pytest.raises(InvalidInstanceError):
            SudokuInstance(4, ((0, 0, 1), (1, 1, 1)))

    def test_clue_grid(self):
        inst = parse_sudoku(TEXT4)
        g = clue_grid(inst)
        assert g[0, 0] == 0 and g[3, 0] == 3 and g[1, 1] == -1


class TestRoundingAndValidation:
    def test_lift_then_round_recovers_grid(self):
        for s in (4, 9):
            sol = planted_grid(s)
            assert np.array_equal(round_cube(lift_grid(sol), s), sol)

    def test_lift_is_binary_with_pillar_sums_one(self):
        v = lift_grid(SOLVED4)
        assert set(np.unique(v)) == {0.0, 1.0}
        assert_allclose(v.reshape(4, 4, 4).sum(axis=2), np.ones((4, 4)))

    def test_pattern_solutions_validate(self):
        for s in (4, 9):
            inst = SudokuInstance(s, ())
            ok, viol = validate_sudoku(planted_grid(s), inst)
            assert ok and viol == []

    def test_broken_cell_names_groups(self):
        bad = SOLVED4.copy()
        bad[0, 0] = bad[0, 1]       # duplicate digit in row 0
        ok, viol = validate_sudoku(bad, SudokuInstance(4, ()))
        assert not ok
        kinds = {v[0] for v in viol}
        assert ("row", 0) in viol
        assert "column" in kinds    # the duplicated column is broken too

    def test_clue_violation_reported(self):
        inst = SudokuInstance(4, ((0, 0, (SOLVED4[0, 0] + 1) % 4),))
        ok, viol = validate_sudoku(SOLVED4, inst)
        assert not ok
        assert ("clue", 0, 0) in viol

    def test_block_violation_reported(self):
        bad = SOLVED9.copy()
        # swap two cells from different boxes in the same row
        bad[0, 0], bad[0, 8] = bad[0, 8], bad[0, 0]
        ok, viol = validate_sudoku(bad, SudokuInstance(9, ()))
        assert not ok
        assert any(v[0] == "block" for v in viol)


QUEENS4_SOLUTION = np.array([
    [0, 1, 0, 0],
    [0, 0, 0, 1],
    [1, 0, 0, 0],
    [0, 0, 1, 0],
])


class TestQueens:
    def test_classic_solution_validates(self):
        ok, viol = validate_queens(QUEENS4_SOLUTION, QueensInstance(4))
        assert ok and viol == []

    def test_main_diagonal_pair_reported(self):
        board = np.zeros((4, 4), dtype=int)
        board[0, 0] = board[1, 1] = 1
        board[2, 3] = board[3, 2] = 1   # keep rows/cols single
        ok, viol = validate_queens(board, QueensInstance(4))
        assert not ok
        assert ("diag", 0) in viol

    def test_column_violation_reported(self):
        board = np.zeros((4, 4), dtype=int)
        board[:, 0] = 1
        ok, viol = validate_queens(board, QueensInstance(4))
        assert not ok
        assert ("column", 0) in viol

    def test_round_places_one_queen_per_row(self):
        x = RNG.uniform(size=16)
        board = round_board(x, 4)
        assert np.array_equal(board.sum(axis=1), np.ones(4))

    def test_lift_round_trip(self):
        assert np.array_equal(
            round_board(lift_board(QUEENS4_SOLUTION), 4), QUEENS4_SOLUTION)

    def test_size_below_four_rejected(self):
        with pytest.raises(InvalidInstanceError):
            QueensInstance(3)


class TestProblems:
    def test_sudoku_problem_shape(self):
        prob = sudoku_problem(parse_sudoku(TEXT4))
        assert len(prob.projections) == 5
        assert prob.ambient_dim == 64

    def test_queens_problem_shape(self):
        prob = queens_problem(QueensInstance(8))
        assert len(prob.projections) == 4
        assert prob.ambient_dim == 64

    def test_solution_is_feasible(self):
        inst = SudokuInstance(4, ((0, 0, int(SOLVED4[0, 0])),))
        prob = sudoku_problem(inst)
        assert prob.feasible(lift_grid(SOLVED4))
        assert not prob.feasible(np.zeros(64))

    def test_queens_solution_is_feasible(self):
        prob = queens_problem(QueensInstance(4))
        assert prob.feasible(lift_board(QUEENS4_SOLUTION))

    def test_initial_state_is_seeded_uniform(self):
        prob = queens_problem(QueensInstance(4))
        z0 = prob.initial_state(3)
        assert z0.shape == (4, 16)
        assert np.all((z0 >= 0.0) & (z0 <= 1.0))
        assert np.array_equal(z0, prob.initial_state(3))
        assert not np.array_equal(z0, prob.initial_state(4))

    def test_build_problem_dispatches_on_instance_type(self):
        x = RNG.uniform(size=64)
        for inst, build in ((parse_sudoku(TEXT4), sudoku_problem),
                            (QueensInstance(8), queens_problem)):
            got, want = build_problem(inst), build(inst)
            assert got.ambient_dim == want.ambient_dim
            for p, q in zip(got.projections, want.projections, strict=True):
                assert np.array_equal(p(x), q(x))
        with pytest.raises(TypeError):
            build_problem(circle_line_instance())

    def test_problems_pickle(self):
        import pickle
        for prob, solution in (
                (sudoku_problem(parse_sudoku(TEXT4)), lift_grid(SOLVED4)),
                (queens_problem(QueensInstance(5)),
                 lift_board(queens_board([0, 2, 4, 1, 3])))):
            clone = pickle.loads(pickle.dumps(prob))
            x = RNG.uniform(size=prob.ambient_dim)
            for p, q in zip(prob.projections, clone.projections):
                assert np.array_equal(p(x), q(x))
            assert prob.feasible(solution) and clone.feasible(solution)
            for v in (x, solution + 0.6 * RNG.uniform(size=x.size)):
                assert clone.feasible(v) == prob.feasible(v)


# ---------------------------------------------------------------------------
# the vectorized Problem.feasible against the slow validators

def queens_board(cols):
    s = len(cols)
    board = np.zeros((s, s), dtype=int)
    board[np.arange(s), cols] = 1
    return board


def queens_solution(s):
    """First s-queens placement in lexicographic order, by backtracking."""
    def place(cols):
        if len(cols) == s:
            return cols
        i = len(cols)
        for j in range(s):
            if all(j != c and abs(j - c) != i - r for r, c in enumerate(cols)):
                found = place(cols + [j])
                if found:
                    return found
        return None
    return queens_board(place([]))


def solved_by_sdr(inst):
    """Digit grid of the first seeded sdr run that solves a clued sudoku."""
    prob = sudoku_problem(inst)
    step = product_step(prob.projections, "sdr")
    for seed in range(20):
        grid = prob.round(run(step, prob.initial_state(seed),
                              StopPolicy()).candidate)
        if validate_sudoku(grid, inst)[0]:
            return grid
    raise AssertionError("no seeded sdr run solved the instance")


def _edit_digit(grid, rng):
    grid = grid.copy()
    i, j = rng.integers(grid.shape[0], size=2)
    grid[i, j] = (grid[i, j] + rng.integers(1, grid.shape[0])) % grid.shape[0]
    return grid


def _move_queen(board, rng):
    board = board.copy()
    i = rng.integers(board.shape[0])
    board[i] = np.roll(board[i], rng.integers(1, board.shape[0]))
    return board


ORACLE_CASES = {f"queens-{s}": ("queens", s) for s in range(4, 13)}
ORACLE_CASES.update({key: ("bundled", key)
                     for key in ("4x4", "9x9-37", "9x9-22")})
ORACLE_CASES.update({"9x9-blank": ("blank", 9), "16x16-blank": ("blank", 16)})


@functools.lru_cache(maxsize=None)
def oracle_case(label):
    """(problem, solution board or grid, lift, one-cell edit, validator)."""
    kind, arg = ORACLE_CASES[label]
    if kind == "queens":
        inst = QueensInstance(arg)
        return (queens_problem(inst), queens_solution(arg), lift_board,
                _move_queen, functools.partial(validate_queens, inst=inst))
    if kind == "bundled":
        inst = bundled_sudoku(arg)
        solution = solved_by_sdr(inst)
    else:
        inst = SudokuInstance(arg, ())
        solution = planted_grid(arg)
    return (sudoku_problem(inst), solution, lift_grid, _edit_digit,
            functools.partial(validate_sudoku, inst=inst))


def oracle_candidate(label, kind, seed):
    """A candidate vector near to or far from the case's solution."""
    prob, solution, lift, edit, _ = oracle_case(label)
    rng = np.random.default_rng(seed)
    n, s = prob.ambient_dim, solution.shape[0]
    if kind == "solution":
        return lift(solution)
    if kind == "noisy":
        return lift(solution) + rng.uniform(-1.0, 1.0, n) * rng.uniform(0.1, 1)
    if kind == "edit":
        return lift(edit(solution, rng))
    if kind == "rows":
        return lift(solution[rng.permutation(s)])
    if kind == "columns":
        return lift(solution[:, rng.permutation(s)])
    if kind == "ties":
        return rng.integers(0, rng.integers(2, 4), n).astype(float)
    if kind == "nan":
        v = lift(solution)
        v[rng.integers(n, size=rng.integers(1, 4))] = np.nan
        return v
    return rng.uniform(size=n)


ORACLE_KINDS = ("solution", "noisy", "edit", "rows", "columns", "ties",
                "nan", "uniform")


def slow_feasible(label, v):
    prob, _, _, _, validate = oracle_case(label)
    return validate(prob.round(v))[0]


class TestFeasibilityOracle:
    @given(st.sampled_from(sorted(ORACLE_CASES)), st.sampled_from(ORACLE_KINDS),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_validators(self, label, kind, seed):
        v = oracle_candidate(label, kind, seed)
        assert oracle_case(label)[0].feasible(v) == slow_feasible(label, v)

    @pytest.mark.parametrize("label", sorted(ORACLE_CASES))
    def test_both_answers_occur(self, label):
        prob = oracle_case(label)[0]
        seen = {kind: set() for kind in ORACLE_KINDS}
        for kind in ORACLE_KINDS:
            for seed in range(8):
                v = oracle_candidate(label, kind, seed)
                ok = prob.feasible(v)
                assert ok == slow_feasible(label, v)
                seen[kind].add(ok)
        assert seen["solution"] == {True}
        assert seen["uniform"] == {False}
        assert True in seen["noisy"] and False in seen["noisy"]

    @given(st.sampled_from(sorted(ORACLE_CASES)),
           st.lists(st.sampled_from(ORACLE_KINDS), min_size=1, max_size=8),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_batch_answers_each_row(self, label, kinds, seed):
        batch = np.stack([oracle_candidate(label, kind, seed + r)
                          for r, kind in enumerate(kinds)])
        got = oracle_case(label)[0].feasible(batch)
        assert got.dtype == bool and got.shape == (len(kinds),)
        assert got.tolist() == [slow_feasible(label, v) for v in batch]

    @pytest.mark.parametrize("label, rows", [
        ("9x9-37", 35), ("9x9-22", 35), ("queens-8", 512)])
    def test_batch_at_table_widths(self, label, rows):
        # the batch widths the success tables step: bench's byte budget
        # holds 35 9x9 rows and 512 queens-8 rows
        kinds = ("solution", "edit", "noisy", "nan", "uniform")
        batch = np.stack([oracle_candidate(label, kinds[r % len(kinds)], r)
                          for r in range(rows)])
        got = oracle_case(label)[0].feasible(batch)
        want = [slow_feasible(label, v) for v in batch]
        assert got.dtype == bool and got.tolist() == want
        assert True in want and False in want

    def test_answers_are_plain_bools(self):
        for label in ("queens-8", "9x9-37"):
            prob, solution, lift, _, _ = oracle_case(label)
            assert prob.feasible(lift(solution)) is True
            assert prob.feasible(np.zeros(prob.ambient_dim)) is False

    @pytest.mark.parametrize("label", ["queens-8", "9x9-37"])
    def test_empty_batch(self, label):
        prob = oracle_case(label)[0]
        got = prob.feasible(np.zeros((0, prob.ambient_dim)))
        assert got.dtype == bool and got.shape == (0,)


class TestBundled:
    def test_bundled_instances_load(self):
        for key, size, clues in (("4x4", 4, 4), ("9x9-37", 9, 37),
                                 ("9x9-22", 9, 22)):
            inst = bundled_sudoku(key)
            assert inst.size == size
            assert len(inst.clues) == clues

    def test_unknown_key_rejected(self):
        with pytest.raises(KeyError):
            bundled_sudoku("13x13")


class TestCircleLine:
    def test_bundled_start_point(self):
        inst = circle_line_instance()
        assert isinstance(inst, CircleLineInstance)
        assert_allclose(inst.z0, [-10.0, -8.0])

    def test_line_and_circle_behave(self):
        inst = circle_line_instance()
        p = inst.line.project(np.zeros(2))
        assert_allclose(p, [0.282842712474619, 0.565685424949238], atol=1e-15)
        assert abs(np.linalg.norm(inst.project_circle(np.array([3.0, -4.0])))
                   - 1.0) < 1e-15

    def test_feasible_at_intersection(self):
        # intersection points solve 5 x2^2 - 4 sqrt(2) x2 + 1 = 0
        x2 = (2.0 * np.sqrt(2.0) + np.sqrt(3.0)) / 5.0
        x1 = np.sqrt(2.0) - 2.0 * x2
        pt = np.array([x1, x2])
        inst = circle_line_instance()
        assert inst.feasible(pt)
        assert not inst.feasible(pt + 0.01)
