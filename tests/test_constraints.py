import functools
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from drsplit.constraints import (
    ClueProjection,
    GroupProjection,
    project_unit_sphere,
    queens_groups,
    sudoku_groups,
)
from drsplit.puzzles import SudokuInstance, bundled_sudoku

from helpers import free_mask, loop_project

RNG = np.random.default_rng(99)


# ---------------------------------------------------------------------------
# brute-force oracle: nearest candidate by explicit enumeration.  Candidates
# are ordered unit vectors first (then the zero vector when allowed), and the
# first minimizer wins, which encodes the lowest-index / prefer-spike ties.

def brute_nearest(x, allow_zero):
    d = len(x)
    cands = [np.eye(d)[i] for i in range(d)]
    if allow_zero:
        cands.append(np.zeros(d))
    dists = [np.sum((x - c) ** 2) for c in cands]
    return cands[int(np.argmin(dists))]


def single_group(d, allow_zero):
    """The projection of a d-vector that is one index group."""
    return GroupProjection([tuple(range(d))], d, allow_zero=allow_zero)


class TestSingleGroupProjections:
    def test_matches_brute_force_on_1000_random_groups(self):
        for _ in range(1000):
            d = int(RNG.integers(1, 7))
            x = RNG.normal(size=d) * RNG.choice([0.1, 1.0, 10.0])
            for allow_zero in (False, True):
                assert_allclose(single_group(d, allow_zero)(x),
                                brute_nearest(x, allow_zero), atol=1e-12)

    def test_one_hot_picks_first_argmax(self):
        assert_allclose(single_group(3, False)(np.array([0.2, 0.4, 0.4])),
                        [0.0, 1.0, 0.0])

    def test_at_most_one_below_half_gives_zero(self):
        assert_allclose(single_group(2, True)(np.array([0.2, 0.3])),
                        [0.0, 0.0])

    def test_at_most_one_above_half_gives_spike(self):
        assert_allclose(single_group(2, True)(np.array([0.6, 0.3])),
                        [1.0, 0.0])

    def test_at_most_one_boundary_prefers_spike(self):
        # at max exactly 1/2 both candidates are equidistant; spike wins
        assert_allclose(single_group(2, True)(np.array([0.5, 0.1])),
                        [1.0, 0.0])

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_outputs_are_idempotent_binary(self, vals):
        x = np.array(vals)
        for allow_zero in (False, True):
            proj = single_group(len(x), allow_zero)
            y = proj(x)
            assert set(np.unique(y)) <= {0.0, 1.0}
            assert np.array_equal(proj(y), y)


# ---------------------------------------------------------------------------
# index-group builders.  Oracle: direct triple-loop enumeration of the cube
# addressing rule index = ((i*s) + j)*s + k.

def enumerate_cells(s):
    return {(i, j, k): (i * s + j) * s + k
            for i in range(s) for j in range(s) for k in range(s)}


def rows(table):
    """The groups of an index table as tuples, with the -1 padding dropped."""
    return [tuple(int(i) for i in row if i >= 0) for row in table]


def is_partition(groups, n):
    seen = sorted(itertools.chain.from_iterable(rows(groups)))
    return seen == list(range(n))


def padded(groups, width):
    return np.array([list(g) + [-1] * (width - len(g)) for g in groups])


def oracle_sudoku_groups(s, kind):
    """Loop enumeration of one sudoku family, in the builders' order."""
    c, b, r = enumerate_cells(s), math.isqrt(s), range(s)
    if kind == "row":
        return [[c[i, j, k] for i in r] for j in r for k in r]
    if kind == "column":
        return [[c[i, j, k] for j in r] for i in r for k in r]
    if kind == "pillar":
        return [[c[i, j, k] for k in r] for i in r for j in r]
    return [[c[i, j, k] for i in range(bi * b, bi * b + b)
             for j in range(bj * b, bj * b + b)]
            for k in r for bi in range(b) for bj in range(b)]


def oracle_queens_groups(s, kind):
    """Loop enumeration of one queens family, in the builders' order."""
    r = range(s)
    if kind == "row":
        return [[i * s + j for j in r] for i in r]
    if kind == "column":
        return [[i * s + j for i in r] for j in r]
    if kind == "antidiag":
        return [[i * s + t - i for i in r if 0 <= t - i < s]
                for t in range(2 * s - 1)]
    return [[i * s + i - d for i in r if 0 <= i - d < s]
            for d in range(1 - s, s)]


def test_builders_return_the_oracle_tables():
    # same groups, same order within a group, padding at the right end
    for s in (4, 9):
        for kind in ("row", "column", "pillar", "block"):
            assert np.array_equal(sudoku_groups(s, kind),
                                  oracle_sudoku_groups(s, kind))
    for s in range(4, 10):
        for kind in ("row", "column", "antidiag", "diag"):
            assert np.array_equal(queens_groups(s, kind),
                                  padded(oracle_queens_groups(s, kind), s))


class TestSudokuGroups:
    def test_cell_index_formula(self):
        # the pillar table lists the cube in (i, j, k) order
        cells = enumerate_cells(4)
        pillar = sudoku_groups(4, "pillar")
        for (i, j, k), idx in cells.items():
            assert pillar[4 * i + j, k] == idx

    def test_row_group_at_j0_k0(self):
        # ((i*4)+0)*4+0 for i = 0..3
        groups = rows(sudoku_groups(4, "row"))
        assert [g for g in groups if 0 in g] == [(0, 16, 32, 48)]

    def test_pillar_group_is_contiguous(self):
        groups = rows(sudoku_groups(4, "pillar"))
        assert groups[0] == (0, 1, 2, 3)

    def test_groups_match_enumeration_oracle(self):
        for s in (4, 9):
            cells = enumerate_cells(s)
            by_kind = {
                "row": lambda i, j, k: (j, k),
                "column": lambda i, j, k: (i, k),
                "pillar": lambda i, j, k: (i, j),
            }
            for kind, key in by_kind.items():
                want = {}
                for (i, j, k), idx in cells.items():
                    want.setdefault(key(i, j, k), []).append(idx)
                got = {tuple(sorted(g)) for g in rows(sudoku_groups(s, kind))}
                assert got == {tuple(sorted(v)) for v in want.values()}

    def test_block_groups_match_enumeration_oracle(self):
        for s in (4, 9):
            b = int(round(s ** 0.5))
            want = {}
            for (i, j, k), idx in enumerate_cells(s).items():
                want.setdefault((i // b, j // b, k), []).append(idx)
            got = {tuple(sorted(g))
                   for g in rows(sudoku_groups(s, "block"))}
            assert got == {tuple(sorted(v)) for v in want.values()}

    def test_each_kind_partitions_the_cube(self):
        for s in (4, 9):
            for kind in ("row", "column", "pillar", "block"):
                groups = sudoku_groups(s, kind)
                assert len(groups) == s * s
                assert all(len(g) == s for g in rows(groups))
                assert is_partition(groups, s ** 3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            sudoku_groups(4, "banana")

    def test_non_square_size_rejected(self):
        with pytest.raises(ValueError):
            sudoku_groups(5, "row")


class TestQueensGroups:
    def test_main_diagonal_group(self):
        groups = rows(queens_groups(4, "diag"))
        assert (0, 5, 10, 15) in {tuple(sorted(g)) for g in groups}

    def test_antidiagonal_group(self):
        groups = rows(queens_groups(4, "antidiag"))
        # i + j = 3 runs corner to corner
        assert (3, 6, 9, 12) in {tuple(sorted(g)) for g in groups}

    def test_counts_and_partitions(self):
        for s in (4, 8):
            for kind, count in (("row", s), ("column", s),
                                ("antidiag", 2 * s - 1), ("diag", 2 * s - 1)):
                groups = queens_groups(s, kind)
                assert len(groups) == count
                assert is_partition(groups, s * s)

    def test_rows_match_oracle(self):
        got = {tuple(sorted(g)) for g in rows(queens_groups(4, "row"))}
        want = {tuple(4 * i + j for j in range(4)) for i in range(4)}
        assert got == want

    def test_diagonal_lengths(self):
        lens = sorted(len(g) for g in rows(queens_groups(5, "diag")))
        assert lens == [1, 1, 2, 2, 3, 3, 4, 4, 5]


# ---------------------------------------------------------------------------
# vectorized grouped projection against the per-group oracle

class TestGroupProjection:
    def ref_apply(self, groups, x, allow_zero):
        out = x.copy()
        for g in rows(groups):
            out[list(g)] = brute_nearest(x[list(g)], allow_zero)
        return out

    def test_matches_per_group_oracle(self):
        for s, kind, allow in [(4, "row", False), (9, "block", False),
                               (4, "pillar", False)]:
            groups = sudoku_groups(s, kind)
            proj = GroupProjection(groups, s ** 3, allow_zero=allow)
            for _ in range(20):
                x = RNG.normal(size=s ** 3)
                assert_allclose(proj(x), self.ref_apply(groups, x, allow),
                                atol=0)

    def test_matches_oracle_variable_length_groups(self):
        groups = queens_groups(8, "diag")
        proj = GroupProjection(groups, 64, allow_zero=True)
        for _ in range(50):
            x = RNG.normal(size=64)
            assert_allclose(proj(x), self.ref_apply(groups, x, True), atol=0)

    def test_group_sums(self):
        proj = GroupProjection(sudoku_groups(4, "row"), 64, allow_zero=False)
        y = proj(RNG.normal(size=64))
        for g in rows(sudoku_groups(4, "row")):
            assert y[list(g)].sum() == 1.0
        amo = GroupProjection(queens_groups(4, "antidiag"), 16, allow_zero=True)
        y = amo(RNG.uniform(-1, 1, size=16))
        for g in rows(queens_groups(4, "antidiag")):
            assert y[list(g)].sum() in (0.0, 1.0)

    def test_identity_off_groups(self):
        # coordinates not covered by any group pass through untouched
        proj = GroupProjection([(0, 1), (2, 3)], 6, allow_zero=False)
        x = np.array([0.1, 0.9, 0.3, 0.2, 7.0, -3.0])
        y = proj(x)
        assert y[4] == 7.0 and y[5] == -3.0

    def test_passes_is_the_coordinates_outside_every_group(self):
        proj = GroupProjection([(0, -1), (2, 4), (7, 5)], 9)
        passes = proj.passes
        assert passes.tolist() == [False, True, False, True, False, False,
                                   True, False, True]
        x = RNG.normal(size=9)
        assert np.array_equal(proj(x)[passes], x[passes])
        assert not GroupProjection(sudoku_groups(4, "row"), 64).passes.any()

    def test_idempotent(self):
        proj = GroupProjection(queens_groups(8, "diag"), 64, allow_zero=True)
        x = RNG.uniform(-1, 2, size=64)
        y = proj(x)
        assert np.array_equal(proj(y), y)

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ValueError):
            GroupProjection([(0, 1), (1, 2)], 4)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            GroupProjection([(0, 9)], 4)
        with pytest.raises(ValueError):
            GroupProjection([(0, -2)], 4)

    def test_padding_entries_are_skipped(self):
        padded_proj = GroupProjection([(0, 1), (2, -1)], 4, allow_zero=True)
        x = np.array([0.2, 0.9, 0.7, 5.0])
        assert_allclose(padded_proj(x), [0.0, 1.0, 1.0, 5.0])
        assert_allclose(padded_proj(np.array([0.1, 0.2, 0.3, 0.4])),
                        [0.0, 0.0, 0.0, 0.4])

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            GroupProjection([(0, 1), (-1, -1)], 4)

    def test_table_must_be_two_dimensional(self):
        for table in ((0, 1, 2), [[(0, 1)], [(2, 3)]]):
            with pytest.raises(ValueError, match="2-D"):
                GroupProjection(table, 4)
        with pytest.raises(ValueError):             # ragged rows
            GroupProjection([(0, 1), (2,)], 4)

    def test_random_tie_break_is_seeded_and_valid(self):
        groups = [(0, 1, 2, 3)]
        a = GroupProjection(groups, 4, tie_break="random", seed=5)
        b = GroupProjection(groups, 4, tie_break="random", seed=5)
        ties = np.array([1.0, 1.0, 1.0, 1.0])
        seen = set()
        for _ in range(20):
            ya = a(ties)
            assert np.array_equal(ya, b(ties))
            assert ya.sum() == 1.0
            seen.add(int(np.argmax(ya)))
        assert len(seen) > 1          # actually randomizes across calls

    def test_pickled_random_tie_break_continues_the_seeded_stream(self):
        import pickle
        groups = [(0, 1, 2, 3)]
        a = GroupProjection(groups, 4, tie_break="random", seed=5)
        clone = pickle.loads(pickle.dumps(a))
        ties = np.array([1.0, 1.0, 1.0, 1.0])
        for _ in range(20):
            assert np.array_equal(a(ties), clone(ties))

    def test_lowest_index_tie_break_default(self):
        proj = GroupProjection([(0, 1, 2)], 3)
        assert_allclose(proj(np.array([0.7, 0.7, 0.7])), [1.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# every table shape against a per-group loop: padded and unpadded tables,
# tables that cover all or only some coordinates, single vectors and
# strided or Fortran-ordered batches, both tie-breaks, allow_zero on and off

ORACLE_TABLES = {
    "unpadded-full": (sudoku_groups(4, "block"), 64),
    "padded-full": (queens_groups(6, "diag"), 36),
    "unpadded-partial": (sudoku_groups(4, "row")[::3], 64),
    "padded-partial": (queens_groups(6, "antidiag")[1::2], 36),
    "ragged-partial": (padded([(0, 1, 2), (5,), (7, 9)], 3), 12),
    # consecutive runs of every coordinate
    "consecutive-pillar": (sudoku_groups(4, "pillar"), 64),
    "consecutive-row": (queens_groups(6, "row"), 36),
}


def layouts(batch):
    """The batch as a strided block slice and as a Fortran-ordered copy."""
    return (np.stack([batch, batch[::-1]], axis=1)[:, 0],
            np.asfortranarray(batch))


def into_block_slice(proj, x):
    """proj(x, out=) into the middle slice of a buffer of three x-shaped
    slices, as a product step writes one block; the slices on either side
    must keep their fill."""
    buffer = np.full((3,) + x.shape, 7.0)
    got = proj(x, out=buffer[1])
    assert got.base is buffer
    assert (buffer[[0, 2]] == 7.0).all()
    return buffer[1]


class TestGroupProjectionAgainstLoop:
    @given(st.sampled_from(sorted(ORACLE_TABLES)), st.booleans(),
           st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_lowest_ties(self, label, allow_zero, rows, seed):
        table, n = ORACLE_TABLES[label]
        proj = GroupProjection(table, n, allow_zero=allow_zero)
        batch = batch_rows(n, rows, seed)
        want = np.stack([loop_project(table, row, allow_zero)
                         for row in batch])
        for row, w in zip(batch, want):
            assert np.array_equal(proj(row), w, equal_nan=True)
            assert np.array_equal(into_block_slice(proj, row), w,
                                  equal_nan=True)
        for view in layouts(batch):
            assert np.array_equal(proj(view), want, equal_nan=True)
            assert np.array_equal(into_block_slice(proj, view), want,
                                  equal_nan=True)

    @given(st.sampled_from(sorted(ORACLE_TABLES)), st.booleans(),
           st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_random_ties(self, label, allow_zero, rows, seed):
        """Lone vectors, returned and written into a block slice, against
        the loop over the same draws; a batch is rejected without a draw,
        so the stream goes on where it was."""
        table, n = ORACLE_TABLES[label]
        proj = GroupProjection(table, n, allow_zero=allow_zero,
                               tie_break="random", seed=seed)
        draws = np.random.default_rng(seed)
        shape = np.shape(table)
        batch = batch_rows(n, rows, seed)
        batch[0, ::2] = -np.inf         # groups whose real entries tie at -inf
        for row in batch:
            for call in (proj, functools.partial(into_block_slice, proj)):
                want = loop_project(table, row, allow_zero,
                                    draws.random(shape))
                assert np.array_equal(call(row), want, equal_nan=True)
        for view in layouts(batch):
            with pytest.raises(ValueError, match="share its stream"):
                proj(view)
        row = batch[-1]
        want = loop_project(table, row, allow_zero, draws.random(shape))
        assert np.array_equal(into_block_slice(proj, row), want,
                              equal_nan=True)

    @pytest.mark.parametrize("tie_break", ["lowest", "random"])
    def test_a_nan_group_spikes_its_first_nan(self, tie_break):
        table = [(0, 1, 2, -1), (3, 4, 5, 6)]
        proj = GroupProjection(table, 7, tie_break=tie_break, seed=3)
        x = np.array([0.9, np.nan, np.nan, 0.2, 0.7, 0.7, np.nan])
        want = [[0, 1, 0, 0, 0, 0, 1], [1, 0, 0, 0, 1, 0, 0]]
        for _ in range(10):
            assert np.array_equal(proj(x), want[0])
            assert np.array_equal(proj(x[::-1]), want[1])
        # batches take lowest ties only
        batch = np.stack([x, x[::-1]])
        assert np.array_equal(GroupProjection(table, 7)(batch), want)

    def test_padding_never_wins_a_random_tie(self):
        proj = GroupProjection([(0, 1, -1), (2, -1, -1)], 4,
                               tie_break="random", seed=1)
        x = np.array([-np.inf, -np.inf, 0.3, 7.0])
        for _ in range(20):
            y = proj(x)
            assert y[3] == 7.0
            assert y[:2].sum() == 1.0 and y[2] == 1.0


class TestPerGroupAllowZero:
    @given(st.sampled_from(sorted(ORACLE_TABLES)), st.integers(1, 6),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_each_group_keeps_its_own_rule(self, label, rows, seed):
        table, n = ORACLE_TABLES[label]
        zero = np.random.default_rng(seed).random(len(table)) < 0.5
        proj = GroupProjection(table, n, allow_zero=zero)
        batch = batch_rows(n, rows, seed)
        want = np.stack([loop_project(table, row, zero) for row in batch])
        for row, w in zip(batch, want):
            assert same_bits(proj(row), w)
        for view in layouts(batch):
            assert same_bits(proj(view), want)

    def test_all_true_and_all_false_are_the_single_bool(self):
        table = queens_groups(6, "diag")
        batch = batch_rows(36, 5, 3, every_kind=True)
        for flag in (False, True):
            one = GroupProjection(table, 36, allow_zero=flag)
            each = GroupProjection(table, 36, allow_zero=[flag] * len(table))
            assert same_bits(each(batch), one(batch))
            assert same_bits(each(batch[0]), one(batch[0]))

    @pytest.mark.parametrize("zero", [[True, False], np.ones((2, 3), bool)])
    def test_one_bool_per_group(self, zero):
        with pytest.raises(ValueError, match="one per group"):
            GroupProjection([(0, 1), (2, 3), (4, 5)], 6, allow_zero=zero)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestMergedTable:
    """`GroupProjection.merged`: one table over the flattened rows of a
    (blocks, n) product, each given block's groups offset to its row."""

    BLOCKS = {
        "queens": [GroupProjection(queens_groups(6, kind), 36,
                                   allow_zero=kind in ("antidiag", "diag"))
                   for kind in ("row", "column", "antidiag", "diag")],
        "sudoku": [GroupProjection(sudoku_groups(4, kind), 64)
                   for kind in ("row", "column", "pillar", "block")],
        "ragged": [GroupProjection(padded([(0, 1, 2), (5,), (7, 9)], 3), 12,
                                   allow_zero=True),
                   GroupProjection([(11, 0), (3, 4)], 12)],
    }

    @given(st.sampled_from(sorted(BLOCKS)), st.integers(0, 3),
           st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_each_row_is_its_block(self, label, skip, rows, seed):
        """Blocks placed at rows 0, 1, 3, ... with row 2 left out (it
        passes through), and one block dropped."""
        blocks = self.BLOCKS[label]
        n = blocks[0].n
        placed = {i + (i >= 2): p for i, p in enumerate(blocks)
                  if i != skip % len(blocks)}
        count = len(blocks) + 1
        merged = GroupProjection.merged(placed, count)
        batch = batch_rows(count * n, rows, seed, every_kind=True)
        want = batch.reshape(rows, count, n).copy()
        for i, p in placed.items():
            want[:, i] = [loop_project(p._idx, row, p._zero)
                          for row in batch.reshape(rows, count, n)[:, i]]
        want = want.reshape(rows, -1)
        assert same_bits(merged(batch), want)
        for row, w in zip(batch, want):
            assert same_bits(merged(row), w)

    def test_only_lowest_tie_blocks_of_one_length_merge(self):
        a = GroupProjection(queens_groups(4, "row"), 16)
        for other in (GroupProjection(queens_groups(4, "row"), 16,
                                      tie_break="random", seed=1),
                      GroupProjection(queens_groups(5, "row"), 25)):
            with pytest.raises(ValueError, match="lowest-tie"):
                GroupProjection.merged({0: a, 1: other}, 2)


class TestClueProjection:
    def test_clamps_full_pillar(self):
        # one clue (i=0, j=0, digit 2) on a 4-cube
        proj = ClueProjection(4, [(0, 0, 2)])
        x = RNG.normal(size=64)
        y = proj(x)
        assert_allclose(y[0:4], [0.0, 0.0, 1.0, 0.0])
        assert np.array_equal(y[4:], x[4:])

    def test_is_affine(self):
        proj = ClueProjection(4, [(0, 0, 2), (3, 3, 0)])
        x, y = RNG.normal(size=64), RNG.normal(size=64)
        for a in (0.25, 0.5, -1.0):
            assert_allclose(proj(a * x + (1 - a) * y),
                            a * proj(x) + (1 - a) * proj(y), atol=1e-12)

    def test_idempotent_and_free_mask(self):
        proj = ClueProjection(4, [(1, 2, 3)])
        x = RNG.normal(size=64)
        assert np.array_equal(proj(proj(x)), proj(x))
        mask = free_mask(SudokuInstance(4, ((1, 2, 3),)))
        assert mask.sum() == 64 - 4
        cells = enumerate_cells(4)
        assert not mask[[cells[1, 2, k] for k in range(4)]].any()
        # free coordinates pass through; the clued pillar becomes e_3
        assert np.array_equal(proj(x)[mask], x[mask])
        assert np.array_equal(proj.passes, mask)
        assert np.array_equal(proj(x)[~mask], np.eye(4)[3])

    def test_out_writes_its_slice(self):
        inst = bundled_sudoku("9x9-37")
        proj = ClueProjection(inst.size, inst.clues)
        batch = batch_rows(729, 4, 5)
        for x in (batch, batch[0], layouts(batch)[0]):
            assert np.array_equal(into_block_slice(proj, x), proj(x),
                                  equal_nan=True)

    def test_duplicate_cell_rejected(self):
        with pytest.raises(ValueError, match="clued twice"):
            ClueProjection(4, [(0, 0, 1), (0, 0, 2)])

    @pytest.mark.parametrize("clue", [(-1, 0, 2), (0, -1, 2), (0, 0, -1),
                                      (4, 0, 2), (0, 4, 2), (0, 0, 4)])
    def test_out_of_range_clue_rejected(self, clue):
        with pytest.raises(ValueError, match="out of range"):
            ClueProjection(4, [(1, 1, 1), clue])


@pytest.mark.parametrize("proj", [
    ClueProjection(4, [(0, 0, 2)]),
    GroupProjection(sudoku_groups(4, "row"), 64)])
def test_out_must_be_a_float_array_of_the_shape(proj):
    x = RNG.normal(size=(2, 64))
    for out in (np.empty((2, 63)), np.empty((2, 64), dtype=np.float32)):
        with pytest.raises(ValueError, match="float array of the input's"):
            proj(x, out=out)


def test_a_group_projection_out_must_be_contiguous():
    """It writes through flat indices; a clue clamp takes any strides."""
    x = RNG.normal(size=(2, 64))
    proj = GroupProjection(sudoku_groups(4, "row"), 64)
    with pytest.raises(ValueError, match="C-contiguous"):
        proj(x, out=np.empty((2, 2, 64))[:, 0])
    clue = ClueProjection(4, [(0, 0, 2)])
    stacked = np.full((2, 3, 64), 7.0)
    assert clue(x, out=stacked[:, 1]).base is stacked
    assert same_bits(stacked[:, 1], clue(x))
    assert (stacked[:, [0, 2]] == 7.0).all()


# ---------------------------------------------------------------------------
# a leading run axis: each batch row equals the single-vector call, bitwise

def batch_rows(n, rows, seed, every_kind=False):
    """(rows, n) batch mixing uniform, tie-heavy, NaN-holed and 0/1 rows;
    with every_kind, row r is of kind r % 5, the fifth kind all -inf."""
    rng = np.random.default_rng(seed)
    out = rng.uniform(-0.5, 1.5, size=(rows, n))
    for r in range(rows):
        kind = r % 5 if every_kind else rng.integers(4)
        if kind == 1:       # few distinct values: exact ties in every group
            out[r] = rng.integers(0, 3, n) / 2.0
        elif kind == 2:
            out[r, rng.integers(n, size=rng.integers(1, 4))] = np.nan
        elif kind == 3:     # already a 0/1 point, as a solved run's block
            out[r] = rng.integers(0, 2, n).astype(float)
        elif kind == 4:     # every group ties at -inf
            out[r] = -np.inf
    return out


BATCH_TABLES = {
    **{f"sudoku-{s}-{kind}": (sudoku_groups(s, kind), s ** 3, False)
       for s in (4, 9) for kind in ("row", "column", "pillar", "block")},
    **{f"queens-{s}-{kind}": (queens_groups(s, kind), s * s,
                              kind in ("antidiag", "diag"))
       for s in (5, 8) for kind in ("row", "column", "antidiag", "diag")},
    "queens-8-diag-one-hot": (queens_groups(8, "diag"), 64, False),
    "queens-8-row-or-zero": (queens_groups(8, "row"), 64, True),
}


def assert_rows_match(proj, batch):
    # a strided (runs, n) view, as a product-space block slice is
    stacked = np.stack([batch, batch[::-1]], axis=1)[:, 0]
    got = proj(stacked)
    assert got.shape == batch.shape
    want = np.stack([proj(row) for row in batch])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestRunAxis:
    @given(st.sampled_from(sorted(BATCH_TABLES)), st.integers(1, 9),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_group_projection_rows_equal_single_calls(self, label, rows,
                                                      seed):
        table, n, allow_zero = BATCH_TABLES[label]
        proj = GroupProjection(table, n, allow_zero=allow_zero)
        assert_rows_match(proj, batch_rows(n, rows, seed))

    @given(st.sampled_from(["4x4", "9x9-37", "9x9-22"]), st.integers(1, 9),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_clue_projection_rows_equal_single_calls(self, key, rows, seed):
        inst = bundled_sudoku(key)
        proj = ClueProjection(inst.size, inst.clues)
        assert_rows_match(proj, batch_rows(inst.size ** 3, rows, seed))

    def test_padding_and_uncovered_coordinates_per_row(self):
        proj = GroupProjection([(0, 1), (2, -1)], 5, allow_zero=True)
        batch = np.array([[0.2, 0.9, 0.7, 5.0, -1.0],
                          [0.1, 0.2, 0.3, 0.4, 2.0]])
        assert_allclose(proj(batch), [[0.0, 1.0, 1.0, 5.0, -1.0],
                                      [0.0, 0.0, 0.0, 0.4, 2.0]])

    def test_empty_batch_keeps_its_shape(self):
        proj = GroupProjection(queens_groups(5, "diag"), 25, allow_zero=True)
        assert proj(np.zeros((0, 25))).shape == (0, 25)
        out = np.empty((0, 25))
        assert proj(np.zeros((0, 25)), out=out) is out

    @pytest.mark.parametrize("rows", [0, 1, 3])
    def test_a_random_tie_batch_is_rejected(self, rows):
        """Its rows would share the one stream, each row's ties then
        depending on the rows beside it: any (runs, n) input is refused."""
        proj = GroupProjection(queens_groups(5, "diag"), 25, allow_zero=True,
                               tie_break="random", seed=1)
        for out in (None, np.empty((rows, 25))):
            with pytest.raises(ValueError, match="share its stream"):
                proj(np.zeros((rows, 25)), out=out)

    def test_single_vector_shape_is_kept(self):
        proj = GroupProjection(queens_groups(5, "diag"), 25, allow_zero=True)
        assert proj(RNG.normal(size=25)).shape == (25,)
        clue = ClueProjection(4, [(0, 0, 2)])
        assert clue(RNG.normal(size=64)).shape == (64,)


# the batched kernel at the widths the tables run: 35-row 9x9 batches,
# 512-row queens-8 batches, queens-32, and a table whose m * G passes the
# int16 range, against per-row single-vector calls and the per-group loop

def wide_table():
    """200 members a group, 170 groups over 34100 coordinates (m * G =
    34000); the first ten groups hold 150, so 600 coordinates are in none."""
    rng = np.random.default_rng(7)
    table = rng.permutation(34100)[:34000].reshape(170, 200)
    table[:10, 150:] = -1
    return table, 34100


WIDE_TABLES = {
    **{f"sudoku-9-{kind}": (sudoku_groups(9, kind), 729, False, 35)
       for kind in ("row", "column", "pillar", "block")},
    **{f"queens-8-{kind}": (queens_groups(8, kind), 64,
                            kind in ("antidiag", "diag"), 512)
       for kind in ("row", "column", "antidiag", "diag")},
    **{f"queens-32-{kind}": (queens_groups(32, kind), 1024,
                             kind in ("antidiag", "diag"), 3)
       for kind in ("row", "column", "antidiag", "diag")},
    "wide": (*wide_table(), False, 5),
}


class TestBatchAtTableWidths:
    @pytest.mark.parametrize("label", sorted(WIDE_TABLES))
    def test_lowest_ties(self, label):
        table, n, allow_zero, rows = WIDE_TABLES[label]
        proj = GroupProjection(table, n, allow_zero=allow_zero)
        batch = batch_rows(n, rows, 16, every_kind=True)
        assert_rows_match(proj, batch)
        got = proj(batch)
        for r in range(min(rows, 5)):       # one row of each kind
            want = loop_project(table, batch[r], allow_zero)
            assert np.array_equal(got[r], want, equal_nan=True)

    @pytest.mark.parametrize("label", sorted(WIDE_TABLES))
    def test_random_ties(self, label):
        """Lone rows of each kind at the table widths against the loop
        over the same draws; the batch itself is rejected."""
        table, n, allow_zero, rows = WIDE_TABLES[label]
        proj = GroupProjection(table, n, allow_zero=allow_zero,
                               tie_break="random", seed=16)
        batch = batch_rows(n, rows, 17, every_kind=True)
        draws = np.random.default_rng(16)
        with pytest.raises(ValueError, match="share its stream"):
            proj(batch)
        for r in range(min(rows, 5)):       # one row of each kind
            want = loop_project(table, batch[r], allow_zero,
                                draws.random(np.shape(table)))
            assert np.array_equal(proj(batch[r]), want, equal_nan=True)


@pytest.mark.parametrize("shape", [(), (2, 3, 64), (1, 1, 1, 64)])
def test_inputs_that_are_not_one_or_two_d_are_rejected(shape):
    for tie_break in ("lowest", "random"):
        proj = GroupProjection(sudoku_groups(4, "row"), 64,
                               tie_break=tie_break)
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            proj(np.zeros(shape))


class TestCircleProjection:
    def test_normalizes(self):
        x = np.array([3.0, 4.0])
        assert_allclose(project_unit_sphere(x), [0.6, 0.8], atol=1e-15)

    def test_origin_falls_back_to_unit_x(self):
        assert_allclose(project_unit_sphere(np.zeros(2)), [1.0, 0.0])

    def test_idempotent_off_origin(self):
        x = RNG.normal(size=2)
        p = project_unit_sphere(x)
        assert_allclose(project_unit_sphere(p), p, atol=1e-15)
        assert abs(np.linalg.norm(p) - 1.0) < 1e-15
