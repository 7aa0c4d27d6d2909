import functools
import os
import re
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from drsplit import splitting
from drsplit.analysis import (
    InsufficientDataError,
    auto_tail_fraction,
    detect_finite_termination,
    fit_linear_rate,
)
from drsplit.bench import BATCH_BYTES
from drsplit.constraints import (
    ClueProjection,
    GroupProjection,
    project_unit_sphere,
)
from drsplit.puzzles import (
    Hyperplane,
    QueensInstance,
    SudokuInstance,
    bundled_sudoku,
    circle_line_instance,
    queens_problem,
    sudoku_problem,
)
from drsplit.splitting import (
    FEASIBLE,
    MAX_ITER,
    NON_FINITE,
    STALLED,
    IterationTrace,
    StopPolicy,
    ap_step,
    ddr_step,
    dr_step,
    dr_step_switched,
    product_step,
    read_trace_csv,
    run,
    _consensus,
    _iterate,
    _row_norms,
    run_batch,
    two_set_step,
)

from helpers import (
    Textbook,
    lift_grid,
    oracle_step,
    planted_grid,
    reference_run,
    stacked_oracle,
)

RNG = np.random.default_rng(11)

LINE = Hyperplane(np.array([1.0, 2.0]), np.sqrt(2.0))


class TestTwoSetSteps:
    def test_dr_step_matches_fixed_point_operator(self):
        # z' must equal ((2Pb - I)(2Pa - I) + I) z / 2 for deterministic maps
        pa, pb = LINE.project, project_unit_sphere
        for _ in range(100):
            z = RNG.normal(size=2) * 3
            z_next, x, u = dr_step(pa, pb, z)
            ra = 2.0 * pa(z) - z
            want = 0.5 * ((2.0 * pb(ra) - ra) + z)
            assert_allclose(z_next, want, atol=1e-10)
            assert_allclose(x, pa(z), atol=0)

    def test_dr_step_identical_sets_is_stationary(self):
        z = RNG.normal(size=2)
        z_next, x, u = dr_step(LINE.project, LINE.project, z)
        assert_allclose(z_next, z, atol=1e-12)
        assert_allclose(u, x, atol=1e-12)

    def test_dr_step_switched_frozen_example(self):
        # circle first, then line, from z = (2, 0)
        z_next, x, u = dr_step_switched(LINE.project, project_unit_sphere,
                                        np.array([2.0, 0.0]))
        assert_allclose(x, [1.0, 0.0], atol=1e-15)
        assert_allclose(u, [0.282842712474619, 0.565685424949238], atol=1e-15)
        assert_allclose(z_next, [1.282842712474619, 0.565685424949238],
                        atol=1e-15)

    def test_ddr_step_damps_the_first_projection(self):
        gamma = 0.2
        z = RNG.normal(size=2) * 2
        z_next, x, u = ddr_step(LINE.project, project_unit_sphere, gamma, z)
        lam = gamma / (1.0 + gamma)
        assert_allclose(x, (1 - lam) * z + lam * LINE.project(z), atol=1e-14)
        assert_allclose(u, project_unit_sphere(2 * x - z), atol=0)
        assert_allclose(z_next, z + u - x, atol=0)

    def test_ddr_with_infinite_gamma_is_dr_bitwise(self):
        z = RNG.normal(size=2)
        a = ddr_step(LINE.project, project_unit_sphere, np.inf, z)
        b = dr_step(LINE.project, project_unit_sphere, z)
        for ai, bi in zip(a, b):
            assert np.array_equal(ai, bi)

    def test_ddr_rejects_nonpositive_gamma(self):
        for g in (0.0, -1.0, None):
            with pytest.raises(ValueError):
                ddr_step(LINE.project, project_unit_sphere, g,
                         np.array([1.0, 0.0]))

    def test_ap_step_circle_then_line(self):
        z_next, x, u = ap_step(LINE.project, project_unit_sphere,
                               np.array([2.0, 0.0]))
        assert_allclose(u, [1.0, 0.0], atol=0)
        assert_allclose(x, LINE.project(np.array([1.0, 0.0])), atol=0)
        assert np.array_equal(z_next, x)

    def test_ap_between_two_lines_converges_to_intersection(self):
        l1 = Hyperplane(np.array([0.0, 1.0]), 0.0)   # x-axis
        l2 = Hyperplane(np.array([1.0, -1.0]), 0.0)  # y = x
        x = np.array([5.0, 3.0])
        for _ in range(200):
            x = ap_step(l1.project, l2.project, x)[0]
        assert_allclose(x, [0.0, 0.0], atol=1e-10)


class TestProductSteps:
    def test_step_factories_match_primitives(self):
        t1 = two_set_step(LINE.project, project_unit_sphere, "sdr-switched")
        w = RNG.normal(size=2)
        assert np.array_equal(
            t1(w)[0], dr_step_switched(LINE.project, project_unit_sphere, w)[0])

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            product_step([], "newton")


class TestStopPolicy:
    def test_defaults(self):
        pol = StopPolicy()
        assert pol.max_iter == 10_000
        assert pol.min_iter == 100
        assert pol.z_step_tol == 1e-12
        assert pol.stop_on_feasible

    def test_validation(self):
        with pytest.raises(ValueError):
            StopPolicy(max_iter=0)
        with pytest.raises(ValueError):
            StopPolicy(max_iter=10, min_iter=20)
        with pytest.raises(ValueError):
            StopPolicy(z_step_tol=-1.0)


class TestRun:
    def test_solved_start_reports_feasible_at_min_iter(self):
        prob = sudoku_problem(bundled_sudoku("4x4"))
        # solve once to find any valid completion
        res = run(product_step(prob.projections, "sdr"),
                  prob.initial_state(0), StopPolicy(), feasible=prob.feasible)
        assert res.outcome == FEASIBLE
        grid = prob.round(res.z.mean(axis=0))
        sol = lift_grid(grid)
        z0 = np.tile(sol, (5, 1))
        res2 = run(product_step(prob.projections, "sdr"), z0,
                   StopPolicy(min_iter=100), feasible=prob.feasible)
        assert res2.outcome == FEASIBLE
        assert res2.iterations == 100

    def test_identical_seeds_give_bitwise_identical_traces(self):
        prob = queens_problem(QueensInstance(6))
        out = []
        for _ in range(2):
            res = run(product_step(prob.projections, "sdr"),
                      prob.initial_state(42), StopPolicy(),
                      feasible=prob.feasible)
            out.append((res.iterations, res.trace.z_step.copy(), res.z.copy()))
        assert out[0][0] == out[1][0]
        assert all(map(np.array_equal, out[0][1:], out[1][1:]))

    def test_no_stop_before_min_iter(self):
        # damped queens runs collapse almost at once; min_iter keeps them on
        prob = queens_problem(QueensInstance(8))
        res = run(product_step(prob.projections, "ddr", gamma=0.2),
                  prob.initial_state(0), StopPolicy(), feasible=prob.feasible)
        assert res.outcome == STALLED
        assert res.iterations == 100

    def test_ddr_sudoku_stalls_infeasible(self):
        prob = sudoku_problem(bundled_sudoku("9x9-22"))
        res = run(product_step(prob.projections, "ddr", gamma=0.2),
                  prob.initial_state(0), StopPolicy(), feasible=prob.feasible)
        assert res.outcome != FEASIBLE

    def test_max_iter_outcome(self):
        prob = queens_problem(QueensInstance(8))
        res = run(product_step(prob.projections, "sdr"), prob.initial_state(0),
                  StopPolicy(max_iter=105, min_iter=100),
                  feasible=lambda x: False)
        assert res.outcome == MAX_ITER
        assert res.iterations == 105

    def test_stall_with_feasibility_off_still_reports_feasible(self):
        prob = sudoku_problem(bundled_sudoku("4x4"))
        res = run(product_step(prob.projections, "sdr"), prob.initial_state(0),
                  StopPolicy(stop_on_feasible=False), feasible=prob.feasible)
        assert res.outcome == FEASIBLE       # classified at the stall
        assert res.trace.z_step[-1] <= 1e-12

    def test_two_set_circle_line_smoke(self):
        inst = circle_line_instance()
        res = run(two_set_step(inst.line.project, inst.project_circle, "ddr",
                               gamma=0.2),
                  inst.z0, StopPolicy(), feasible=inst.feasible)
        assert res.outcome == FEASIBLE

    def test_nan_block_stops_at_first_iteration(self):
        prob = queens_problem(QueensInstance(4))
        blocks = prob.projections[:-1] + [lambda v: np.full_like(v, np.nan)]
        res = run(product_step(blocks, "sdr"), prob.initial_state(0),
                  StopPolicy(), feasible=prob.feasible)
        assert res.outcome == NON_FINITE
        assert res.iterations == 1
        assert len(res.trace) == 1

    def test_nonfinite_initial_state_rejected(self):
        prob = queens_problem(QueensInstance(4))
        bad = prob.initial_state(0)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            run(product_step(prob.projections, "sdr"), bad, StopPolicy())


# ---------------------------------------------------------------------------
# the batched run, row by row

BATCH_PROBLEMS = {
    "4x4": lambda: sudoku_problem(bundled_sudoku("4x4")),
    "9x9-37": lambda: sudoku_problem(bundled_sudoku("9x9-37")),
    **{f"queens-{s}": functools.partial(queens_problem, QueensInstance(s))
       for s in range(5, 11)},
}
BATCH_METHODS = [("sdr", None), ("ddr", 0.2), ("ddr", np.inf),
                 ("sdr-switched", None), ("altproj", None)]
# min_iter 0, 100 and max_iter; feasibility stops on and off; odd and even
# max_iter.  Queens orbits close from iteration 4 (altproj) to past 250.
GRID_POLICIES = [StopPolicy(max_iter=m, min_iter=lo, stop_on_feasible=on)
                 for m in (150, 151) for lo in (0, 100, m)
                 for on in (True, False)]
BATCH_POLICIES = [
    StopPolicy(max_iter=40, min_iter=0),
    StopPolicy(max_iter=6, min_iter=2),
    StopPolicy(max_iter=150, min_iter=0, z_step_tol=1e-6,
               stop_on_feasible=False),
] + GRID_POLICIES


@functools.lru_cache(maxsize=None)
def batch_problem(key):
    return BATCH_PROBLEMS[key]()


def starts(key, seeds):
    prob = batch_problem(key)
    return np.stack([prob.initial_state(seed) for seed in seeds])


def textbook_rows(key, method, gamma, policy, z0s):
    """The (outcome, iterations, orbit_k) of each start's reference run
    under the textbook step, whose steps are dropped start by start."""
    prob = batch_problem(key)
    return [(w.outcome, w.iterations, w.orbit_k) for w in (
        reference_run(Textbook(prob.projections, method, gamma), z0, policy,
                      prob.feasible) for z0 in z0s)]


class TestRunBatch:
    @given(st.sampled_from(sorted(BATCH_PROBLEMS)),
           st.sampled_from(BATCH_METHODS),
           st.sampled_from(range(len(BATCH_POLICIES))),
           st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_each_seed_as_run_under_every_policy(self, key, method, policy,
                                                 seeds):
        """`run`, itself checked against the textbook step below, as the
        oracle of batches of any policy and size."""
        prob, policy = batch_problem(key), BATCH_POLICIES[policy]
        step = product_step(prob.projections, method[0], gamma=method[1])
        z0s = starts(key, seeds)
        got = run_batch(step, z0s, policy, prob.feasible)
        assert [(o, k) for o, k, _ in got] == [
            (r.outcome, r.iterations) for r in
            (run(step, z0, policy, feasible=prob.feasible) for z0 in z0s)]

    def test_rows_leave_at_their_own_iteration(self):
        policy = StopPolicy(max_iter=150)
        z0s = starts("queens-8", range(8))
        got = run_batch(product_step(batch_problem("queens-8").projections,
                                     "sdr"), z0s, policy,
                        batch_problem("queens-8").feasible)
        want = textbook_rows("queens-8", "sdr", None, policy, z0s)
        assert [(o, k) for o, k, _ in got] == [w[:2] for w in want]
        assert len({k for _, k, _ in got}) > 2
        assert {o for o, _, _ in got} == {FEASIBLE, MAX_ITER}

    def test_non_finite_row_leaves_alone(self):
        z0s = starts("queens-8", range(6))
        z0s[2] = 1e308              # finite, but its first step overflows
        policy = StopPolicy(max_iter=150)
        prob = batch_problem("queens-8")
        with np.errstate(over="ignore", invalid="ignore"):
            got = run_batch(product_step(prob.projections, "sdr"), z0s,
                            policy, prob.feasible)
            want = textbook_rows("queens-8", "sdr", None, policy, z0s)
        assert [(o, k) for o, k, _ in got] == [w[:2] for w in want]
        assert got[2][:2] == (NON_FINITE, 1)
        assert sum(o == FEASIBLE for o, _, _ in got) >= 3

    @pytest.mark.parametrize("seeds", [[1, 2, 3, 5, 6], [3]])
    def test_a_lone_row_is_stepped_as_a_single_state(self, seeds):
        """The step sees a (blocks, n) state exactly on the iterations
        where one row is active, and every active row otherwise; the rows
        end at 118, 50, 42, 90 and 46, and the last alone from 91 on."""
        prob = batch_problem("queens-8")
        step = product_step(prob.projections, "sdr")
        policy = StopPolicy(max_iter=150, min_iter=0)
        z0s = starts("queens-8", seeds)
        seen = []

        def spy(z):
            seen.append(z.shape)
            return step(z)
        got = run_batch(spy, z0s, policy, prob.feasible)
        assert [(o, k) for o, k, _ in got] == [
            w[:2] for w in textbook_rows("queens-8", "sdr", None, policy,
                                         z0s)]
        active = [sum(k <= end for _, end, _ in got)
                  for k in range(1, max(end for _, end, _ in got) + 1)]
        assert active.count(1) == (28 if len(seeds) > 1 else len(active))
        assert seen == [z0s.shape[1:] if rows == 1
                        else (rows,) + z0s.shape[1:] for rows in active]

    def test_row_norms_are_numpys_norms(self):
        d = np.concatenate([RNG.normal(size=(20, 3645)) * 1e-9,
                            RNG.normal(size=(20, 3645)),
                            np.full((1, 3645), np.inf)])
        want = [np.linalg.norm(row) for row in d]
        assert np.array_equal(_row_norms(d), want)
        assert np.array_equal(_row_norms(d[:, :5]),
                              [np.linalg.norm(row) for row in d[:, :5]])
        for a in (d, d[:, :5], d.T, d[:20].reshape(4, 5, 3645)):
            assert _row_norms(a.reshape(1, -1))[0] == np.linalg.norm(a)

    # a queens-8 batch's step differences (375 or 512 x 320), a 9x9 run's
    # (20 x 3645), a 16x16 run's (1 x 20480), single-coordinate rows, and
    # strided rows, whose dot would sum in another order if not copied;
    # rows longer than 8192 are summed block by block
    @pytest.mark.parametrize("shape", [(375, 320), (512, 320), (20, 3645),
                                       (1, 20480), (7, 1), (3, 2)])
    @pytest.mark.parametrize("scale", [1e-12, 1e-3, 1.0, 1e8])
    def test_row_norms_at_batch_shapes_and_scales(self, shape, scale):
        d = RNG.normal(size=shape) * scale
        for a in (d, d[:, ::2], d[::-1]):
            want = np.array([blockwise_norm(row) for row in a])
            assert same_bits(_row_norms(a), want)
            assert all(_row_norms(row[None])[0] == w
                       for row, w in zip(a[:4], want))

    @pytest.mark.parametrize("n", [8191, 8192, 8193, 20480, 78125])
    def test_norms_sum_blocks_of_8192_in_order(self, n):
        d = RNG.normal(size=(3, n))
        want = [blockwise_norm(row) for row in d]
        if n <= 8192:
            assert want == [np.linalg.norm(row) for row in d]
        assert same_bits(_row_norms(d), want)
        assert [_row_norms(row[None])[0] for row in d] == want
        assert _row_norms(d.reshape(1, -1))[0] == blockwise_norm(d.ravel())

    # 16x16 and 25x25 states: OpenBLAS runs one dot of more than 10000
    # elements on several threads, which sums in another order
    @pytest.mark.parametrize("n", [20480, 78125])
    def test_norm_bits_do_not_depend_on_blas_threads(self, n):
        code = ("import sys, numpy as np\n"
                "from drsplit.splitting import _row_norms\n"
                f"d = np.random.default_rng(3).normal(size=(4, {n}))\n"
                "norms = _row_norms(d), _row_norms(d.reshape(1, -1))\n"
                "sys.stdout.write(b''.join(np.array(a).tobytes()"
                " for a in norms).hex())\n")
        src = os.path.dirname(os.path.dirname(splitting.__file__))
        out = set()
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": src}
            out.add(subprocess.run([sys.executable, "-c", code], env=env,
                                   capture_output=True, text=True,
                                   check=True).stdout)
        assert len(out) == 1

    def test_consensus_is_numpys_mean(self):
        z = RNG.normal(size=(6, 5, 729)) * RNG.choice([1e-9, 1.0, 1e9],
                                                      size=(6, 5, 1))
        assert np.array_equal(_consensus(z), z.mean(axis=1, keepdims=True))
        for zz in (z[0], z[:, 2], z[0].T):
            assert _consensus(zz).tobytes() == zz.mean(axis=0).tobytes()

    def test_each_row_carries_its_orbit(self):
        """One batch of 64 queens-8 rows, about half of which close an
        exact orbit: each row's (outcome, iterations, orbit_k) is the
        textbook run's for its seed."""
        prob = batch_problem("queens-8")
        step = product_step(prob.projections, "sdr")
        policy = StopPolicy(max_iter=1000)
        z0s = starts("queens-8", range(64))
        got = _iterate(step, z0s.copy(), policy, prob.feasible)
        want = textbook_rows("queens-8", "sdr", None, policy, z0s)
        assert [(o, k, orbit) for o, k, _, orbit in got] == want
        assert 0 < sum(orbit is not None for *_, orbit in want) < 64

    def test_wall_shares_are_positive(self):
        got = run_batch(product_step(batch_problem("4x4").projections, "sdr"),
                        starts("4x4", range(4)), StopPolicy(),
                        batch_problem("4x4").feasible)
        assert all(wall > 0 for _, _, wall in got)

    def test_an_empty_batch_steps_nothing(self):
        def step(z):
            raise AssertionError("stepped an empty batch")
        prob = batch_problem("4x4")
        assert run_batch(step, np.empty((0, 5, 64)), StopPolicy(),
                         prob.feasible) == []
        assert run_batch(product_step(prob.projections, "sdr"),
                         np.empty((0, 5, 64)), StopPolicy(),
                         prob.feasible) == []

    def test_bad_starts_rejected(self):
        prob = batch_problem("4x4")
        step = product_step(prob.projections, "sdr")
        with pytest.raises(ValueError, match="shape"):
            run_batch(step, prob.initial_state(0), StopPolicy(), prob.feasible)
        z0s = starts("4x4", range(2))
        z0s[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            run_batch(step, z0s, StopPolicy(), prob.feasible)

    def test_random_ties_step_one_run_at_a_time(self):
        """The rows of a random-tie batch would share its tie streams, so
        `run_batch` over two or more rows raises at its first step; each
        row stepped alone, as a batch of one, ends as `run` does."""
        def problem():
            return queens_problem(QueensInstance(8), tie_break="random",
                                  tie_seed=7)
        z0s = np.round(starts("queens-8", [1, 2, 3]))   # ties from the start
        step, shapes = product_step(problem().projections, "sdr"), []

        def counted(z):
            shapes.append(z.shape)
            return step(z)
        for rows in (z0s, z0s[:2]):
            with pytest.raises(ValueError, match="share its stream"):
                run_batch(counted, rows, StopPolicy(), problem().feasible)
        assert shapes == [z0s.shape, z0s[:2].shape]
        alone = []
        for z0 in z0s:
            prob, twin = problem(), problem()
            [(outcome, k, _)] = run_batch(
                product_step(prob.projections, "sdr"), z0[None],
                StopPolicy(), prob.feasible)
            want = run(product_step(twin.projections, "sdr"), z0,
                       StopPolicy(), feasible=twin.feasible)
            assert (outcome, k) == (want.outcome, want.iterations)
            alone.append(k)
        assert alone == [154, 107, 100]


# ---------------------------------------------------------------------------
# `run`, every row of `run_batch` and every row record of the loop against
# helpers.reference_run, which steps the textbook product step in full:
# min_iter 0 with feasibility stops on and off, min_iter 100, and runs to
# max_iter (odd and even) where most queens orbits close and are replayed

REFERENCE_POLICIES = [GRID_POLICIES[i] for i in (0, 2, 7, 10, 11)]


def assert_run_is(res, want, replayed=True):
    """A `run` result against a reference run, every field bit for bit;
    with keep_iterates (and `replayed`), one replay fills the trace's other
    columns."""
    assert (res.outcome, res.iterations, res.orbit_k) == \
        (want.outcome, want.iterations, want.orbit_k)
    for name in ("z", "x", "u", "candidate"):
        assert same_bits(getattr(res, name), getattr(want, name)), name
    columns = ("z_step",)
    if replayed and res.trace._replay is not None:
        res.trace._fill(objective=True, reference=True)
        columns = splitting._COLUMNS
    for name in columns:
        assert same_bits(res.trace.residuals(name), getattr(want, name)), name
    assert same_bits(res.trace.u_last_change, want.u_last_change)


def column_trace(want):
    """A trace built from a reference run's columns."""
    return IterationTrace(len(want.u_last_change), **{
        name: getattr(want, name) for name in splitting._COLUMNS})


@functools.lru_cache(maxsize=1)     # held while its policies run in turn
def textbook_case(key, method, gamma):
    """(problem, step, textbook step, starts, replayed (start, length))"""
    prob = batch_problem(key)
    z0s = np.concatenate([starts(key, range(3)), np.round(starts(key, [3]))])
    return (prob, product_step(prob.projections, method, gamma=gamma),
            Textbook(prob.projections, method, gamma), z0s, set())


class TestAgainstTextbook:
    @pytest.mark.parametrize("policy", REFERENCE_POLICIES)
    @pytest.mark.parametrize("method,gamma", BATCH_METHODS)
    @pytest.mark.parametrize("key", sorted(BATCH_PROBLEMS))
    def test_run_and_rows_are_the_textbook_run(self, monkeypatch, key,
                                               method, gamma, policy):
        """Three uniform starts and one rounded to 0/1, which meets exact
        ties from its first step, each run alone and all four as one
        batch, whose rows leave at their own iterations.  The textbook
        steps each start once, and a start's runs replay once per length."""
        prob, step, book, z0s, replayed = textbook_case(key, method, gamma)
        records = []

        def iterate(*args):
            records.append(_iterate(*args))
            return records[-1]
        monkeypatch.setattr(splitting, "_iterate", iterate)
        wants = [reference_run(book, z0, policy, prob.feasible)
                 for z0 in z0s]
        for i, (z0, want) in enumerate(zip(z0s, wants)):
            assert_run_is(run(step, z0, policy, feasible=prob.feasible,
                              keep_iterates=True), want,
                          (i, want.iterations) not in replayed)
            replayed.add((i, want.iterations))
        got = run_batch(step, z0s, policy, prob.feasible)
        assert [(o, k) for o, k, _ in got] == \
            [(w.outcome, w.iterations) for w in wants]
        assert [(o, k, orbit) for o, k, _, orbit in records[-1]] == \
            [(w.outcome, w.iterations, w.orbit_k) for w in wants]

    @pytest.mark.parametrize("rounded", [False, True])
    @pytest.mark.parametrize("key", ["4x4", "queens-6"])
    @pytest.mark.parametrize("method,gamma", BATCH_METHODS)
    def test_random_tie_run_is_its_twins_textbook_run(self, key, method,
                                                      gamma, rounded):
        """Random ties against the textbook step over an equally seeded
        twin's blocks, from a uniform start and a 0/1 one."""
        z0 = MERGED_PROBLEMS[key]().initial_state(7)
        start = np.round(z0) if rounded else z0
        prob, twin = (MERGED_PROBLEMS[key](tie_break="random", tie_seed=5)
                      for _ in range(2))
        res = run(product_step(prob.projections, method, gamma=gamma),
                  start, GRID_POLICIES[11], feasible=prob.feasible,
                  keep_iterates=True)
        assert_run_is(res, reference_run(
            Textbook(twin.projections, method, gamma), start,
            GRID_POLICIES[11], twin.feasible))

    # the first policy is the one `drsplit solve --circle-line` uses, capped
    @pytest.mark.parametrize("policy", [
        StopPolicy(max_iter=1000, stop_on_feasible=False)]
        + REFERENCE_POLICIES)
    @pytest.mark.parametrize("method,gamma", BATCH_METHODS)
    def test_circle_line_run_is_the_reference(self, method, gamma, policy):
        inst = circle_line_instance()

        def step():
            return two_set_step(inst.line.project, inst.project_circle,
                                method, gamma=gamma)
        assert_run_is(run(step(), inst.z0, policy, feasible=inst.feasible,
                          keep_iterates=True),
                      reference_run(step(), inst.z0, policy, inst.feasible))

    @pytest.mark.parametrize("min_iter", [0, 1, 10, 11])
    def test_orbit_phases_of_unequal_feasibility(self, min_iter):
        """A 2-cycle whose candidates are feasible only in one phase: the
        exit must land on that phase's iterations, as full stepping does."""
        def flip(z):
            return -z, _consensus(-z), -z
        step = splitting._PureStep(flip)
        z0s = np.array([[[1.0, 2.0], [3.0, 4.0]], [[-1.0, 2.0], [0.0, 1.0]]])
        policy = StopPolicy(max_iter=40, min_iter=min_iter)

        def positive(c):
            return np.asarray(c)[..., 0] > 0
        wants = [reference_run(flip, z0, policy, positive, pure=True)
                 for z0 in z0s]
        for z0, want in zip(z0s, wants):
            res = run(step, z0, policy, feasible=positive,
                      keep_iterates=True)
            assert_run_is(res, want)
            assert res.orbit_k == (2 if res.iterations >= 2 else None)
        got = run_batch(step, z0s, policy, positive)
        assert [(o, k) for o, k, _ in got] == [
            (w.outcome, w.iterations) for w in wants]
        first = max(min_iter, 1)    # one start is feasible there, one next
        assert {k for _, k, _ in got} == {first, first + 1}


# ---------------------------------------------------------------------------
# the product step against helpers.oracle_step, each block's projection of
# its own rows assigned into a stacked output and each step one plain
# expression: `_Stacked` merges the lowest-tie group blocks into one call
# and projects the other blocks into their slices

def planted_16():
    """A 16x16 instance with 45% of the box-shift solution's cells clued."""
    sol = planted_grid(16)
    keep = np.random.default_rng(16).random((16, 16)) < 0.45
    return SudokuInstance(16, tuple(
        (i, j, int(sol[i, j])) for i, j in zip(*np.nonzero(keep))))


MERGED_PROBLEMS = {
    **{key: functools.partial(sudoku_problem, bundled_sudoku(key))
       for key in ("4x4", "9x9-37", "9x9-22")},
    "16x16": lambda: sudoku_problem(planted_16()),
    **{f"queens-{s}": functools.partial(queens_problem, QueensInstance(s))
       for s in range(4, 33)},
}


def merged_inputs(prob, sizes=(None, 2, 35, 512), seed=3):
    """A lone state and 2-, 35- and 512-row batches (or the given sizes),
    as far as a bench batch holds them (BATCH_BYTES), each as uniform
    starts, exact ties and NaN-holed starts."""
    rng = np.random.default_rng(seed)
    shape = (prob.n_blocks, prob.ambient_dim)
    for rows in sizes:
        if (rows or 1) * prob.n_blocks * prob.ambient_dim * 8 > BATCH_BYTES:
            continue
        size = shape if rows is None else (rows,) + shape
        z = rng.uniform(0.0, 1.0, size=size)
        ties = rng.integers(0, 3, size=size) / 2.0
        holed = z.copy()
        holed.reshape(-1)[rng.integers(holed.size, size=3)] = np.nan
        yield from (z, ties, holed)


def arranged(key, arrangement):
    """(problem, blocks, their equally seeded twins, the indices of the
    blocks that `_Stacked` projects on their own, or None when it merges
    none) for one way of laying out a problem's blocks."""
    build = MERGED_PROBLEMS[key]
    prob = build()
    blocks = twins = prob.projections
    own = [i for i, p in enumerate(blocks)
           if not isinstance(p, GroupProjection)]
    if arrangement == "last first":     # the clue clamp, or a diagonal
        last = blocks[-1]               # behind a lambda
        if isinstance(last, GroupProjection):
            last = (lambda v, p=last: p(v))
        return prob, [last] + blocks[:-1], [last] + blocks[:-1], [0]
    if arrangement == "one random tie":
        blocks, twins = (blocks[:1] + build(
            tie_break="random", tie_seed=5).projections[1:2] + blocks[2:]
            for _ in range(2))
        return prob, blocks, twins, [1] + own
    if arrangement == "all random ties":
        return prob, *(build(tie_break="random", tie_seed=5).projections
                       for _ in range(2)), None
    return prob, blocks, twins, own


STEP_CASES = [(key, "as built") for key in sorted(MERGED_PROBLEMS)] + [
    ("4x4", "last first"), ("9x9-22", "last first"),
    ("queens-8", "last first"), ("9x9-37", "one random tie"),
    ("queens-8", "one random tie"), ("4x4", "all random ties"),
    ("queens-6", "all random ties")]


class TestStepsAgainstOracle:
    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("method,gamma", BATCH_METHODS)
    @pytest.mark.parametrize("key,arrangement", STEP_CASES)
    def test_steps_are_the_oracle(self, key, arrangement, method, gamma,
                                  batched):
        """Three steps of product_step from each input, z, x and u bit for
        bit, each next step from the oracle's z.  A batch over a random-tie
        block, whose rows would share its stream, is rejected."""
        prob, blocks, twins, own = arranged(key, arrangement)
        stacked = splitting._Stacked(blocks)
        if own is None:
            assert stacked._merged is None
        else:
            assert [i for i, _ in stacked._rest] == own
        step = product_step(blocks, method, gamma=gamma)
        shared = batched and "random" in arrangement
        for z in merged_inputs(prob, (2, 35, 512) if batched else (None,)):
            if shared:
                with pytest.raises(ValueError, match="share its stream"):
                    step(z)
                continue
            for _ in range(3):
                with np.errstate(invalid="ignore"):
                    got, want = step(z), oracle_step(twins, method, gamma, z)
                for name, g, w in zip("zxu", got, want):
                    assert same_bits(g, w), name
                z = want[0]

    @pytest.mark.parametrize("key,arrangement", STEP_CASES)
    def test_purity_is_decided_by_block_type(self, key, arrangement):
        """A product step is marked a function of z alone exactly when
        every block is a lowest-tie group projection or a clue clamp."""
        _, blocks, _, _ = arranged(key, arrangement)
        want = all(isinstance(p, ClueProjection) or (
            isinstance(p, GroupProjection) and p.tie_break == "lowest")
            for p in blocks)
        for method, gamma in BATCH_METHODS:
            step = product_step(blocks, method, gamma=gamma)
            assert isinstance(step, splitting._PureStep) == want

    @pytest.mark.parametrize("m", [2, 3, 5])
    @pytest.mark.parametrize("method,gamma",
                             BATCH_METHODS + [("ddr", 0.3), ("ddr", 0.5)])
    def test_steps_over_other_tables_are_the_oracle(self, m, method, gamma):
        """Blocks over hand-built tables: strided groups with allow_zero
        on every other block, and one group of every coordinate."""
        n = 12
        blocks = [GroupProjection([tuple(range(i, n, 3)) for i in range(3)],
                                  n, allow_zero=(i % 2 == 0)) if i % 3 else
                  GroupProjection([tuple(range(n))], n) for i in range(m)]
        z = RNG.normal(size=(m, n))
        for zz in (z, np.stack([z, -z])):
            got = product_step(blocks, method, gamma=gamma)(zz)
            for g, w in zip(got, oracle_step(blocks, method, gamma, zz)):
                assert same_bits(g, w)

    @pytest.mark.parametrize("key", ["4x4", "9x9-37", "9x9-22", "queens-8",
                                     "queens-32"])
    @pytest.mark.parametrize("method,gamma", BATCH_METHODS)
    def test_one_group_call_per_step(self, monkeypatch, key, method, gamma):
        calls = []
        project = GroupProjection.__call__

        def counted(self, x, out=None):
            calls.append(None)
            return project(self, x, out=out)
        monkeypatch.setattr(GroupProjection, "__call__", counted)
        prob = MERGED_PROBLEMS[key]()
        step = product_step(prob.projections, method, gamma=gamma)
        z = prob.initial_state(0)
        for _ in range(3):
            z = step(z)[0]
        step(np.stack([z, z]))
        assert len(calls) == 4

    def test_a_held_result_is_never_written_again(self):
        prob = batch_problem("9x9-37")
        stacked = splitting._Stacked(prob.projections)
        zs = starts("9x9-37", range(4))
        u = stacked(zs[:2])
        row = stacked(zs[2:])[1]       # a view that outlives its parent
        want = u.copy(), row.copy()
        for z in (zs[:2], zs[2:], zs[1:3]):
            new = stacked(z)
            assert not np.shares_memory(new, u)
            assert not np.shares_memory(new, row)
        assert same_bits(u, want[0]) and same_bits(row, want[1])

    def test_a_dropped_result_is_written_again(self):
        prob = batch_problem("queens-8")
        stacked = splitting._Stacked(prob.projections)
        zs = starts("queens-8", range(3))
        where = stacked(zs).__array_interface__["data"][0]
        again = stacked(zs[::-1])
        assert again.__array_interface__["data"][0] == where
        assert same_bits(again, stacked_oracle(prob.projections, zs[::-1]))


class TestReusedArrays:
    """A step reuses the array of its reflection (given to the second
    projection) and ddr's relaxed x from one call to the next, but not
    while anything else holds them."""

    @staticmethod
    def spy_step(method, seen, hold=False):
        """A two-set step whose projection of the reflection (the second,
        or the first when switched) records a weak reference to it, or the
        reflection itself."""
        def spy(project):
            def spied(r):
                seen.append(r if hold else weakref.ref(r))
                return project(r)
            return spied
        first, second = (lambda z: 0.5 * z), np.round
        if method == "sdr-switched":
            first = spy(first)
        else:
            second = spy(second)
        return two_set_step(first, second, method, gamma=0.3)

    @pytest.mark.parametrize("method", ["sdr", "ddr", "sdr-switched"])
    def test_an_unshared_reflection_is_reused(self, method):
        seen = []
        step = self.spy_step(method, seen)
        zs = RNG.normal(size=(3, 4, 8))
        for z in zs:
            want = two_set_step(lambda z: 0.5 * z, np.round, method,
                                gamma=0.3)(z)
            for g, w in zip(step(z), want):
                assert same_bits(g, w)
        # one array, alive in the step: fresh ones would have been freed
        assert seen[0]() is not None
        assert all(ref() is seen[0]() for ref in seen)

    @pytest.mark.parametrize("method", ["sdr", "ddr", "sdr-switched"])
    def test_a_held_reflection_is_fresh(self, method):
        held = []
        step = self.spy_step(method, held, hold=True)
        zs = RNG.normal(size=(3, 4, 8))
        xs = [step(z)[1] for z in zs]
        assert len({id(r) for r in held}) == 3
        for z, x, r in zip(zs, xs, held):
            assert same_bits(r, 2.0 * x - z)

    def test_ddr_relaxed_x(self):
        step = two_set_step(lambda z: 0.5 * z, np.round, "ddr", gamma=0.3)
        zs = RNG.normal(size=(3, 4, 8))
        xs = [step(z)[1] for z in zs]       # held: each call a new array
        assert len({id(x) for x in xs}) == 3
        for z, x in zip(zs, xs):
            assert same_bits(x, ddr_step(lambda z: 0.5 * z, np.round, 0.3,
                                         z)[1])
        dropped = [weakref.ref(step(z)[1]) for z in zs]
        assert dropped[0]() is not None
        assert all(ref() is dropped[0]() for ref in dropped)


# ---------------------------------------------------------------------------
# exact orbits: a step of `product_step` over lowest-tie projections is a
# function of z alone, so its runs are replayed once z_k equals z_{k-2};
# the textbook run steps in full, and the two must agree bit for bit

def stepped_in_full(step):
    return lambda z: step(z)


def recorded_rows(res):
    """The rows a run records, up to its final iterate: past an orbit that
    closes at k, row k or k + 1, whichever has the parity of the run's
    length."""
    if res.orbit_k is None:
        return len(res.trace)
    return res.orbit_k + (res.iterations - res.orbit_k) % 2


def replay_against_textbook(key, method, gamma, policy, seed, keep, tmp):
    prob = batch_problem(key)
    z0 = prob.initial_state(seed)
    res = run(product_step(prob.projections, method, gamma=gamma), z0,
              policy, feasible=prob.feasible, keep_iterates=keep)
    want = reference_run(Textbook(prob.projections, method, gamma), z0,
                         policy, prob.feasible)
    assert_run_is(res, want)
    if keep:
        res.trace.to_csv(tmp / "a.csv")
        column_trace(want).to_csv(tmp / "b.csv")
        assert (tmp / "a.csv").read_bytes() == (tmp / "b.csv").read_bytes()
    return res


class TestOrbitReplay:
    @given(st.sampled_from(sorted(BATCH_PROBLEMS)),
           st.sampled_from(BATCH_METHODS),
           st.sampled_from(GRID_POLICIES), st.integers(0, 40),
           st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_replay_is_full_stepping(self, tmp_path_factory, key, method,
                                     policy, seed, keep):
        replay_against_textbook(key, *method, policy, seed, keep,
                                tmp_path_factory.mktemp("csv"))

    # (problem, method, seed, policy, where the orbit closes, outcome)
    CASES = [
        ("queens-8", "sdr", 2, StopPolicy(max_iter=151), "before",
         FEASIBLE),
        ("queens-5", "altproj", 0, StopPolicy(max_iter=150), "before",
         STALLED),
        ("queens-6", "sdr-switched", 5, StopPolicy(max_iter=150), "before",
         MAX_ITER),
        ("queens-8", "sdr", 0,
         StopPolicy(max_iter=301, min_iter=301, stop_on_feasible=False),
         "before", FEASIBLE),
        ("queens-6", "sdr-switched", 5, StopPolicy(max_iter=151, min_iter=0),
         "after", MAX_ITER),
        ("queens-6", "sdr-switched", 5,
         StopPolicy(max_iter=150, min_iter=0, stop_on_feasible=False),
         "after", MAX_ITER),
    ]

    @pytest.mark.parametrize("keep", [False, True])
    @pytest.mark.parametrize("case", CASES)
    def test_orbits_before_and_after_min_iter(self, tmp_path, case, keep):
        key, method, seed, policy, when, outcome = case
        res = replay_against_textbook(key, method, None, policy, seed, keep,
                                      tmp_path)
        assert res.outcome == outcome
        assert res.orbit_k is not None and res.orbit_k + 1 < res.iterations
        assert (res.orbit_k < policy.min_iter) == (when == "before")

    def test_closed_orbits_are_not_stepped(self, monkeypatch):
        """An altproj step projects onto the product once: count steps."""
        calls = []
        project = splitting._Stacked.__call__

        def counted(self, z):
            calls.append(None)
            return project(self, z)
        monkeypatch.setattr(splitting._Stacked, "__call__", counted)
        prob = batch_problem("queens-5")
        step = product_step(prob.projections, "altproj")
        policy = StopPolicy(max_iter=10 ** 5, min_iter=10 ** 5,
                            stop_on_feasible=False)
        z0s = starts("queens-5", range(4))
        got = run_batch(step, z0s, policy, prob.feasible)
        assert len(calls) <= 8          # every orbit closes by k = 7
        assert [(o, k) for o, k, _ in got] == [(STALLED, 10 ** 5)] * 4
        del calls[:]
        res = run(step, z0s[0], policy, feasible=prob.feasible)
        assert len(calls) == recorded_rows(res)
        assert (res.outcome, res.iterations) == (STALLED, 10 ** 5)
        assert len(res.trace) == 10 ** 5

    def test_an_orbit_tail_is_not_recorded(self):
        """The run records at most orbit_k + 1 rows (the orbit closes at
        4) and reads as the textbook run, which steps all 10**4."""
        prob = batch_problem("queens-5")
        z0 = prob.initial_state(0)
        policy = StopPolicy(max_iter=10 ** 4, min_iter=10 ** 4,
                            stop_on_feasible=False)
        res = run(product_step(prob.projections, "altproj"), z0, policy,
                  feasible=prob.feasible, keep_iterates=True)
        assert len(res.trace) == res.iterations == 10 ** 4
        assert len(res.trace._table["z_step"]) <= res.orbit_k + 1 == 5
        assert_run_is(res, reference_run(
            Textbook(prob.projections, "altproj"), z0, policy,
            prob.feasible))


class TestTrace:
    def make_run(self, keep=False):
        prob = sudoku_problem(bundled_sudoku("4x4"))
        return run(product_step(prob.projections, "sdr"),
                   prob.initial_state(0),
                   StopPolicy(stop_on_feasible=False),
                   feasible=prob.feasible, keep_iterates=keep), prob

    def test_residuals_require_keep_iterates(self):
        res, _ = self.make_run(keep=False)
        with pytest.raises(ValueError):
            res.trace.set_reference()

    def test_residuals_are_new_arrays(self):
        res, _ = self.make_run(keep=True)
        for name in splitting._COLUMNS:
            got = res.trace.residuals(name)
            want = got.copy()
            got[...] = 99.0
            assert same_bits(res.trace.residuals(name), want), name

    @staticmethod
    def circle_line_run():
        inst = circle_line_instance()
        return run(two_set_step(inst.line.project, inst.project_circle,
                                "ddr", gamma=0.2),
                   inst.z0, StopPolicy(stop_on_feasible=False),
                   feasible=inst.feasible, keep_iterates=True)

    @pytest.mark.parametrize("instance", ["4x4", "circle-line"])
    def test_csv_round_trip(self, tmp_path, instance):
        if instance == "4x4":
            res, u_blocks = self.make_run(keep=True)[0], 5
        else:
            res, u_blocks = self.circle_line_run(), 1
        path = tmp_path / "trace.csv"
        res.trace.to_csv(path)
        text = path.read_text()
        header = text.splitlines()[0].split(",")
        assert header == (["k", "z_step", "z_res", "x_res"]
                          + [f"u{i}_mismatch" for i in range(u_blocks)]
                          + ["objective"])
        back = read_trace_csv(path)
        assert len(back) == len(res.trace)
        assert back.n_blocks == res.trace.n_blocks == u_blocks
        for name in ("z_step", "objective", "z_res", "x_res", "u_mismatch"):
            got, want = back.residuals(name), res.trace.residuals(name)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), name

    def test_hand_built_trace_takes_columns(self, tmp_path):
        r = 0.5 ** np.arange(4)
        tr = IterationTrace(2, z_step=r, objective=r,
                            u_mismatch=np.zeros((4, 2)))
        assert len(tr) == 4 and tr.n_blocks == 2
        assert tr.residuals("u_mismatch").shape == (4, 2)
        tr.to_csv(tmp_path / "trace.csv")
        assert len(read_trace_csv(tmp_path / "trace.csv")) == 4
        with pytest.raises(ValueError):     # no replay to fill z_res
            tr.residuals("z_res")
        with pytest.raises(ValueError):
            IterationTrace(1, z_resid=r)
        with pytest.raises(ValueError, match="differ in length"):
            IterationTrace(2, z_step=r, objective=r[:2])

    @pytest.mark.parametrize("header", [
        "k,z_step,u0_mismatch,u2_mismatch", "k,z_step,u1_mismatch",
        "k,z_step,u_mismatch", "k,z_step,u1_mismatch,u0_mismatch",
        "k,z_step,u0_mismatch,u0_mismatch"])
    def test_csv_u_columns_are_numbered_in_order(self, tmp_path, header):
        path = tmp_path / "trace.csv"
        row = ["1", "0.5"] + ["0"] * (header.count(",") - 1)
        path.write_text(f"{header}\n{','.join(row)}\n")
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: the u columns")):
            read_trace_csv(path)

    def test_csv_field_that_is_not_a_number_is_named(self, tmp_path):
        path = tmp_path / "trace.csv"
        for text, where in [("1,x,0", "2: column z_step: 'x'"),
                            ("1,0.5,0\n2,0.25,", "3: column u0_mismatch: ''")]:
            path.write_text(f"k,z_step,u0_mismatch\n{text}\n")
            with pytest.raises(ValueError,
                               match=re.escape(f"{path}:{where} is not")):
                read_trace_csv(path)

    def test_csv_without_keep_iterates_has_nan_residuals(self, tmp_path):
        res, _ = self.make_run(keep=False)
        path = tmp_path / "trace.csv"
        res.trace.to_csv(path)
        back = read_trace_csv(path)
        assert np.isnan(back.residuals("z_res")).all()
        assert np.isfinite(back.z_step).all()

    def test_objective_needs_keep_iterates(self, tmp_path):
        res, _ = self.make_run(keep=False)
        with pytest.raises(ValueError, match="cannot be replayed"):
            res.trace.residuals("objective")
        res.trace.to_csv(tmp_path / "trace.csv")
        back = read_trace_csv(tmp_path / "trace.csv")
        assert len(back) == res.iterations
        assert np.isnan(back.residuals("objective")).all()


# ---------------------------------------------------------------------------
# the replayed columns against the textbook run's; a step wrapper counts
# its calls where a test counts replays

def counted(step):
    """The step behind a wrapper that counts its calls in a list.  A
    wrapper is its own deep copy, so a fill replays the run through it."""
    calls = []

    def wrapper(z):
        calls.append(None)
        return step(z)
    return wrapper, calls


def blockwise_norm(v):
    """The square root of the sum, in order, of np.dot of each 8192-element
    block of the 1-D v with itself: np.linalg.norm(v) up to one block."""
    v = np.ascontiguousarray(v)
    total = np.dot(v[:8192], v[:8192])
    for i in range(8192, len(v), 8192):
        total += np.dot(v[i:i + 8192], v[i:i + 8192])
    return np.sqrt(total)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


REPLAY_POLICY = StopPolicy(max_iter=150, min_iter=150,
                           stop_on_feasible=False)
REPLAY_PROBLEMS = ["4x4", "9x9-37", "queens-8"]


def replay_case(name, method, gamma):
    """(step, its reference step, start, feasible) of one problem, whose
    reference is the textbook step, or of the circle/line pair, whose
    reference is a second two-set step."""
    if name == "circle-line":
        inst = circle_line_instance()
        return (*(two_set_step(inst.line.project, inst.project_circle,
                               method, gamma=gamma) for _ in range(2)),
                inst.z0, inst.feasible)
    prob = batch_problem(name)
    return (product_step(prob.projections, method, gamma=gamma),
            Textbook(prob.projections, method, gamma),
            prob.initial_state(1), prob.feasible)


class Poisoned:
    """The step, with one coordinate of its z set to inf from call `at`;
    a deep copy counts its calls from where the original stood."""

    def __init__(self, step, at):
        self.step, self.at, self.calls = step, at, 0

    def __call__(self, z):
        self.calls += 1
        z_new, x, u = self.step(z)
        if self.calls >= self.at:
            z_new = z_new.copy()
            z_new.flat[3] = np.inf
        return z_new, x, u


class TestReplayedColumns:
    @pytest.mark.parametrize("name", ["4x4", "9x9-37", "circle-line"])
    def test_one_replay_fills_the_reference_columns(self, name):
        step, twin, z0, feasible = replay_case(name, "sdr", None)
        wrapper, calls = counted(step)
        res = run(wrapper, z0, REPLAY_POLICY, feasible=feasible,
                  keep_iterates=True)
        res.trace.set_reference()       # fills nothing yet
        assert res.iterations == len(calls) == 150
        want = reference_run(twin, z0, REPLAY_POLICY, feasible)
        for name_ in ("z_res", "x_res", "u_mismatch"):
            assert same_bits(res.trace.residuals(name_),
                             getattr(want, name_)), name_
        assert len(calls) == 300        # one replay filled all three

    def test_reference_of_a_non_finite_run(self):
        prob = batch_problem("9x9-37")
        z0 = prob.initial_state(2)
        with np.errstate(invalid="ignore"):
            res = run(Poisoned(product_step(prob.projections, "sdr"), at=38),
                      z0, StopPolicy(), feasible=prob.feasible,
                      keep_iterates=True)
            want = reference_run(Poisoned(Textbook(prob.projections, "sdr"),
                                          at=38), z0, StopPolicy(),
                                 prob.feasible)
            assert_run_is(res, want)
        assert res.outcome == NON_FINITE and res.iterations == 38
        assert np.isfinite(want.x_res).all()
        assert np.isinf(want.z_res[:-1]).all()
        assert not np.isfinite(res.z).all()

    def test_a_step_that_does_not_replay_raises(self):
        """A random-tie step behind a lambda is its own deep copy, so the
        replay draws its ties from where the run left the generators."""
        prob = queens_problem(QueensInstance(8), tie_break="random",
                              tie_seed=0)
        step = product_step(prob.projections, "sdr")
        z0 = np.round(prob.initial_state(0))    # meets ties from the start
        res = run(lambda z: step(z), z0, REPLAY_POLICY, keep_iterates=True)
        with pytest.raises(ValueError, match="did not reach"):
            res.trace.residuals("z_res")
        with pytest.raises(ValueError, match="did not reach"):
            res.trace.to_csv(os.devnull)
        # the step itself is copied before its first step
        res = run(step, z0, REPLAY_POLICY, keep_iterates=True)
        assert same_bits(res.trace.residuals("z_res")[-1], 0.0)

    def test_candidate_of_a_two_set_run_is_x(self):
        step, _, z0, feasible = replay_case("circle-line", "ddr", 0.2)
        res = run(step, z0, StopPolicy(), feasible=feasible)
        assert res.candidate is res.x


# ---------------------------------------------------------------------------
# the replay: everything read off a run's trace is recomputed, bit for bit,
# by stepping again from the start, and equals what a trace built from the
# textbook run's columns reads

BUDGET_METHODS = [("sdr", None), ("ddr", 0.2), ("sdr-switched", None),
                  ("altproj", None)]


def fitted(trace, quantity):
    try:
        return fit_linear_rate(trace, quantity,
                               auto_tail_fraction(trace, quantity)).slope
    except InsufficientDataError as exc:
        return str(exc)


def freezes(trace):
    return [detect_finite_termination(trace, "z")] + [
        detect_finite_termination(trace, f"u{i}")
        for i in range(trace.n_blocks)]


def readings(res, path, csv_first):
    """Everything read off a run: the CSV (which fills the objective and
    the reference columns in one pass) either before or after every
    column (the objective alone first, then the reference), then the
    fitted slopes and the freeze indices."""
    trace = res.trace
    if csv_first:
        trace.to_csv(path)
    columns = [trace.residuals(name) for name in splitting._COLUMNS]
    if not csv_first:
        trace.to_csv(path)
    arrays = [res.z, res.x, res.u, res.candidate] + columns
    return (arrays, (res.outcome, res.iterations, path.read_bytes(),
                     fitted(trace, "z_res"), fitted(trace, "x_res"),
                     freezes(trace)))


def textbook_readings(want, path):
    """The readings of a reference run, off a trace of its columns."""
    return readings(splitting.RunResult(
        want.outcome, want.iterations, want.z, want.x, want.u,
        want.candidate, column_trace(want), want.orbit_k), path, False)


def assert_same_readings(a, b):
    (arrays_a, rest_a), (arrays_b, rest_b) = a, b
    for i, (got, want) in enumerate(zip(arrays_a, arrays_b)):
        assert same_bits(got, want), i
    assert rest_a == rest_b


class TestReplay:
    @pytest.mark.parametrize("method,gamma", BUDGET_METHODS)
    @pytest.mark.parametrize("name", REPLAY_PROBLEMS)
    def test_refilled_trace_is_the_full_one(self, tmp_path, name, method,
                                            gamma):
        step, twin, z0, feasible = replay_case(name, method, gamma)
        want = textbook_readings(reference_run(twin, z0, REPLAY_POLICY,
                                               feasible),
                                 tmp_path / "full.csv")
        for csv_first in (True, False):
            res = run(step, z0, REPLAY_POLICY, feasible=feasible,
                      keep_iterates=True)
            assert_same_readings(readings(res, tmp_path / "replay.csv",
                                          csv_first), want)

    @pytest.mark.parametrize("case", [
        ("queens-8", "sdr", 0, 301), ("queens-6", "sdr-switched", 5, 151),
        ("queens-5", "altproj", 0, 150)])
    def test_replay_past_an_orbit(self, tmp_path, case):
        key, method, seed, steps = case
        prob = batch_problem(key)
        z0 = prob.initial_state(seed)
        policy = StopPolicy(max_iter=steps, min_iter=steps,
                            stop_on_feasible=False)
        res = run(product_step(prob.projections, method), z0, policy,
                  feasible=prob.feasible, keep_iterates=True)
        assert res.orbit_k is not None
        assert (len(res.trace._table["z_step"]) == recorded_rows(res)
                <= res.orbit_k + 1 < res.iterations)
        assert_same_readings(
            readings(res, tmp_path / "a.csv", False),
            textbook_readings(reference_run(
                Textbook(prob.projections, method), z0, policy,
                prob.feasible), tmp_path / "b.csv"))

    def test_other_steps_replay_from_their_copy(self):
        """Steps that are not functions of z alone are copied before their
        first step; their columns are those of the textbook run of a twin
        (the circle/line pair's: a second two-set step)."""
        prob = batch_problem("queens-8")
        z0 = np.round(prob.initial_state(0))
        pure = product_step(prob.projections, "sdr")
        blocks = [stepped_in_full(p) for p in prob.projections]
        inst = circle_line_instance()

        def ties():
            return queens_problem(QueensInstance(8), tie_break="random",
                                  tie_seed=0).projections
        # run alone, the pure step closes an orbit; the others never do
        assert run(pure, z0, REPLAY_POLICY).orbit_k == 39
        for step, twin, start in [
                (product_step(ties(), "sdr"), Textbook(ties(), "sdr"), z0),
                (stepped_in_full(pure), Textbook(prob.projections, "sdr"),
                 z0),
                (product_step(blocks, "sdr"),
                 Textbook(prob.projections, "sdr"), z0),
                (two_set_step(inst.line.project, inst.project_circle, "sdr"),
                 two_set_step(inst.line.project, inst.project_circle, "sdr"),
                 inst.z0)]:
            res = run(step, start, REPLAY_POLICY, keep_iterates=True)
            assert res.orbit_k is None and len(res.trace) == 150
            want = reference_run(twin, start, REPLAY_POLICY)
            for name in splitting._COLUMNS:
                assert same_bits(res.trace.residuals(name),
                                 getattr(want, name)), name


# ---------------------------------------------------------------------------
# streamed freezes: each block's last change of u, kept by the run loop,
# against the textbook run's and the one read off its u_mismatch column

FREEZE_PROBLEMS = {
    "4x4": lambda **ties: sudoku_problem(bundled_sudoku("4x4"), **ties),
    "queens-8": lambda **ties: queens_problem(QueensInstance(8), **ties),
    "queens-10": lambda **ties: queens_problem(QueensInstance(10), **ties),
}
FREEZE_POLICY = StopPolicy(max_iter=300, min_iter=300, stop_on_feasible=False)


def freeze_runs(name, method, gamma, tie_break, keep=True):
    """Three runs; the second starts from a 0/1 state, which meets exact
    ties from its first step."""
    for seed in range(3):
        prob = FREEZE_PROBLEMS[name](tie_break=tie_break, tie_seed=seed)
        z0 = prob.initial_state(seed)
        yield run(product_step(prob.projections, method, gamma=gamma),
                  np.round(z0) if seed == 1 else z0, FREEZE_POLICY,
                  feasible=prob.feasible, keep_iterates=keep)


class TestStreamedFreeze:
    @pytest.mark.parametrize("tie_break", ["lowest", "random"])
    @pytest.mark.parametrize("method,gamma", BUDGET_METHODS)
    @pytest.mark.parametrize("name", sorted(FREEZE_PROBLEMS))
    def test_streamed_freeze_is_the_mismatch_one(self, name, method, gamma,
                                                 tie_break):
        """Streamed without keep_iterates, and so with no replay; the
        textbook run steps an equally seeded twin."""
        runs = freeze_runs(name, method, gamma, tie_break, keep=False)
        for seed, res in enumerate(runs):
            twin = FREEZE_PROBLEMS[name](tie_break=tie_break, tie_seed=seed)
            z0 = twin.initial_state(seed)
            want = reference_run(Textbook(twin.projections, method, gamma),
                                 np.round(z0) if seed == 1 else z0,
                                 FREEZE_POLICY, twin.feasible)
            columns = IterationTrace(res.trace.n_blocks, z_step=want.z_step,
                                     u_mismatch=want.u_mismatch)
            assert same_bits(res.trace.u_last_change, want.u_last_change)
            assert same_bits(columns.u_last_change, want.u_last_change)
            assert freezes(res.trace) == freezes(columns)

    def test_the_grid_closes_orbits_and_freezes_blocks(self):
        orbits, frozen = [], []
        for name in FREEZE_PROBLEMS:
            for method, gamma in BUDGET_METHODS:
                for res in freeze_runs(name, method, gamma, "lowest", False):
                    orbits.append(res.orbit_k is not None)
                    frozen += freezes(res.trace)[1:]
        assert 0 < sum(orbits) < len(orbits)
        assert None in frozen and {1, 2} & set(frozen)
        assert any(k is not None and k > 2 for k in frozen)

    @pytest.mark.parametrize("case", [
        ("queens-8", "sdr", None, "lowest"), ("queens-10", "altproj", None,
                                              "lowest"),
        ("4x4", "sdr", None, "random"), ("queens-8", "ddr", 0.2, "random")])
    def test_csv_round_trip_keeps_every_freeze(self, tmp_path, case):
        for res in freeze_runs(*case):
            res.trace.to_csv(tmp_path / "trace.csv")
            back = read_trace_csv(tmp_path / "trace.csv")
            assert freezes(back) == freezes(res.trace)
            assert same_bits(back.u_last_change, res.trace.u_last_change)

    def test_u_mismatch_must_be_n_blocks_wide(self):
        r = np.ones(4)
        for bad in (np.zeros((4, 3)), np.zeros(4), np.zeros((4, 2, 1))):
            with pytest.raises(ValueError, match="2 wide"):
                IterationTrace(2, z_step=r, u_mismatch=bad)
        trace = IterationTrace(2, z_step=r, u_mismatch=[[0, 1], [0, 0],
                                                        [0, 0], [0, 0]])
        assert same_bits(trace.u_last_change, [-1, 0])
        assert freezes(trace) == [None, 1, 2]
        with pytest.raises(ValueError, match="without a u_mismatch"):
            IterationTrace(2, z_step=r).u_last_change
