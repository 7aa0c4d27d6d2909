import functools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from drsplit import splitting
from drsplit.analysis import (
    InsufficientDataError,
    ddr_affine_rate,
    auto_tail_fraction,
    detect_finite_termination,
    fit_linear_rate,
)
from drsplit.constraints import GroupProjection, project_unit_sphere
from drsplit.puzzles import (
    Hyperplane,
    QueensInstance,
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
    _row_norms,
    run_batch,
    two_set_step,
)

from helpers import lift_grid, reference_run

RNG = np.random.default_rng(11)

LINE = Hyperplane(np.array([1.0, 2.0]), np.sqrt(2.0))


def consensus_projection(m, n):
    """Stacked-space projection onto the diagonal: every block gets the mean."""
    def proj(v):
        blocks = v.reshape(m, n)
        return np.tile(blocks.mean(axis=0), m)
    return proj


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
    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_product_dr_equals_stacked_dr(self, m):
        n = 12
        groups = [tuple(range(i, n, 3)) for i in range(3)]
        from drsplit.constraints import GroupProjection
        blocks = [GroupProjection(groups, n, allow_zero=(i % 2 == 0))
                  for i in range(m)]
        z = RNG.normal(size=(m, n))

        z_next, x, u = product_step(blocks, "sdr")(z)

        def proj_c_stacked(v):
            w = v.reshape(m, n).copy()
            return np.concatenate([blocks[i](w[i]) for i in range(m)])

        z2, x2, u2 = dr_step(consensus_projection(m, n), proj_c_stacked,
                             z.ravel())
        assert_allclose(z_next.ravel(), z2, atol=1e-10)
        assert_allclose(np.tile(x, m), x2, atol=1e-10)
        assert_allclose(u.ravel(), u2, atol=1e-10)

    @pytest.mark.parametrize("m", [2, 5])
    def test_product_ddr_equals_stacked_ddr(self, m):
        n = 8
        from drsplit.constraints import GroupProjection
        blocks = [GroupProjection([tuple(range(n))], n, allow_zero=False)
                  for _ in range(m)]
        z = RNG.normal(size=(m, n))
        gamma = 0.3

        z_next, x, u = product_step(blocks, "ddr", gamma)(z)

        def proj_c_stacked(v):
            w = v.reshape(m, n)
            return np.concatenate([blocks[i](w[i]) for i in range(m)])

        z2, x2, u2 = ddr_step(consensus_projection(m, n), proj_c_stacked,
                              gamma, z.ravel())
        assert_allclose(z_next.ravel(), z2, atol=1e-10)
        assert_allclose(x.ravel(), x2, atol=1e-10)
        assert_allclose(u.ravel(), u2, atol=1e-10)

    def test_product_ddr_infinite_gamma_is_product_dr(self):
        prob = queens_problem(QueensInstance(4))
        z = RNG.uniform(size=(4, 16))
        a = product_step(prob.projections, "ddr", np.inf)(z)
        b = product_step(prob.projections, "sdr")(z)
        for ai, bi in zip(a, b):
            assert np.array_equal(ai, bi)

    def test_step_factories_match_primitives(self):
        prob = queens_problem(QueensInstance(4))
        z = RNG.uniform(size=(4, 16))

        def consensus(v):
            return v.mean(axis=0)

        def stacked(v):
            return np.array([p(row) for p, row in zip(prob.projections, v)])

        s1 = product_step(prob.projections, "sdr")
        assert np.array_equal(s1(z)[0], dr_step(consensus, stacked, z)[0])
        s2 = product_step(prob.projections, "ddr", gamma=0.5)
        assert np.array_equal(
            s2(z)[0], ddr_step(consensus, stacked, 0.5, z)[0])
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
        inst = bundled_sudoku("4x4")
        prob = sudoku_problem(inst)
        sol = None
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

    def test_every_iteration_has_one_trace_record(self):
        prob = queens_problem(QueensInstance(5))
        res = run(product_step(prob.projections, "sdr"),
                  prob.initial_state(1), StopPolicy(), feasible=prob.feasible)
        assert len(res.trace) == res.iterations

    def test_identical_seeds_give_bitwise_identical_traces(self):
        prob = queens_problem(QueensInstance(6))
        out = []
        for _ in range(2):
            res = run(product_step(prob.projections, "sdr"),
                      prob.initial_state(42), StopPolicy(),
                      feasible=prob.feasible)
            out.append((res.iterations, res.trace.z_step.copy(), res.z.copy()))
        assert out[0][0] == out[1][0]
        assert np.array_equal(out[0][1], out[1][1])
        assert np.array_equal(out[0][2], out[1][2])

    def test_no_stop_before_min_iter(self):
        # damped run on queens collapses almost immediately, but min_iter
        # keeps it going
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
        res = run(product_step(prob.projections, "sdr"),
                  prob.initial_state(0),
                  StopPolicy(max_iter=105, min_iter=100),
                  feasible=lambda x: False)
        assert res.outcome == MAX_ITER
        assert res.iterations == 105

    def test_stall_with_feasibility_off_still_reports_feasible(self):
        prob = sudoku_problem(bundled_sudoku("4x4"))
        res = run(product_step(prob.projections, "sdr"),
                  prob.initial_state(0),
                  StopPolicy(stop_on_feasible=False), feasible=prob.feasible)
        assert res.outcome == FEASIBLE       # classified at the stall
        assert res.trace.z_step[-1] <= 1e-12

    def test_two_set_circle_line_smoke(self):
        from drsplit.puzzles import circle_line_instance
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
# the batched run against `run`, seed by seed

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


def batch_against_run(key, method, gamma, policy, z0s):
    """(run_batch's results, run's (outcome, iterations) per row)."""
    prob = batch_problem(key)
    step = product_step(prob.projections, method, gamma=gamma)
    got = run_batch(step, z0s, policy, prob.feasible)
    want = [(r.outcome, r.iterations) for r in
            (run(step, z0, policy, feasible=prob.feasible) for z0 in z0s)]
    return got, want


def starts(key, seeds):
    prob = batch_problem(key)
    return np.stack([prob.initial_state(seed) for seed in seeds])


class TestRunBatch:
    @pytest.mark.parametrize("key", sorted(BATCH_PROBLEMS))
    @pytest.mark.parametrize("method,gamma", BATCH_METHODS)
    def test_each_seed_as_run(self, key, method, gamma):
        got, want = batch_against_run(key, method, gamma, GRID_POLICIES[2],
                                      starts(key, range(5)))
        assert [(o, k) for o, k, _ in got] == want

    @pytest.mark.parametrize("key", sorted(BATCH_PROBLEMS))
    @pytest.mark.parametrize("method,gamma", BATCH_METHODS)
    @pytest.mark.parametrize("policy", [GRID_POLICIES[i] for i in (7, 10)])
    def test_each_seed_as_run_on_the_grid(self, key, method, gamma, policy):
        got, want = batch_against_run(key, method, gamma, policy,
                                      starts(key, range(5)))
        assert [(o, k) for o, k, _ in got] == want

    @given(st.sampled_from(sorted(BATCH_PROBLEMS)),
           st.sampled_from(BATCH_METHODS),
           st.sampled_from(range(len(BATCH_POLICIES))),
           st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_each_seed_as_run_under_every_policy(self, key, method, policy,
                                                 seeds):
        got, want = batch_against_run(key, *method, BATCH_POLICIES[policy],
                                      starts(key, seeds))
        assert [(o, k) for o, k, _ in got] == want

    def test_rows_leave_at_their_own_iteration(self):
        got, want = batch_against_run("queens-8", "sdr", None,
                                      StopPolicy(max_iter=150),
                                      starts("queens-8", range(8)))
        assert [(o, k) for o, k, _ in got] == want
        assert len({k for _, k, _ in got}) > 2
        assert {o for o, _, _ in got} == {FEASIBLE, MAX_ITER}

    def test_non_finite_row_leaves_alone(self):
        z0s = starts("queens-8", range(6))
        z0s[2] = 1e308              # finite, but its first step overflows
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = batch_against_run("queens-8", "sdr", None,
                                          StopPolicy(max_iter=150), z0s)
        assert [(o, k) for o, k, _ in got] == want
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
            (r.outcome, r.iterations) for r in
            (run(step, z0, policy, feasible=prob.feasible) for z0 in z0s)]
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


# ---------------------------------------------------------------------------
# `run` and every row of `run_batch` against the textbook loop of
# helpers.reference_run, which steps in full: min_iter 0 and 100 with
# feasibility stops, and a run to max_iter with them off, where most
# queens orbits close and are replayed

REFERENCE_POLICIES = [GRID_POLICIES[i] for i in (0, 2, 11)]


def assert_run_is_the_reference(step, z0, policy, feasible, want=None):
    if want is None:
        want = reference_run(step, z0, policy, feasible)
    outcome, iterations, z, x, u, candidate, z_steps, objectives = want
    for keep in (False, True):
        res = run(step, z0, policy, feasible=feasible, keep_iterates=keep)
        assert (res.outcome, res.iterations) == (outcome, iterations)
        for name, w in (("z", z), ("x", x), ("u", u),
                        ("candidate", candidate)):
            assert same_bits(getattr(res, name), w), name
        assert same_bits(res.trace.z_step, z_steps)
        if keep:    # the objective derives from the snapshots
            assert same_bits(res.trace.residuals("objective"), objectives)
    return res


class TestAgainstReference:
    @pytest.mark.parametrize("policy", REFERENCE_POLICIES)
    @pytest.mark.parametrize("method,gamma", BATCH_METHODS)
    @pytest.mark.parametrize("key", sorted(BATCH_PROBLEMS))
    def test_run_and_batch_rows_are_the_reference(self, key, method, gamma,
                                                  policy):
        prob = batch_problem(key)
        step = product_step(prob.projections, method, gamma=gamma)
        z0s = starts(key, range(3))
        wants = [reference_run(step, z0, policy, prob.feasible)
                 for z0 in z0s]
        for z0, want in zip(z0s[:2], wants):
            assert_run_is_the_reference(step, z0, policy, prob.feasible,
                                        want)
        got = run_batch(step, z0s, policy, prob.feasible)
        assert [(o, k) for o, k, _ in got] == [want[:2] for want in wants]

    # the first policy is the one `drsplit solve --circle-line` uses, capped
    @pytest.mark.parametrize("policy", [
        StopPolicy(max_iter=1000, stop_on_feasible=False)]
        + REFERENCE_POLICIES)
    @pytest.mark.parametrize("method,gamma", [("sdr", None), ("ddr", 0.2)])
    def test_circle_line_run_is_the_reference(self, method, gamma, policy):
        inst = circle_line_instance()
        step = two_set_step(inst.line.project, inst.project_circle, method,
                            gamma=gamma)
        assert_run_is_the_reference(step, inst.z0, policy, inst.feasible)

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
        for z0 in z0s:
            res = assert_run_is_the_reference(step, z0, policy, positive)
            assert res.orbit_k == (2 if res.iterations >= 2 else None)
        got = run_batch(step, z0s, policy, positive)
        assert [(o, k) for o, k, _ in got] == [
            reference_run(step, z0, policy, positive)[:2] for z0 in z0s]
        first = max(min_iter, 1)    # one start is feasible there, one next
        assert {k for _, k, _ in got} == {first, first + 1}

    def test_orbits_are_replayed_on_the_grid(self):
        """The grid above reaches the replay: queens orbits close before
        max_iter, and the pure step's run is then not stepped in full."""
        prob = batch_problem("queens-6")
        step = product_step(prob.projections, "sdr-switched")
        res = assert_run_is_the_reference(step, prob.initial_state(5),
                                          REFERENCE_POLICIES[2],
                                          prob.feasible)
        assert res.orbit_k is not None and res.orbit_k + 1 < res.iterations


# ---------------------------------------------------------------------------
# the product step against what it replaces, kept here as the oracle: each
# block's projection assigned into a stacked output, and each step written
# as one plain expression

def stacked_oracle(blocks, z):
    out = np.empty_like(z)
    z_rows, out_rows = z.swapaxes(0, -2), out.swapaxes(0, -2)
    for i, proj in enumerate(blocks):
        out_rows[i] = proj(z_rows[i])
    return out


def oracle_step(blocks, method, gamma, z):
    pa, pb = _consensus, functools.partial(stacked_oracle, blocks)
    if method == "altproj":
        u = pb(z)
        x = pa(u)
        return np.broadcast_to(x, u.shape).copy(), x, u
    if method == "sdr-switched":
        x = pb(z)
        u = np.broadcast_to(pa(2.0 * x - z), x.shape).copy()
        return z + u - x, x, u
    lam = 1.0 if method == "sdr" else ddr_affine_rate(gamma)
    x = pa(z) if lam == 1.0 else z + lam * (pa(z) - z)
    u = pb(2.0 * x - z)
    return z + u - x, x, u


def wrapped(blocks, which):
    """The blocks with those at the indices `which` behind a lambda."""
    return [(lambda v, p=p: p(v)) if i in which else p
            for i, p in enumerate(blocks)]


def assert_steps_are_the_oracle(blocks, twins, method, gamma, z, steps=25):
    """Step z with product_step over `blocks` and with the oracle over
    `twins` (the same projections, or equally seeded copies)."""
    step = product_step(blocks, method, gamma=gamma)
    for _ in range(steps):
        got, want = step(z), oracle_step(twins, method, gamma, z)
        for g, w in zip(got, want):
            assert same_bits(g, w)
        z = want[0]


class TestStackedAgainstBlockLoop:
    @pytest.mark.parametrize("key", sorted(BATCH_PROBLEMS))
    @pytest.mark.parametrize("method,gamma", BATCH_METHODS)
    def test_steps_are_the_per_block_assignment(self, key, method, gamma):
        prob = batch_problem(key)
        blocks = prob.projections
        last = len(blocks) - 1
        for which in (set(), {0, last}, set(range(last + 1))):
            for z in (starts(key, range(3)), prob.initial_state(7)):
                stacked = splitting._Stacked(wrapped(blocks, which))
                assert same_bits(stacked(z), stacked_oracle(blocks, z))
                assert_steps_are_the_oracle(wrapped(blocks, which), blocks,
                                            method, gamma, z)

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

    @pytest.mark.parametrize("build", [
        lambda **kw: sudoku_problem(bundled_sudoku("4x4"), **kw),
        lambda **kw: queens_problem(QueensInstance(6), **kw)])
    @pytest.mark.parametrize("method,gamma", BATCH_METHODS)
    def test_random_tie_steps_are_the_per_block_assignment(self, build,
                                                            method, gamma):
        prob, twin = (build(tie_break="random", tie_seed=5)
                      for _ in range(2))
        for z in (np.stack([prob.initial_state(s) for s in range(3)]),
                  prob.initial_state(7)):
            assert_steps_are_the_oracle(prob.projections, twin.projections,
                                        method, gamma, z)


# ---------------------------------------------------------------------------
# exact orbits: a step of `product_step` over lowest-tie projections is a
# function of z alone, so its runs are replayed once z_k equals z_{k-2};
# the same step behind a lambda is stepped in full, and the two runs must
# agree bit for bit

def stepped_in_full(step):
    return lambda z: step(z)


def recorded_rows(res):
    """The rows a run records, up to its final iterate: past an orbit that
    closes at k, row k or k + 1, whichever has the parity of the run's
    length."""
    if res.orbit_k is None:
        return len(res.trace)
    return res.orbit_k + (res.iterations - res.orbit_k) % 2


def assert_same_run(a, b, keep, tmp):
    assert (a.outcome, a.iterations) == (b.outcome, b.iterations)
    for name in ("z", "x", "u", "candidate"):
        assert same_bits(getattr(a, name), getattr(b, name)), name
    columns = (splitting._COLUMNS if keep else ("z_step",))
    for name in columns:
        assert same_bits(a.trace.residuals(name),
                         b.trace.residuals(name)), name
    assert same_bits(a.trace.u_last_change, b.trace.u_last_change)
    a.trace.to_csv(tmp / "a.csv")
    b.trace.to_csv(tmp / "b.csv")
    assert (tmp / "a.csv").read_bytes() == (tmp / "b.csv").read_bytes()


def replay_against_full(key, method, gamma, policy, seed, keep, tmp):
    prob = batch_problem(key)
    step = product_step(prob.projections, method, gamma=gamma)
    z0 = prob.initial_state(seed)
    fast = run(step, z0, policy, feasible=prob.feasible, keep_iterates=keep)
    full = run(stepped_in_full(step), z0, policy, feasible=prob.feasible,
               keep_iterates=keep)
    assert full.orbit_k is None
    assert_same_run(fast, full, keep, tmp)
    return fast


class TestOrbitReplay:
    @given(st.sampled_from(sorted(BATCH_PROBLEMS)),
           st.sampled_from(BATCH_METHODS),
           st.sampled_from(GRID_POLICIES), st.integers(0, 40),
           st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_replay_is_full_stepping(self, tmp_path_factory, key, method,
                                     policy, seed, keep):
        replay_against_full(key, *method, policy, seed, keep,
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
        res = replay_against_full(key, method, None, policy, seed, keep,
                                  tmp_path)
        assert res.outcome == outcome
        assert res.orbit_k is not None and res.orbit_k + 1 < res.iterations
        assert (res.orbit_k < policy.min_iter) == (when == "before")

    def test_closed_orbits_are_not_stepped(self, monkeypatch):
        calls = []
        project = GroupProjection.__call__

        def counted(self, x, out=None):
            calls.append(None)
            return project(self, x, out=out)
        monkeypatch.setattr(GroupProjection, "__call__", counted)
        prob = batch_problem("queens-5")
        step = product_step(prob.projections, "altproj")
        policy = StopPolicy(max_iter=10 ** 5, min_iter=10 ** 5,
                            stop_on_feasible=False)
        z0s = starts("queens-5", range(4))
        got = run_batch(step, z0s, policy, prob.feasible)
        assert len(calls) <= 4 * 8          # every orbit closes by k = 7
        assert [(o, k) for o, k, _ in got] == [(STALLED, 10 ** 5)] * 4
        del calls[:]
        res = run(step, z0s[0], policy, feasible=prob.feasible)
        assert len(calls) == 4 * recorded_rows(res)
        assert (res.outcome, res.iterations) == (STALLED, 10 ** 5)
        assert len(res.trace) == 10 ** 5

    def test_an_orbit_tail_is_not_recorded(self):
        """The run records at most orbit_k + 1 rows and reads as the run
        stepped in full (streamed here: 10**5 rows of queens-5 snapshots
        would hold 180 MB)."""
        prob = batch_problem("queens-5")
        step = product_step(prob.projections, "altproj")
        z0 = prob.initial_state(0)
        policy = StopPolicy(max_iter=10 ** 5, min_iter=10 ** 5,
                            stop_on_feasible=False)
        res = run(step, z0, policy, feasible=prob.feasible,
                  keep_iterates=True)
        trace = res.trace
        assert len(trace) == res.iterations == 10 ** 5
        assert len(trace._table["z_step"]) <= res.orbit_k + 1
        for name, want in zip(splitting._COLUMNS, stepped_columns(step, z0,
                                                                  res)):
            assert same_bits(trace.residuals(name), want), name

    def test_random_ties_are_stepped_in_full(self):
        prob = queens_problem(QueensInstance(5), tie_break="random",
                              tie_seed=0)
        step = product_step(prob.projections, "altproj")
        res = run(step, prob.initial_state(0), GRID_POLICIES[-1],
                  feasible=prob.feasible)
        assert res.orbit_k is None and res.iterations == 151
        lowest = batch_problem("queens-5")
        assert run(product_step(lowest.projections, "altproj"),
                   lowest.initial_state(0), GRID_POLICIES[-1],
                   feasible=lowest.feasible).orbit_k == 4

    def test_wrapped_and_two_set_steps_are_stepped_in_full(self):
        prob = batch_problem("queens-5")
        step = product_step(prob.projections, "altproj")
        blocks = [stepped_in_full(p) for p in prob.projections]
        for other in (stepped_in_full(step), product_step(blocks, "altproj")):
            res = run(other, prob.initial_state(0), GRID_POLICIES[-1],
                      feasible=prob.feasible)
            assert res.orbit_k is None and res.iterations == 151
        inst = circle_line_instance()
        res = run(two_set_step(inst.line.project, inst.project_circle,
                               "sdr"), inst.z0, GRID_POLICIES[-1])
        assert res.orbit_k is None


class TestTrace:
    def make_run(self, keep=False):
        prob = sudoku_problem(bundled_sudoku("4x4"))
        return run(product_step(prob.projections, "sdr"),
                   prob.initial_state(0),
                   StopPolicy(stop_on_feasible=False),
                   feasible=prob.feasible, keep_iterates=keep), prob

    def test_reference_residuals_use_final_iterate_by_default(self):
        res, _ = self.make_run(keep=True)
        res.trace.set_reference()
        r = res.trace.residuals("z_res")
        assert len(r) == res.iterations
        assert r[-1] == 0.0
        assert r[0] > r[-2]

    def test_mismatch_counts_are_integers_per_block(self):
        res, _ = self.make_run(keep=True)
        res.trace.set_reference()
        mm = res.trace.u_mismatch
        assert mm.shape == (res.iterations, 5)
        assert np.all(mm >= 0)
        assert np.all(mm == np.round(mm))
        # binary blocks lock eventually
        assert mm[-1, 0] == 0

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

    def test_hand_built_trace_takes_columns(self):
        r = 0.5 ** np.arange(4)
        tr = IterationTrace(2, z_step=r, objective=r,
                            u_mismatch=np.zeros((4, 2)))
        assert len(tr) == 4 and tr.n_blocks == 2
        assert tr.u_mismatch.shape == (4, 2)
        with pytest.raises(ValueError):     # no snapshots to fill z_res
            tr.residuals("z_res")
        with pytest.raises(ValueError):
            IterationTrace(1, z_resid=r)
        with pytest.raises(ValueError, match="differ in length"):
            IterationTrace(2, z_step=r, objective=r[:2])

    def test_hand_built_trace_does_not_grow(self, tmp_path):
        # its columns would not grow with z_step, and the CSV would drop
        # the appended rows
        r = np.arange(1.0, 5.0)
        tr = IterationTrace(2, z_step=r, objective=r,
                            u_mismatch=np.zeros((4, 2)))
        with pytest.raises(ValueError, match="other than z_step"):
            tr.append(0.0)
        tr.to_csv(tmp_path / "trace.csv")
        assert len(tr) == len(read_trace_csv(tmp_path / "trace.csv")) == 4
        grown = IterationTrace(2, z_step=r)
        grown.append(0.0)
        grown.to_csv(tmp_path / "grown.csv")
        assert len(read_trace_csv(tmp_path / "grown.csv")) == len(grown) == 5
        res, _ = self.make_run(keep=True)   # filled columns are fixed too
        res.trace.residuals("z_res")
        with pytest.raises(ValueError, match="other than z_step"):
            res.trace.append(0.0)

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

    def test_objective_is_consensus_violation(self):
        res, _ = self.make_run(keep=True)
        obj = res.trace.residuals("objective")
        u = res.u
        want = 0.5 * np.sum((u - u.mean(axis=0)) ** 2)
        assert_allclose(obj[-1], want, atol=1e-12)
        assert np.all(obj >= 0.0)


# ---------------------------------------------------------------------------
# the replayed columns and the loop against per-iteration oracles: a step
# wrapper keeps its own copy of every (z_in, z, x, u), and the oracles are
# the formulas the run loop and the trace used on one array at a time

def recorded(step):
    """The step behind a wrapper that keeps a copy of every call's (z_in,
    z, x, u).  A wrapper is its own deep copy, so a fill replays the run
    through it: the run's own calls are the first `iterations` kept."""
    kept = []

    def rec(z):
        z_new, x, u = step(z)
        kept.append(tuple(np.array(a, dtype=float) for a in (z, z_new, x, u)))
        return z_new, x, u
    return rec, kept


def oracle_objective(x, u):
    if u.ndim == 2:
        return 0.5 * float(np.sum((u - u.mean(axis=0)) ** 2))
    return 0.5 * float(np.sum((u - x) ** 2))


def stepped_columns(step, z, res):
    """The trace columns of res, in _COLUMNS order, from stepping z in full
    for len(res.trace) iterations: one np.linalg.norm / count_nonzero per
    iteration, against res's final iterate, which the steps must reach."""
    rows = []
    for _ in range(len(res.trace)):
        z_new, x, u = step(z)
        rows.append((np.linalg.norm(z_new - z), oracle_objective(x, u),
                     np.linalg.norm(z_new - res.z), np.linalg.norm(x - res.x),
                     np.count_nonzero(np.atleast_2d(u != res.u), axis=1)))
        z = z_new
    assert same_bits(z, res.z)
    return [np.array(column, dtype=float) for column in zip(*rows)]


def oracle_reference(kept):
    """z_res, x_res and u_mismatch, one np.linalg.norm / count_nonzero
    per snapshot."""
    _, zs, xs, us = zip(*kept)
    u_ref = np.atleast_2d(us[-1])
    return (np.array([float(np.linalg.norm(zz - zs[-1])) for zz in zs]),
            np.array([float(np.linalg.norm(xx - xs[-1])) for xx in xs]),
            np.array([np.count_nonzero(np.atleast_2d(uu) != u_ref, axis=1)
                      for uu in us], dtype=float))


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


SNAPSHOT_POLICY = StopPolicy(max_iter=150, min_iter=150,
                             stop_on_feasible=False)
SNAPSHOT_PROBLEMS = {
    "4x4": lambda: sudoku_problem(bundled_sudoku("4x4")),
    "9x9-37": lambda: sudoku_problem(bundled_sudoku("9x9-37")),
    "queens-8": lambda: queens_problem(QueensInstance(8)),
}


def snapshot_case(name, method, gamma):
    """(step, start, feasible) of one problem, or of the circle/line pair."""
    if name == "circle-line":
        inst = circle_line_instance()
        return (two_set_step(inst.line.project, inst.project_circle, method,
                             gamma=gamma), inst.z0, inst.feasible)
    prob = SNAPSHOT_PROBLEMS[name]()
    return (product_step(prob.projections, method, gamma=gamma),
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
    @pytest.mark.parametrize("method,gamma", BATCH_METHODS)
    @pytest.mark.parametrize("name", sorted(SNAPSHOT_PROBLEMS)
                             + ["circle-line"])
    def test_refilled_objective_is_the_running_one(self, name, method,
                                                   gamma):
        step, z0, feasible = snapshot_case(name, method, gamma)
        rec, kept = recorded(step)
        kept_run = run(rec, z0, SNAPSHOT_POLICY, feasible=feasible,
                       keep_iterates=True)
        got = kept_run.trace.residuals("objective")
        assert same_bits(got, reference_run(step, z0, SNAPSHOT_POLICY,
                                            feasible)[-1])
        assert same_bits(got, [oracle_objective(x, u)
                               for _, _, x, u in kept[:150]])

    @pytest.mark.parametrize("name", ["4x4", "9x9-37", "circle-line"])
    def test_refilled_reference_is_the_per_snapshot_one(self, name):
        step, z0, feasible = snapshot_case(name, "sdr", None)
        rec, kept = recorded(step)
        res = run(rec, z0, SNAPSHOT_POLICY, feasible=feasible,
                  keep_iterates=True)
        res.trace.set_reference()       # fills nothing yet
        assert res.iterations == len(kept) == 150
        want = oracle_reference(kept)
        got = [res.trace.residuals(name_)
               for name_ in ("z_res", "x_res", "u_mismatch")]
        assert len(kept) == 300         # one replay filled all three
        for name_, g, w in zip(("z_res", "x_res", "u_mismatch"), got, want):
            assert same_bits(g, w), name_

    def test_reference_of_a_non_finite_run(self):
        prob = SNAPSHOT_PROBLEMS["9x9-37"]()
        z0 = prob.initial_state(2)
        step = product_step(prob.projections, "sdr")
        rec, kept = recorded(Poisoned(step, at=38))
        with np.errstate(invalid="ignore"):
            run(rec, z0, StopPolicy(), feasible=prob.feasible)
            res = run(Poisoned(step, at=38), z0, StopPolicy(),
                      feasible=prob.feasible, keep_iterates=True)
            want = oracle_reference(kept)
            got = [res.trace.residuals(name_)
                   for name_ in ("z_res", "x_res", "u_mismatch")]
        assert res.outcome == NON_FINITE and res.iterations == len(kept) == 38
        assert np.isfinite(want[1]).all() and np.isinf(want[0][:-1]).all()
        assert not np.isfinite(res.z).all()
        for g, w in zip(got, want):
            assert same_bits(g, w)
        assert same_bits(res.trace.residuals("objective"),
                         [oracle_objective(x, u) for _, _, x, u in kept])

    def test_a_step_that_does_not_replay_raises(self):
        """A random-tie step behind a lambda is its own deep copy, so the
        replay draws its ties from where the run left the generators."""
        prob = queens_problem(QueensInstance(8), tie_break="random",
                              tie_seed=0)
        step = product_step(prob.projections, "sdr")
        z0 = np.round(prob.initial_state(0))    # meets ties from the start
        res = run(lambda z: step(z), z0, SNAPSHOT_POLICY, keep_iterates=True)
        with pytest.raises(ValueError, match="did not reach"):
            res.trace.residuals("z_res")
        with pytest.raises(ValueError, match="did not reach"):
            res.trace.to_csv(os.devnull)
        # the step itself is copied before its first step
        res = run(step, z0, SNAPSHOT_POLICY, keep_iterates=True)
        assert same_bits(res.trace.residuals("z_res")[-1], 0.0)

    @pytest.mark.parametrize("policy", [
        StopPolicy(), StopPolicy(max_iter=60, min_iter=0),
        StopPolicy(max_iter=150, min_iter=0, z_step_tol=1e-6,
                   stop_on_feasible=False),
        StopPolicy(max_iter=30, min_iter=30)])
    @pytest.mark.parametrize("name", ["queens-8", "9x9-37"])
    def test_candidate_is_the_mean_going_into_the_last_step(self, name,
                                                            policy):
        step, z0, feasible = snapshot_case(name, "ddr", 0.2)
        rec, kept = recorded(step)
        res = run(rec, z0, policy, feasible=feasible)
        assert same_bits(res.candidate, kept[-1][0].mean(axis=0))

    def test_candidate_of_a_non_finite_run(self):
        step, z0, feasible = snapshot_case("queens-8", "sdr", None)
        rec, kept = recorded(Poisoned(step, at=5))
        res = run(rec, z0, StopPolicy(), feasible=feasible)
        assert res.outcome == NON_FINITE and res.iterations == 5
        assert same_bits(res.candidate, kept[-1][0].mean(axis=0))

    def test_candidate_of_a_two_set_run_is_x(self):
        step, z0, feasible = snapshot_case("circle-line", "ddr", 0.2)
        res = run(step, z0, StopPolicy(), feasible=feasible)
        assert res.candidate is res.x


# ---------------------------------------------------------------------------
# the replay: everything read off a run's trace is recomputed, bit for bit,
# by stepping again from the start, and equals what the run stepped in full
# reads

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


def assert_same_readings(a, b):
    (arrays_a, rest_a), (arrays_b, rest_b) = a, b
    for i, (got, want) in enumerate(zip(arrays_a, arrays_b)):
        assert same_bits(got, want), i
    assert rest_a == rest_b


class TestReplay:
    @pytest.mark.parametrize("method,gamma", BUDGET_METHODS)
    @pytest.mark.parametrize("name", sorted(SNAPSHOT_PROBLEMS))
    def test_refilled_trace_is_the_full_one(self, tmp_path, name, method,
                                            gamma):
        replay_against_full(name, method, gamma, SNAPSHOT_POLICY, 1, True,
                            tmp_path)
        step, z0, feasible = snapshot_case(name, method, gamma)
        full = run(stepped_in_full(step), z0, SNAPSHOT_POLICY,
                   feasible=feasible, keep_iterates=True)
        want = readings(full, tmp_path / "full.csv", csv_first=False)
        for csv_first in (True, False):
            res = run(step, z0, SNAPSHOT_POLICY, feasible=feasible,
                      keep_iterates=True)
            assert_same_readings(readings(res, tmp_path / "replay.csv",
                                          csv_first), want)

    @pytest.mark.parametrize("case", [
        ("queens-8", "sdr", 0, 301), ("queens-6", "sdr-switched", 5, 151),
        ("queens-5", "altproj", 0, 150)])
    def test_replay_past_an_orbit(self, tmp_path, case):
        key, method, seed, steps = case
        prob = batch_problem(key)
        step = product_step(prob.projections, method)
        z0 = prob.initial_state(seed)
        policy = StopPolicy(max_iter=steps, min_iter=steps,
                            stop_on_feasible=False)
        full = run(stepped_in_full(step), z0, policy, feasible=prob.feasible,
                   keep_iterates=True)
        res = run(step, z0, policy, feasible=prob.feasible,
                  keep_iterates=True)
        assert res.orbit_k is not None
        assert (len(res.trace._table["z_step"]) == recorded_rows(res)
                <= res.orbit_k + 1 < res.iterations)
        assert_same_readings(readings(res, tmp_path / "a.csv", False),
                             readings(full, tmp_path / "b.csv", False))

    def test_other_steps_replay_from_their_copy(self):
        """Steps that are not functions of z alone are copied before their
        first step; their columns are those of a twin stepped in full."""
        prob = batch_problem("queens-8")
        z0 = np.round(prob.initial_state(0))
        pure = product_step(prob.projections, "sdr")
        blocks = [stepped_in_full(p) for p in prob.projections]
        inst = circle_line_instance()

        def ties():
            return product_step(queens_problem(
                QueensInstance(8), tie_break="random",
                tie_seed=0).projections, "sdr")
        for step, twin, start in [
                (ties(), ties(), z0),
                (stepped_in_full(pure), pure, z0),
                (product_step(blocks, "sdr"), pure, z0),
                (two_set_step(inst.line.project, inst.project_circle, "sdr"),
                 two_set_step(inst.line.project, inst.project_circle, "sdr"),
                 inst.z0)]:
            res = run(step, start, SNAPSHOT_POLICY, keep_iterates=True)
            assert res.orbit_k is None and len(res.trace) == 150
            for name, want in zip(splitting._COLUMNS,
                                  stepped_columns(twin, start, res)):
                assert same_bits(res.trace.residuals(name), want), name


# ---------------------------------------------------------------------------
# streamed freezes: each block's last change of u, kept by the run loop,
# against the one read off the replayed u_mismatch column

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
        runs = zip(freeze_runs(name, method, gamma, tie_break),
                   freeze_runs(name, method, gamma, tie_break, keep=False))
        for res, lean in runs:
            trace = res.trace
            columns = IterationTrace(trace.n_blocks, z_step=trace.z_step,
                                     u_mismatch=trace.u_mismatch)
            assert columns._last_change is None
            assert same_bits(trace.u_last_change, columns.u_last_change)
            assert freezes(trace) == freezes(columns)
            # streamed without keep_iterates, and so with no replay
            assert same_bits(lean.trace.u_last_change, trace.u_last_change)

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
