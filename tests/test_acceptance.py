"""Acceptance gate: nine numbered end-to-end checks.

Each test prints exactly one [PASS]/[FAIL] line with the measured numbers so
the suite output doubles as a report.
"""

import time
import tracemalloc

import numpy as np
import pytest

from drsplit.analysis import (
    auto_tail_fraction,
    ddr_rate_eigenvalues,
    detect_finite_termination,
    fit_linear_rate,
    numerical_rank,
)
from drsplit.bench import bench_puzzle
from drsplit.constraints import (
    ClueProjection,
    GroupProjection,
    project_unit_sphere,
    queens_groups,
    sudoku_groups,
)
from drsplit.puzzles import (
    Hyperplane,
    QueensInstance,
    SudokuInstance,
    bundled_sudoku,
    circle_line_instance,
    parse_sudoku,
    queens_problem,
    sudoku_problem,
)
from drsplit.splitting import (
    FEASIBLE,
    MAX_ITER,
    IterationTrace,
    StopPolicy,
    dr_step,
    product_step,
    run,
    two_set_step,
)

from helpers import (
    build_sudoku_linearization,
    ddr_rate_block,
    format_sudoku,
    planted_grid,
    spectral_radius,
    sudoku_product_projectors,
)

RATE = np.sqrt(5.0) / 5.0


def report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def fit_seeded_runs(key, n_runs=10):
    """sDR rate study: slope of log10 ||z_k - z_star|| per feasible run."""
    prob = sudoku_problem(bundled_sudoku(key))
    policy = StopPolicy(max_iter=2000, min_iter=100, z_step_tol=1e-12,
                        stop_on_feasible=False)
    slopes, walls, feasible = [], [], 0
    for seed in range(n_runs):
        t0 = time.perf_counter()
        res = run(product_step(prob.projections, "sdr"),
                  prob.initial_state(seed), policy, feasible=prob.feasible,
                  keep_iterates=True)
        walls.append(time.perf_counter() - t0)
        if res.outcome != FEASIBLE:
            continue
        feasible += 1
        res.trace.set_reference()
        tf = auto_tail_fraction(res.trace, "z_res")
        slopes.append(fit_linear_rate(res.trace, "z_res", tf).slope)
    return feasible, slopes, max(walls)


@pytest.fixture(scope="module")
def rate_study():
    return {key: fit_seeded_runs(key) for key in ("4x4", "9x9-37")}


def test_criterion_1_sudoku_sdr_local_rate(rate_study):
    parts, ok = [], True
    for key in ("4x4", "9x9-37"):
        feasible, slopes, wall = rate_study[key]
        hits = sum(abs(s - RATE) < 0.02 for s in slopes)
        ok &= feasible >= 8 and hits >= 8 and wall < 10.0
        parts.append(f"{key}: feasible={feasible}/10 slope-hits={hits}/10 "
                     f"max|dev|={max(abs(s - RATE) for s in slopes):.4f} "
                     f"wall<{wall:.1f}s")
    report(1, ok, "tail slope = sqrt(5)/5 +/- 0.02; " + "; ".join(parts))


def test_criterion_2_rate_is_size_independent(rate_study):
    m4 = float(np.median(rate_study["4x4"][1]))
    m9 = float(np.median(rate_study["9x9-37"][1]))
    gap = abs(m4 - m9)
    report(2, gap < 0.03,
           f"median slope s=4 {m4:.5f} vs s=9 {m9:.5f}, gap {gap:.5f} < 0.03")


def test_criterion_2_optional_sixteen(rate_study):
    rng = np.random.default_rng(16)
    sol = planted_grid(16)
    cells = rng.choice(256, size=120, replace=False)
    clues = tuple(sorted((int(c // 16), int(c % 16), int(sol[c // 16, c % 16]))
                         for c in cells))
    prob = sudoku_problem(SudokuInstance(16, clues))
    policy = StopPolicy(max_iter=3000, min_iter=100, stop_on_feasible=False)
    slopes, peaks = [], []
    for seed in range(3):
        # a run and the replay that fills its reference residuals hold a
        # few states and the columns
        tracemalloc.start()
        res = run(product_step(prob.projections, "sdr"),
                  prob.initial_state(seed), policy, feasible=prob.feasible,
                  keep_iterates=True)
        if res.outcome == FEASIBLE:
            res.trace.residuals("z_res")
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        if res.outcome != FEASIBLE:
            continue
        tf = auto_tail_fraction(res.trace, "z_res")
        slopes.append(fit_linear_rate(res.trace, "z_res", tf).slope)
    ok = slopes and all(abs(s - RATE) < 0.02 for s in slopes)
    bound = 8 * 2**20
    report("2 (s=16)", bool(ok) and max(peaks) < bound,
           f"slopes={['%.5f' % s for s in slopes]} all within 0.02; "
           f"traced peaks {[f'{p / 2**20:.1f}' for p in peaks]} MiB "
           f"< {bound / 2**20:.0f} MiB")


def test_criterion_3_linearized_spectrum():
    t0 = time.perf_counter()
    inst = bundled_sudoku("4x4")
    PC, PS = sudoku_product_projectors(inst)
    sv = np.linalg.svd(PC @ PS, compute_uv=False)
    nz = sv[sv > 1e-8]
    sv_ok = len(nz) == 48 and np.max(np.abs(nz - RATE)) < 1e-10

    spec_ok = True
    for gamma in (0.1, 0.2, 0.5, 1.0):
        ev = np.linalg.eigvals(build_sudoku_linearization(inst, gamma=gamma))
        targets = np.array(ddr_rate_eigenvalues(gamma))
        spec_ok &= np.max(np.abs(ev.imag)) < 1e-8
        dist = np.min(np.abs(ev.real[:, None] - targets[None, :]), axis=1)
        spec_ok &= np.max(dist) < 1e-8
        spec_ok &= all(np.min(np.abs(ev.real - t)) < 1e-8 for t in targets)

    lam_plus = ddr_rate_eigenvalues(0.2)[3]
    lam_ok = abs(lam_plus - 0.86130) < 1e-5
    wall = time.perf_counter() - t0
    report(3, sv_ok and spec_ok and lam_ok and wall < 5.0,
           f"{len(nz)} cross singular values at sqrt(5)/5 (1e-10), damped-map "
           f"spectrum matches closed form (1e-8) at 4 gammas, "
           f"lam+(0.2)={lam_plus:.7f} ~ 0.86130, wall {wall:.2f}s < 5s")


def test_criterion_4_dominant_eigenvalue_is_semi_simple():
    gamma, p = 0.2, 48
    M = ddr_rate_block(gamma, p)
    lam = ddr_rate_eigenvalues(gamma)[3]
    A = M - lam * np.eye(2 * p)
    r1 = numerical_rank(A, reference=M)
    r2 = numerical_rank(A @ A, reference=M)
    report(4, r1 == p and r2 == p,
           f"rank(M - lam+ I)={r1}, rank squared={r2}, both = p = {p}")


def test_criterion_5_queens_finite_termination():
    t0 = time.perf_counter()
    prob = queens_problem(QueensInstance(8))
    policy = StopPolicy(stop_on_feasible=False)
    successes, detected, last_group = 0, 0, 0
    for seed in range(100):
        res = run(product_step(prob.projections, "sdr"),
                  prob.initial_state(seed), policy, feasible=prob.feasible)
        if res.outcome != FEASIBLE:
            continue
        successes += 1
        K = detect_finite_termination(res.trace, "z")
        if K is not None and K < res.iterations:
            detected += 1
        # z stops moving at the very row the last group block freezes
        groups = [detect_finite_termination(res.trace, f"u{i}")
                  for i in range(res.trace.n_blocks)]
        last_group += None not in groups and K == max(groups)
    wall = time.perf_counter() - t0
    report(5, successes >= 80 and detected == last_group == successes
           and wall < 60.0,
           f"success {successes}/100 >= 80, frozen-z index found in "
           f"{detected}/{successes} successes, equal to the last group "
           f"freeze in {last_group}/{successes}, wall {wall:.1f}s < 60s")


def test_criterion_6_success_rate_table():
    pol = StopPolicy()
    ddr_sud = bench_puzzle(bundled_sudoku("9x9-37"), "ddr", 0.2, pol,
                           runs=100, base_seed=0)
    ddr_que = bench_puzzle(QueensInstance(8), "ddr", 0.2, pol,
                           runs=100, base_seed=0)
    sdr_sud = bench_puzzle(bundled_sudoku("9x9-37"), "sdr", None, pol,
                           runs=100, base_seed=0)
    it_ddr = float(np.mean([r.iterations for r in ddr_sud.records]))
    ok = (ddr_sud.successes == 0 and ddr_que.successes == 0
          and sdr_sud.success_rate == 1.0)
    report(6, ok,
           f"damped gamma=1/5: sudoku {ddr_sud.successes}/100 "
           f"(mean {it_ddr:.0f} iters), queens {ddr_que.successes}/100; "
           f"standard: sudoku 37-clue {sdr_sud.successes}/100 "
           f"(mean {sdr_sud.mean_iterations:.0f} iters)")


def test_criterion_7_circle_line_dichotomy():
    t0 = time.perf_counter()
    inst = circle_line_instance()

    res = run(two_set_step(inst.line.project, inst.project_circle, "sdr"),
              inst.z0,
              StopPolicy(max_iter=3000, min_iter=100, stop_on_feasible=False),
              feasible=inst.feasible)
    gap = float(np.linalg.norm(res.u - res.x))
    min_step = float(np.min(res.trace.z_step[-100:]))
    sdr_ok = res.outcome == MAX_ITER and gap > 1e-2 and min_step > 1e-3

    res2 = run(two_set_step(inst.line.project, inst.project_circle, "ddr",
                            gamma=0.2),
               inst.z0, StopPolicy(stop_on_feasible=False),
               feasible=inst.feasible)
    pt = res2.x
    line_d = float(np.linalg.norm(inst.line.project(pt) - pt))
    circ_d = abs(float(np.linalg.norm(pt)) - 1.0)
    spread = max(float(np.linalg.norm(res2.u - pt)),
                 float(np.linalg.norm(res2.z - pt)))
    ddr_ok = max(line_d, circ_d, spread) < 1e-6
    wall = time.perf_counter() - t0
    report(7, sdr_ok and ddr_ok and wall < 1.0,
           f"standard: |u-x|={gap:.4f} > 1e-2, min z-step {min_step:.4f} > "
           f"1e-3; damped: set dists ({line_d:.1e}, {circ_d:.1e}) and "
           f"u/x/z spread {spread:.1e} < 1e-6; wall {wall:.2f}s < 1s")


def test_criterion_8_damped_affine_rate_law():
    rng = np.random.default_rng(8)
    worst = 0.0
    for gamma in (0.2, 1.0, 99.0):
        q = np.linalg.qr(rng.normal(size=(7, 20)).T)[0]
        rng.normal(size=20)     # the offset: M does not depend on it
        M = (gamma / (1.0 + gamma)) * (np.eye(20) - q @ q.T)
        worst = max(worst,
                    abs(spectral_radius(M) - gamma / (1.0 + gamma)))
    report(8, worst < 1e-12,
           f"spectral radius equals gamma/(1+gamma) at gamma in "
           f"{{0.2, 1, 99}}, max deviation {worst:.2e} < 1e-12")


def test_criterion_9_oracle_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)

    def brute_nearest(x, allow_zero):
        cands = [np.eye(len(x))[i] for i in range(len(x))]
        if allow_zero:
            cands.append(np.zeros(len(x)))
        return cands[int(np.argmin([np.sum((x - c) ** 2) for c in cands]))]

    for _ in range(1000):
        d = int(rng.integers(1, 7))
        x = rng.normal(size=d)
        for allow_zero in (False, True):
            one_group = GroupProjection([tuple(range(d))], d,
                                        allow_zero=allow_zero)
            assert np.allclose(one_group(x), brute_nearest(x, allow_zero))

    m, n = 3, 12
    blocks = [GroupProjection([tuple(range(i, n, 3)) for i in range(3)], n,
                              allow_zero=(i % 2 == 0)) for i in range(m)]
    z = rng.normal(size=(m, n))
    z_next, x, u = product_step(blocks, "sdr")(z)

    def stacked(v):
        w = v.reshape(m, n)
        return np.concatenate([blocks[i](w[i]) for i in range(m)])

    def consensus(v):
        return np.tile(v.reshape(m, n).mean(axis=0), m)

    z2, x2, u2 = dr_step(consensus, stacked, z.ravel())
    assert np.max(np.abs(z_next.ravel() - z2)) < 1e-10

    line = Hyperplane(np.array([1.0, 2.0]), np.sqrt(2.0))
    projs = [(GroupProjection(sudoku_groups(4, "row"), 64), 64),
             (GroupProjection(queens_groups(8, "diag"), 64,
                              allow_zero=True), 64),
             (ClueProjection(4, [(0, 0, 2)]), 64),
             (project_unit_sphere, 2),
             (line.project, 2)]
    projs += [(p, 64) for p in sudoku_problem(bundled_sudoku("4x4")).projections]
    projs += [(p, 25) for p in queens_problem(QueensInstance(5)).projections]
    for proj, dim in projs:
        v = rng.normal(size=dim)
        y = proj(v)
        assert np.allclose(proj(y), y, atol=1e-12)

    r = 2.0 * 0.3 ** np.arange(40)
    tr = IterationTrace(1, z_step=r, objective=np.full(len(r), np.nan),
                        z_res=r)
    est = fit_linear_rate(tr, "z_res", 0.5)
    assert abs(est.slope - 0.3) < 1e-6

    for key in ("4x4", "9x9-37", "9x9-22"):
        inst = bundled_sudoku(key)
        assert parse_sudoku(format_sudoku(inst)) == inst

    wall = time.perf_counter() - t0
    report(9, wall < 30.0,
           f"1000 brute-force group checks, product=stacked at 1e-10, "
           f"idempotence of {len(projs)} projections, synthetic rate fit at "
           f"1e-6, parser round-trips; wall {wall:.1f}s < 30s")
