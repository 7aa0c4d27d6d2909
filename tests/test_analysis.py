import numpy as np
import pytest
from numpy.testing import assert_allclose

from drsplit.analysis import (
    SUDOKU_SDR_RATE,
    InsufficientDataError,
    auto_tail_fraction,
    coordinate_classes,
    ddr_affine_rate,
    detect_finite_termination,
    dominant_rate,
    fit_linear_rate,
    is_semi_simple,
    linear_model,
    numerical_rank,
    spectrum,
    theoretical_rate,
)
from drsplit.puzzles import bundled_sudoku, queens_problem, sudoku_problem
from drsplit.puzzles import QueensInstance, SudokuInstance, validate_sudoku
from drsplit.splitting import IterationTrace, StopPolicy, product_step, run

from helpers import (
    build_sudoku_linearization,
    ddr_rate_block,
    ddr_rate_eigenvalues,
    free_mask,
    lift_board,
    lift_grid,
    planted_grid,
    spectral_radius,
    sudoku_product_projectors,
)

RNG = np.random.default_rng(2024)


def synthetic_trace(residuals):
    """Trace stub carrying a prescribed z-residual sequence."""
    r = np.asarray(residuals, dtype=float)
    return IterationTrace(1, z_step=r, objective=np.full(len(r), np.nan),
                          z_res=r)


class TestRateFitting:
    @pytest.mark.parametrize("eta", [0.1, 0.4472135954999579, 0.86, 0.99])
    def test_recovers_synthetic_geometric_decay(self, eta):
        kmax = int(np.ceil(-13.0 / np.log10(eta))) + 20
        r = 3.0 * eta ** np.arange(kmax)
        est = fit_linear_rate(synthetic_trace(r), "z_res", tail_fraction=0.5)
        assert abs(est.slope - eta) < 1e-6
        assert est.r_squared > 1.0 - 1e-9

    def test_report_fields(self):
        r = 0.5 ** np.arange(60)
        est = fit_linear_rate(synthetic_trace(r), "z_res", 0.5)
        k0, k1 = est.window
        assert 0 <= k0 < k1 < 60
        assert k1 <= 54                   # last five excluded
        assert est.n_points >= 10

    def test_floor_residuals_excluded(self):
        # decay bottoms out at 1e-16; those points must not pollute the fit
        r = np.maximum(0.5 ** np.arange(120), 1e-16)
        est = fit_linear_rate(synthetic_trace(r), "z_res", 0.9)
        assert abs(est.slope - 0.5) < 1e-3

    def test_short_trace_rejected(self):
        with pytest.raises(InsufficientDataError):
            fit_linear_rate(synthetic_trace(0.5 ** np.arange(20)), "z_res", 0.5)

    def test_series_that_levels_off_rejected(self):
        # it decays at 0.5 towards 2.0, not towards 0: no rate to fit
        r = 2.0 + 0.5 ** np.arange(100)
        with pytest.raises(InsufficientDataError,
                           match=r"z_res ends at 2\.0, above the noise"):
            fit_linear_rate(synthetic_trace(r), "z_res", 0.5)

    def test_too_few_usable_points_rejected(self):
        r = np.full(100, 1e-15)           # everything below the floor
        with pytest.raises(InsufficientDataError):
            fit_linear_rate(synthetic_trace(r), "z_res", 0.5)

    def test_tail_fraction_validated(self):
        r = 0.5 ** np.arange(60)
        for tf in (0.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                fit_linear_rate(synthetic_trace(r), "z_res", tf)

    def test_auto_tail_fraction_skips_the_elbow(self):
        # flat plateau followed by clean decay
        r = np.concatenate([np.full(80, 2.0), 2.0 * 0.5 ** np.arange(60)])
        tf = auto_tail_fraction(synthetic_trace(r), "z_res")
        est = fit_linear_rate(synthetic_trace(r), "z_res", tf)
        assert abs(est.slope - 0.5) < 1e-6

    def test_sdr_sudoku_run_hits_theory_rate(self):
        prob = sudoku_problem(bundled_sudoku("4x4"))
        res = run(product_step(prob.projections, "sdr"),
                  prob.initial_state(0), StopPolicy(stop_on_feasible=False),
                  feasible=prob.feasible, keep_iterates=True)
        res.trace.set_reference()
        tf = auto_tail_fraction(res.trace, "z_res")
        est = fit_linear_rate(res.trace, "z_res", tf)
        assert abs(est.slope - SUDOKU_SDR_RATE) < 0.02

    def test_ddr_sudoku_run_hits_theory_rate(self):
        prob = sudoku_problem(bundled_sudoku("9x9-37"))
        res = run(product_step(prob.projections, "ddr", gamma=0.2),
                  prob.initial_state(0), StopPolicy(stop_on_feasible=False),
                  feasible=prob.feasible, keep_iterates=True)
        res.trace.set_reference()
        tf = auto_tail_fraction(res.trace, "z_res")
        est = fit_linear_rate(res.trace, "z_res", tf)
        lam_plus = ddr_rate_eigenvalues(0.2)[3]
        assert abs(est.slope - lam_plus) < 0.02


class TestFiniteTermination:
    def test_constant_trace_terminates_at_zero(self):
        tr = IterationTrace(1, z_step=[0.0] * 50)
        assert detect_finite_termination(tr, "z") == 0

    def test_last_change_index(self):
        tr = IterationTrace(1, z_step=[1.0] * 10 + [0.0] * 10)
        assert detect_finite_termination(tr, "z") == 10

    def test_noisy_tail_returns_none(self):
        tr = IterationTrace(1, z_step=[1.0] * 10 + [1e-3] * 10)
        assert detect_finite_termination(tr, "z") is None

    def test_dither_below_tolerance_counts_as_frozen(self):
        tr = IterationTrace(1, z_step=[1.0] * 10 + [3e-15] * 10)
        assert detect_finite_termination(tr, "z") == 10

    def test_queens_run_freezes_z_and_all_u_blocks(self):
        prob = queens_problem(QueensInstance(8))
        for seed in range(6):
            res = run(product_step(prob.projections, "sdr"),
                      prob.initial_state(seed),
                      StopPolicy(stop_on_feasible=False),
                      feasible=prob.feasible, keep_iterates=True)
            if res.outcome != "feasible-found":
                continue
            K = detect_finite_termination(res.trace, "z")
            assert K is not None and K < res.iterations
            res.trace.set_reference()
            for i in range(4):
                Ku = detect_finite_termination(res.trace, f"u{i}")
                assert Ku is not None

    def test_sudoku_run_locks_binary_blocks_but_not_z(self):
        prob = sudoku_problem(bundled_sudoku("9x9-37"))
        # min_iter=0: stop right at the stall tolerance, otherwise the
        # floor keeps iterating past double-precision underflow and parks
        # z bitwise at the fixed point, masking the linear tail
        res = run(product_step(prob.projections, "sdr"),
                  prob.initial_state(0),
                  StopPolicy(stop_on_feasible=False, min_iter=0),
                  feasible=prob.feasible, keep_iterates=True)
        assert res.outcome == "feasible-found"
        res.trace.set_reference()
        for i in range(4):
            assert detect_finite_termination(res.trace, f"u{i}") is not None
        # the clue block and z only converge linearly
        assert detect_finite_termination(res.trace, "u4") is None
        assert detect_finite_termination(res.trace, "z") is None

    def test_unknown_block_rejected(self):
        tr = IterationTrace(2, z_step=[0.0])
        with pytest.raises(ValueError):
            detect_finite_termination(tr, "u7")


class TestSpectra:
    def test_spectral_radius_diagonal(self):
        assert_allclose(spectral_radius(np.diag([0.5, -0.9, 0.1])), 0.9,
                        atol=1e-14)

    def test_spectral_radius_rotation(self):
        th = 0.7
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        assert_allclose(spectral_radius(R), 1.0, atol=1e-12)

    @pytest.mark.parametrize("gamma", [0.2, 1.0, 99.0])
    def test_damped_affine_rate_law(self, gamma):
        # rho of (gamma/(1+gamma)) (I - P_S) equals gamma/(1+gamma)
        n, k = 20, 7
        q = np.linalg.qr(RNG.normal(size=(k, n)).T)[0]
        RNG.normal(size=n)      # the offset: P does not depend on it
        P = q @ q.T
        M = (gamma / (1.0 + gamma)) * (np.eye(n) - P)
        assert abs(spectral_radius(M) - ddr_affine_rate(gamma)) < 1e-12

    def test_ddr_affine_rate_values(self):
        assert_allclose(ddr_affine_rate(0.2), 1.0 / 6.0, atol=1e-15)
        assert ddr_affine_rate(np.inf) == 1.0

    def test_numerical_rank_thresholds(self):
        M = np.diag([1.0, 1e-3, 1e-14, 0.0])
        assert numerical_rank(M) == 2

    def test_is_semi_simple_jordan_block(self):
        M = np.array([[0.5, 1.0], [0.0, 0.5]])
        assert not is_semi_simple(M, 0.5)

    def test_is_semi_simple_identity(self):
        assert is_semi_simple(np.eye(4), 1.0)

    def test_rate_block_is_semi_simple_with_rank_p(self):
        gamma, p = 0.2, 48
        M = ddr_rate_block(gamma, p)
        lam = ddr_rate_eigenvalues(gamma)[3]
        A = M - lam * np.eye(2 * p)
        thr = numerical_rank(A, reference=M)
        thr2 = numerical_rank(A @ A, reference=M)
        assert thr == p and thr2 == p
        assert is_semi_simple(M, lam)

    def test_rate_block_eigenvalues(self):
        gamma, p = 0.5, 5
        ev = np.sort(np.linalg.eigvals(ddr_rate_block(gamma, p)).real)
        lam = ddr_rate_eigenvalues(gamma)
        assert_allclose(ev[:p], np.full(p, lam[1]), atol=1e-12)
        assert_allclose(ev[p:], np.full(p, lam[3]), atol=1e-12)


class TestClosedForms:
    def test_gamma_point_two_reference_values(self):
        lam = ddr_rate_eigenvalues(0.2)
        assert_allclose(lam[0], 0.0, atol=0)
        assert abs(lam[1] - 0.03870) < 1e-5
        assert abs(lam[2] - 1.0 / 6.0) < 1e-15
        assert abs(lam[3] - 0.86130) < 1e-5

    def test_gamma_one_collapses(self):
        lam = ddr_rate_eigenvalues(1.0)
        assert_allclose(lam[1], 0.2, atol=1e-14)
        assert_allclose(lam[2], 0.5, atol=1e-14)
        assert_allclose(lam[3], 0.5, atol=1e-14)

    def test_complex_regime_rejected(self):
        # closed form leaves the reals past gamma = 5/4
        with pytest.raises(ValueError):
            ddr_rate_eigenvalues(99.0)
        with pytest.raises(ValueError):
            ddr_rate_eigenvalues(-0.1)


class TestSudokuLinearization:
    def test_projectors_are_projectors(self):
        inst = bundled_sudoku("4x4")
        PC, PS = sudoku_product_projectors(inst)
        for P in (PC, PS):
            assert_allclose(P, P.T, atol=1e-14)
            assert_allclose(P @ P, P, atol=1e-12)
        assert PC.shape == (320, 320)

    def test_cross_product_singular_values(self):
        inst = bundled_sudoku("4x4")
        PC, PS = sudoku_product_projectors(inst)
        sv = np.linalg.svd(PC @ PS, compute_uv=False)
        nz = sv[sv > 1e-8]
        assert len(nz) == 64 - 16         # free cells of the clue block
        assert np.max(np.abs(nz - np.sqrt(5.0) / 5.0)) < 1e-10

    @pytest.mark.parametrize("gamma", [0.1, 0.2, 0.5, 1.0])
    def test_damped_map_spectrum_matches_closed_form(self, gamma):
        inst = bundled_sudoku("4x4")
        M = build_sudoku_linearization(inst, gamma=gamma)
        ev = np.linalg.eigvals(M)
        assert np.max(np.abs(ev.imag)) < 1e-8
        targets = np.array(ddr_rate_eigenvalues(gamma))
        dist = np.min(np.abs(ev.real[:, None] - targets[None, :]), axis=1)
        assert np.max(dist) < 1e-8
        # every theoretical eigenvalue actually appears
        for t in targets:
            assert np.min(np.abs(ev.real - t)) < 1e-8

    def test_standard_map_nonunit_modulus_is_the_rate(self):
        inst = bundled_sudoku("4x4")
        T = build_sudoku_linearization(inst)
        ev = np.linalg.eigvals(T)
        mods = np.abs(ev)
        mid = mods[(mods > 1e-8) & (mods < 1.0 - 1e-8)]
        assert len(mid) > 0
        assert np.max(np.abs(mid - np.sqrt(5.0) / 5.0)) < 1e-10


def planted_instance(s, n_clues, seed):
    """The box-shift grid of side s and n_clues of its cells as clues."""
    sol = planted_grid(s)
    cells = np.random.default_rng(seed).choice(s * s, size=n_clues,
                                               replace=False)
    clues = tuple((int(c // s), int(c % s), int(sol[c // s, c % s]))
                  for c in cells)
    return SudokuInstance(s, clues), sol


def model_matrix(gamma, free):
    """The dense map that the model's blocks give on the product space."""
    method = "sdr" if gamma is None else "ddr"
    return (np.kron(linear_model(5, 1, method, gamma),
                    np.diag(free.astype(float)))
            + np.kron(linear_model(5, 0, method, gamma),
                      np.diag((~free).astype(float))))


GAMMAS = [None, 0.1, 0.2, 1.0]
MODELS = [("sdr", None), ("sdr-switched", None), ("altproj", None),
          ("ddr", 0.2), ("ddr", 1.0), ("ddr", 1.5), ("ddr", np.inf)]
QUEENS8 = (0, 4, 7, 5, 2, 6, 1, 3)     # a queens-8 solution, column by row


def solved_case(case):
    """(problem, solution vector, free mask) of a test case at a solution:
    a bundled or planted sudoku, or queens-8, where nothing is free."""
    if case == "queens-8":
        board = np.zeros((8, 8), dtype=int)
        board[np.arange(8), QUEENS8] = 1
        return (queens_problem(QueensInstance(8)), lift_board(board),
                np.zeros(64, dtype=bool))
    if case == "9x9-37":
        inst, sol = bundled_sudoku(case), planted_grid(9)
    else:
        s = int(case.split("x")[0])
        inst, sol = planted_instance(s, {16: 120, 25: 375}[s], s)
    assert validate_sudoku(sol, inst)[0]
    return sudoku_problem(inst), lift_grid(sol), free_mask(inst)


class TestCoordinateClasses:
    @pytest.mark.parametrize("case,classes", [
        ("9x9-37", {(5, 1): 396, (5, 0): 333}),
        ("16x16", {(5, 1): 16 * 136, (5, 0): 16 * 120}),
        ("queens-8", {(4, 0): 64}),
    ])
    def test_classes_and_free_coordinates(self, case, classes):
        prob, _, free = solved_case(case)
        assert coordinate_classes(prob) == classes
        # the coordinates one block passes through are the free ones
        passes = np.count_nonzero([p.passes for p in prob.projections],
                                  axis=0)
        assert np.array_equal(passes == 1, free)
        assert np.array_equal(passes == 0, ~free)

    def test_fully_clued_grid_has_one_class(self):
        grid = planted_grid(4)
        inst = SudokuInstance(4, tuple((i, j, int(grid[i, j]))
                                       for i in range(4) for j in range(4)))
        assert coordinate_classes(sudoku_problem(inst)) == {(5, 0): 64}


class TestLinearModel:
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_matches_dense_oracle(self, gamma):
        inst = bundled_sudoku("4x4")
        free = free_mask(inst)
        assert_allclose(model_matrix(gamma, free),
                        build_sudoku_linearization(inst, gamma=gamma),
                        rtol=0, atol=1e-15)

    @pytest.mark.parametrize("method,gamma", MODELS)
    @pytest.mark.parametrize("case", ["9x9-37", "16x16", "25x25",
                                      "queens-8"])
    def test_matches_product_step_jvp(self, case, method, gamma):
        # at a solution the group projections are locally constant, so
        # the step is affine nearby and a finite difference of it is the
        # model applied to the direction
        prob, sol, free = solved_case(case)
        step = product_step(prob.projections, method, gamma)
        m = prob.n_blocks
        z = np.tile(sol, (m, 1))
        v = np.random.default_rng(0).normal(size=z.shape)
        eps = 1e-6
        jvp = (step(z + eps * v)[0] - step(z)[0]) / eps
        want = np.where(free, linear_model(m, 1, method, gamma) @ v,
                        linear_model(m, 0, method, gamma) @ v)
        assert np.max(np.abs(jvp - want)) < 1e-8

    def test_plain_free_block_spectrum(self):
        # 1 three times and 0.2 +- 0.4i, of modulus sqrt(5)/5
        ev = np.linalg.eigvals(linear_model(5, 1, "sdr"))
        ev = ev[np.argsort(np.abs(ev))]
        assert_allclose(np.abs(ev[:2]), SUDOKU_SDR_RATE, atol=1e-15)
        assert_allclose(ev[2:], 1.0, atol=1e-14)

    @pytest.mark.parametrize("gamma", [0.1, 0.2, 1.0, 1.2, 1.25])
    def test_spectral_radius_is_the_theoretical_rate(self, gamma):
        rho = max(spectral_radius(linear_model(5, p, "ddr", gamma))
                  for p in (0, 1))
        prob = sudoku_problem(bundled_sudoku("9x9-37"))
        assert abs(rho - theoretical_rate(prob, "ddr", gamma)) < 1e-8

    def test_rejects_nonpositive_gamma(self):
        for gamma in (0.0, -1.0, None):
            with pytest.raises(ValueError):
                linear_model(5, 1, "ddr", gamma)
        # gamma = inf steps sdr
        for p in (0, 1):
            assert np.array_equal(linear_model(5, p, "ddr", np.inf),
                                  linear_model(5, p, "sdr"))

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method 'newton'"):
            linear_model(5, 1, "newton")

    @pytest.mark.parametrize("m", range(3, 8))
    def test_friedrichs_rate_law(self, m):
        # sdr and sdr-switched contract at sqrt(p/m), the cosine of the
        # Friedrichs angle between the diagonal and the pass-through
        # subspace, and altproj at its square
        for p in range(m):
            for method, rate in (("sdr", np.sqrt(p / m)),
                                 ("sdr-switched", np.sqrt(p / m)),
                                 ("altproj", p / m)):
                got = dominant_rate(spectrum(
                    [(linear_model(m, p, method), 1)]))
                assert abs(got - rate) < 1e-12, (m, p, method)


class TestTheoreticalRate:
    S37 = sudoku_problem(bundled_sudoku("9x9-37"))
    Q8 = queens_problem(QueensInstance(8))

    @pytest.mark.parametrize("gamma", [0.1, 0.2, 0.5, 1.0, 1.2, 1.25])
    def test_sudoku_ddr_is_the_closed_form(self, gamma):
        # lam_plus, except for gamma in (1, 5/4], where gamma/(1+gamma)
        # is the larger
        assert abs(theoretical_rate(self.S37, "ddr", gamma)
                   - max(ddr_rate_eigenvalues(gamma))) < 1e-12

    @pytest.mark.parametrize("method,gamma,rate", [
        ("sdr", None, SUDOKU_SDR_RATE),
        ("ddr", np.inf, SUDOKU_SDR_RATE),
        ("sdr-switched", None, SUDOKU_SDR_RATE),
        ("altproj", None, 0.2),
        ("ddr", 1.5, 0.6),
        ("ddr", 3.0, 0.75),
    ])
    def test_sudoku_rates(self, method, gamma, rate):
        assert abs(theoretical_rate(self.S37, method, gamma) - rate) < 1e-12

    def test_rate_does_not_depend_on_the_size(self):
        for case in ("16x16", "25x25"):
            prob = solved_case(case)[0]
            assert abs(theoretical_rate(prob, "sdr")
                       - SUDOKU_SDR_RATE) < 1e-12

    @pytest.mark.parametrize("gamma", [0.2, 0.5, 1.2, 3.0])
    def test_queens_ddr_is_the_affine_rate(self, gamma):
        assert abs(theoretical_rate(self.Q8, "ddr", gamma)
                   - ddr_affine_rate(gamma)) < 1e-12

    @pytest.mark.parametrize("method,gamma", [
        ("sdr", None), ("sdr-switched", None), ("altproj", None),
        ("ddr", np.inf)])
    def test_queens_terminates_finitely(self, method, gamma):
        assert theoretical_rate(self.Q8, method, gamma) == 0.0


class TestSpectrum:
    def test_jordan_pair_is_one_level(self):
        # eigvals splits the pair by about 1e-8
        levels = spectrum([(np.array([[0.5, 1.0], [0.0, 0.5]]), 3)])
        assert len(levels) == 1
        assert abs(levels[0][0] - 0.5) < 1e-15 and levels[0][1] == 6

    def test_levels_merge_across_blocks(self):
        levels = spectrum([(np.diag([0.5, 1.0]), 2),
                           (np.diag([1.0 + 1e-15, 0.25]), 3)])
        assert [m for _, m in levels] == [3, 2, 5]
        assert_allclose([lam for lam, _ in levels], [0.25, 0.5, 1.0])

    def test_zero_and_complex_levels(self):
        th = 0.7
        rot = 0.5 * np.array([[np.cos(th), -np.sin(th)],
                              [np.sin(th), np.cos(th)]])
        levels = spectrum([(np.diag([3e-17, 1.0]), 1), (rot, 1)])
        assert levels[0] == (0.0, 1)
        assert [type(lam) for lam, _ in levels[1:3]] == [complex, complex]
        assert_allclose([lam for lam, _ in levels[1:3]],
                        [0.5 * np.exp(-1j * th), 0.5 * np.exp(1j * th)])
        assert dominant_rate(levels) == pytest.approx(0.5, abs=1e-15)

    def test_fixed_points_are_not_the_rate(self):
        assert dominant_rate(spectrum([(np.eye(3), 1)])) == 0.0
        assert dominant_rate(spectrum([(np.diag([1.0, 0.3]), 1)])) == 0.3
