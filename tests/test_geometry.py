"""Projection geometry the splitting steps rely on: the library's affine
sets (the line, the clue clamp, the consensus diagonal) and the
relaxation and reflection built into the steps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from drsplit.analysis import principal_angles
from drsplit.constraints import ClueProjection, project_unit_sphere
from drsplit.puzzles import Hyperplane, bundled_sudoku
from drsplit.splitting import ddr_step, dr_step, two_set_step

from helpers import lift_grid, sudoku_product_projectors

RNG = np.random.default_rng(1234)


def hyperplane_oracle(normal, rhs, x):
    # offset plus the orthogonal projection onto a QR basis of the
    # normal's complement, independent of Hyperplane's one-line formula
    normal = np.asarray(normal, dtype=float)
    offset = (rhs / (normal @ normal)) * normal
    q = np.linalg.qr(normal[:, None], mode="complete")[0][:, 1:]
    return offset + q @ (q.T @ (x - offset))


def identity(v):
    return v


# the worked 2-D line {x : <x, (1,2)> = sqrt(2)} from the bundled example
LINE = Hyperplane(np.array([1.0, 2.0]), np.sqrt(2.0))


class TestAffineSubspace:
    def test_line_projection_matches_closed_form_at_origin(self):
        got = LINE.project(np.zeros(2))
        assert_allclose(got, [0.282842712474619, 0.565685424949238], atol=1e-15)

    def test_hyperplane_projection_matches_closed_form_random(self):
        for _ in range(200):
            n = RNG.integers(2, 8)
            normal = RNG.normal(size=n)
            rhs = RNG.normal()
            x = RNG.normal(size=n) * 10
            assert_allclose(Hyperplane(normal, rhs).project(x),
                            hyperplane_oracle(normal, rhs, x), atol=1e-10)

    def test_projection_is_idempotent(self):
        for _ in range(50):
            n = RNG.integers(2, 10)
            normal, rhs = RNG.normal(size=n), RNG.normal()
            plane = Hyperplane(normal, rhs)
            p = plane.project(RNG.normal(size=n))
            assert_allclose(plane.project(p), p, atol=1e-12)
            assert_allclose(normal @ p, rhs, atol=1e-9)
        clue = ClueProjection(4, [(0, 0, 2), (3, 3, 0)])
        y = clue(RNG.normal(size=64))
        assert np.array_equal(clue(y), y)

    def test_projection_is_nonexpansive(self):
        for _ in range(50):
            n = 6
            plane = Hyperplane(RNG.normal(size=n), RNG.normal())
            x, y = RNG.normal(size=n), RNG.normal(size=n)
            dp = np.linalg.norm(plane.project(x) - plane.project(y))
            assert dp <= np.linalg.norm(x - y) + 1e-12

    def test_offset_projects_to_itself(self):
        normal, rhs = RNG.normal(size=5), RNG.normal()
        offset = (rhs / (normal @ normal)) * normal
        assert_allclose(Hyperplane(normal, rhs).project(offset), offset,
                        atol=1e-12)

    def test_linear_project_is_difference_map(self):
        normal, rhs = RNG.normal(size=5), RNG.normal()
        x, y = RNG.normal(size=5), RNG.normal(size=5)
        plane = Hyperplane(normal, rhs)
        assert_allclose(plane.project(x) - plane.project(y),
                        Hyperplane(normal, 0.0).project(x - y), atol=1e-12)

    def test_projector_matrix_agrees_with_project(self):
        # the dense projectors of the linearization against the maps the
        # product-space step applies: the row mean and the clue clamp
        inst = bundled_sudoku("4x4")
        n = inst.size ** 3
        pc, ps = sudoku_product_projectors(inst)
        clue = ClueProjection(inst.size, inst.clues)
        v = RNG.normal(size=5 * n)
        assert_allclose(ps @ v, np.tile(v.reshape(5, n).mean(axis=0), 5),
                        atol=1e-12)
        w = v[4 * n:]
        assert_allclose((pc @ v)[4 * n:], clue(w) - clue(np.zeros(n)),
                        atol=1e-12)
        assert not np.any((pc @ v)[:4 * n])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LINE.project(np.zeros(3))

    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(ValueError):
            principal_angles(2.0 * np.eye(3)[:2], np.eye(3))

    def test_zero_dimensional_subspace_is_a_point(self):
        # every cell clued: the clamp maps everything to one lifted grid
        grid = np.array([[0, 1, 2, 3], [2, 3, 0, 1],
                         [1, 0, 3, 2], [3, 2, 1, 0]])
        clue = ClueProjection(4, [(i, j, grid[i, j])
                                  for i in range(4) for j in range(4)])
        assert np.array_equal(clue(RNG.normal(size=64)), lift_grid(grid))


class TestProjectionCombinators:
    def test_relaxed_project_half_and_full(self):
        # the damped step's x: halfway at gamma = 1, the plain projection
        # bitwise at gamma = inf
        x = RNG.normal(size=2)
        half = ddr_step(LINE.project, identity, 1.0, x)[1]
        assert_allclose(half, 0.5 * (x + LINE.project(x)), atol=1e-15)
        full = ddr_step(LINE.project, identity, np.inf, x)[1]
        assert np.array_equal(full, LINE.project(x))

    def test_relaxed_project_line_sixth(self):
        # lam = gamma/(1+gamma) at gamma = 1/5 is 1/6
        got = ddr_step(LINE.project, identity, 0.2, np.zeros(2))[1]
        assert_allclose(got, [0.04714045207910317, 0.09428090415820634],
                        atol=1e-15)

    def test_reflect_axis_example(self):
        # with the identity as second set, u is the reflection 2 Pa z - z:
        # reflect (1,1) across the x-axis
        axis = Hyperplane(np.array([0.0, 1.0]), 0.0)
        u = dr_step(axis.project, identity, np.array([1.0, 1.0]))[2]
        assert_allclose(u, [1.0, -1.0])

    def test_reflect_circle_center(self):
        u = dr_step(project_unit_sphere, identity, np.array([2.0, 0.0]))[2]
        assert_allclose(u, [0.0, 0.0], atol=1e-15)

    def test_relaxed_outside_range_rejected(self):
        for gamma in (0.0, -0.5, None):
            with pytest.raises(ValueError):
                two_set_step(LINE.project, project_unit_sphere, "ddr",
                             gamma=gamma)

    def test_half_sq_dist_line_origin(self):
        # dist((0,0), line)^2 = 2/5, halved = 1/5
        d = LINE.project(np.zeros(2))
        assert_allclose(0.5 * float(d @ d), 0.2, atol=1e-15)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=2))
    @settings(max_examples=50, deadline=None)
    def test_half_sq_dist_nonnegative_and_zero_on_set(self, vals):
        x = np.array(vals)
        p = LINE.project(x)
        assert 0.5 * float((x - p) @ (x - p)) >= 0.0
        d = p - LINE.project(p)
        assert 0.5 * float(d @ d) < 1e-24
