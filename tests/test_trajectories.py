"""Pinned trajectories: sha256 digests of fixed-length seeded runs.

Every method runs exactly 150 iterations (no stop on feasibility) on the
4x4, 9x9-37 and 8-queens problems from seeds 0, 1 and 2, and on the
circle/line pair from its bundled start.  A digest covers the final z, x,
u and candidate, the per-iteration z steps and objectives (the objectives
filled by one replay of the run), and, for seed 0 and the circle/line
pair, the residuals against the final iterate.  Any change to the
arithmetic of a step, the consensus average or a projection changes a
digest; a refactor must not.

PINNED_RANDOM_TIES covers tie_break="random" (tie_seed 0) from seed 0,
once from the uniform start and once from that start rounded to 0/1.  The
uniform-start digests equal the lowest-index ones: no exact tie there
changes a winner.  The 0/1 start meets exact ties from the first step, so
its digests differ from the lowest-index runs and pin the tie-break
stream, which draws one uniform per cell of each projection's padded index
table.

The digests are of the raw float64 bytes.  The z-step and residual norms
go through numpy's dot product, so a BLAS build with a different
summation order can move their last bits.
"""

import hashlib

import numpy as np
import pytest

from drsplit.puzzles import (
    QueensInstance,
    bundled_sudoku,
    circle_line_instance,
    queens_problem,
    sudoku_problem,
)
from drsplit.splitting import StopPolicy, product_step, run, two_set_step

POLICY = StopPolicy(max_iter=150, min_iter=150, stop_on_feasible=False)

METHODS = {
    "sdr": ("sdr", None),
    "ddr0.2": ("ddr", 0.2),
    "ddrinf": ("ddr", np.inf),
    "sdr-switched": ("sdr-switched", None),
    "altproj": ("altproj", None),
}

PROBLEMS = {
    "4x4": lambda **ties: sudoku_problem(bundled_sudoku("4x4"), **ties),
    "9x9-37": lambda **ties: sudoku_problem(bundled_sudoku("9x9-37"), **ties),
    "queens-8": lambda **ties: queens_problem(QueensInstance(8), **ties),
}

PINNED = {
    "altproj.4x4": [
        "5cf2409939a476da6df1994c2ad4f297abe06e776bd0cd12949f460e4ba24a0c",
        "dc362337fa24374a4aa8ed09e630f070853b19d1e69ebc58159dfee7efd940a4",
        "f76cd1383a943e4e294522657cda87feb6bc301958b894d3ce80f52ec351eecc",
    ],
    "altproj.9x9-37": [
        "a1682730a8d7464c1e690a440fb4bb6517947a4d73ee54013dc83223e26bc40b",
        "5b619320054529a430a3c4155d8afbc424d6ac279c053f2e7b241c7d14734b93",
        "90b6f58735a59d94de7391e7649511927bd434d1649461dcc3b7bf80ed51c667",
    ],
    "altproj.circle-line": [
        "ce6b59ddc0342f2aa7e5e6ecd024b27757b7ffdf28504f2737f0239ca2a52c08",
    ],
    "altproj.queens-8": [
        "288668a22e21bac534a7d0c1fffbd6591006f078054de52b51963a0427c0e409",
        "2d874e0737fb5fcacf2f1952c4811709943774eda7afe8a5d89cac6d8ebbeed9",
        "1ed87f3d98f4e0d22d88de9fbacf0a0b815bdddc2e6fda7a0c90bb7a81574b52",
    ],
    "ddr0.2.4x4": [
        "5901003155578569c451d66268d15742f67206f9d49f6f18e559f637cd3536fb",
        "f9e1848f4f7bf0459b15d3f685e18a6b0e72b18af8e927f2a1495738ad81e385",
        "da74d745ac48529c99208d0b3d679f47ee3e7d7e98f1f97a963cd7ed8f222ada",
    ],
    "ddr0.2.9x9-37": [
        "d3be103990f705081612fe07543c789a45834ef61ac336e0edd923f6b1e779eb",
        "da45255c8ac3802e8a7e887ded8dd47454798990048b87df8eec2ffbb62cc4d2",
        "eb64c6b024a2a8c5accb0f25fb1cb27930d66d621a3e5f730eed4076ae7fb633",
    ],
    "ddr0.2.circle-line": [
        "80ea9f7377f0c3b9d1db889d7da56eb8bf407c33f84813218b9c0634c742a2a8",
    ],
    "ddr0.2.queens-8": [
        "4254100eb489f2123a24cd5b4942c5abd6d99e990288f9146c5ab5761ac9e2e0",
        "07cc037b99a7557e78bbc2240fa0c79e86cde1f62b3d63178fdf0401407f443f",
        "85bdf23e9e667d6564ac6dfc5a4d228b8c362f735c506506000f30c68ac65975",
    ],
    "ddrinf.4x4": [
        "7b48e4887b33853ef6103fcd632b577c31f309d4ad0a6c4f4c38f246a7043e4c",
        "aa1a37063348e088f2fb6d29aed8dc56065e2cadfde07ca03a5450ca04b41d8d",
        "e9892f0e8fe5a21d7230d03afd61ec291d5d14d352f45d2f491c30284f975f07",
    ],
    "ddrinf.9x9-37": [
        "01f9d4171b312a59a0ef8bada6497f97965ac7ec45709c6bba0a760973ec413a",
        "056a164fd52010db36ae06665c3394747f7497f500305b439f790d74d3cab7df",
        "7dcc0b02ee0f149cc295ffc7dd8992c739675c6dcbdf0d02e6e9c8d26c618302",
    ],
    "ddrinf.circle-line": [
        "6f79040e4ed5002b7781bccc241ad3343545a6baac80152663afaf54df6fa4cc",
    ],
    "ddrinf.queens-8": [
        "7ae4a8598e87f5c275990ef8fbfc5637dd1674cdd37c5956ba89106bde4ff263",
        "47fadae2545c4fa2b7d3bd2851ffcb27d1a5124af23ef83de9b003b7c11077eb",
        "5424a4e1ad43428add4053f08e4863e15af6dfe2051de17f6b50430ba245eabe",
    ],
    "sdr-switched.4x4": [
        "35fe13c2737bb4fa9a47f26eaaa9b20336f174354598e66038ca1726c6ee4e77",
        "ed5678ed7df8e99b1226846cdad183e7bb50e1cc1bd5f6c0aeacb99e7b04ebd3",
        "2c9e9e4595ee72916afec77643817fa5813d43db73c77f9c110560454550f2f7",
    ],
    "sdr-switched.9x9-37": [
        "d06ac9a519e08e3f2ae491a1d378c391ef7090a59246b418b8196250b8c9b62b",
        "b45afc032f1d1b8c6fdb5f71fd89935757ea3657a837eb16752e93a27bf95249",
        "3fe86ac522c799ce10e23b78e170dce0659c11764a40f21227a91ac788eea9ea",
    ],
    "sdr-switched.circle-line": [
        "c1d1c453311140888c77bf6ed186ab9606770dc28b110f38fec2a42fc732cfa9",
    ],
    "sdr-switched.queens-8": [
        "293662c309e002917c30b3c1794aaa157b5d3b290bbc526345c44b4de114a927",
        "4a373b94d26c84099744e3409d5add258a3ca15c2af9ef967ef403d7618528e6",
        "a47721fa074eb6ef95d9fae9f3f00e36589b2d98f69852e268c642922ccbfaec",
    ],
    "sdr.4x4": [
        "7b48e4887b33853ef6103fcd632b577c31f309d4ad0a6c4f4c38f246a7043e4c",
        "aa1a37063348e088f2fb6d29aed8dc56065e2cadfde07ca03a5450ca04b41d8d",
        "e9892f0e8fe5a21d7230d03afd61ec291d5d14d352f45d2f491c30284f975f07",
    ],
    "sdr.9x9-37": [
        "01f9d4171b312a59a0ef8bada6497f97965ac7ec45709c6bba0a760973ec413a",
        "056a164fd52010db36ae06665c3394747f7497f500305b439f790d74d3cab7df",
        "7dcc0b02ee0f149cc295ffc7dd8992c739675c6dcbdf0d02e6e9c8d26c618302",
    ],
    "sdr.circle-line": [
        "6f79040e4ed5002b7781bccc241ad3343545a6baac80152663afaf54df6fa4cc",
    ],
    "sdr.queens-8": [
        "7ae4a8598e87f5c275990ef8fbfc5637dd1674cdd37c5956ba89106bde4ff263",
        "47fadae2545c4fa2b7d3bd2851ffcb27d1a5124af23ef83de9b003b7c11077eb",
        "5424a4e1ad43428add4053f08e4863e15af6dfe2051de17f6b50430ba245eabe",
    ],
}

PINNED_RANDOM_TIES = {
    "ddr0.2.queens-8": [
        "4254100eb489f2123a24cd5b4942c5abd6d99e990288f9146c5ab5761ac9e2e0",
        "3cab4b33041a665618faf071bfab54241b6246ec01866345c58525e9b3fc6d80",
    ],
    "sdr.4x4": [
        "7b48e4887b33853ef6103fcd632b577c31f309d4ad0a6c4f4c38f246a7043e4c",
        "5d19a14816d17634e30f947800e9e32b217b4a6131414d76119955cc6f3e9977",
    ],
    "sdr.9x9-37": [
        "01f9d4171b312a59a0ef8bada6497f97965ac7ec45709c6bba0a760973ec413a",
        "9338d1f3fe2541739f9bd72858d561e88ab131f4b7b9e2c4077e08a578ef7000",
    ],
    "sdr.queens-8": [
        "7ae4a8598e87f5c275990ef8fbfc5637dd1674cdd37c5956ba89106bde4ff263",
        "76b6734de5b692d88d1e5c20f6f0da1f0496b85f28cad4be27dd9dd9445567ed",
    ],
}


def digest(res, residuals):
    h = hashlib.sha256(f"{res.outcome} {res.iterations}".encode())
    columns = [res.z, res.x, res.u, res.candidate, res.trace.z_step,
               res.trace.residuals("objective")]
    if residuals:
        res.trace.set_reference()
        columns += [res.trace.residuals("z_res"),
                    res.trace.residuals("x_res"),
                    res.trace.residuals("u_mismatch")]
    for a in columns:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def puzzle_digest(name, method, seed, binary_start=False, **ties):
    problem = PROBLEMS[name](**ties)
    kind, gamma = METHODS[method]
    z0 = problem.initial_state(seed)
    if binary_start:
        z0 = np.round(z0)
    res = run(product_step(problem.projections, kind, gamma=gamma),
              z0, POLICY, feasible=problem.feasible, keep_iterates=True)
    return digest(res, seed == 0)


def circle_line_digest(method):
    inst = circle_line_instance()
    kind, gamma = METHODS[method]
    res = run(two_set_step(inst.line.project, inst.project_circle, kind,
                           gamma=gamma),
              inst.z0, POLICY, feasible=inst.feasible, keep_iterates=True)
    return digest(res, True)


@pytest.mark.parametrize("method", sorted(METHODS))
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_puzzle_trajectories_are_pinned(name, method):
    got = [puzzle_digest(name, method, seed) for seed in range(3)]
    assert got == PINNED[f"{method}.{name}"]


@pytest.mark.parametrize("method", sorted(METHODS))
def test_circle_line_trajectory_is_pinned(method):
    assert [circle_line_digest(method)] == PINNED[f"{method}.circle-line"]


@pytest.mark.parametrize("key", sorted(PINNED_RANDOM_TIES))
def test_random_tie_trajectories_are_pinned(key):
    method, name = key.rsplit(".", 1)
    got = [puzzle_digest(name, method, 0, binary_start=start,
                         tie_break="random", tie_seed=0)
           for start in (False, True)]
    assert got == PINNED_RANDOM_TIES[key]


@pytest.mark.parametrize("key", sorted(PINNED_RANDOM_TIES))
def test_binary_start_meets_ties(key):
    method, name = key.rsplit(".", 1)
    lowest = puzzle_digest(name, method, 0, binary_start=True)
    assert lowest != PINNED_RANDOM_TIES[key][1]
