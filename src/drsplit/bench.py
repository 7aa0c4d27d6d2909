"""Seeded benchmark batches over puzzle instances, with an optional
process pool.  Run i always uses seed base_seed + i, so a batch is
reproducible regardless of how it was parallelized.

Under the lowest-index tie-break each worker builds one problem and steps
its share of the seeds together, through `splitting.run_batch`.  Random
ties give each run's projections their own seeded stream, which rows of a
shared batch would interleave, so those runs go one by one through `run`.
"""

import csv
import dataclasses
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .puzzles import build_problem
from .splitting import FEASIBLE, product_step, run, run_batch

__all__ = [
    "BenchRecord",
    "BenchReport",
    "bench_puzzle",
    "read_bench_csv",
    "resolve_workers",
]


# Bytes of one (rows, blocks, n) float64 state a batch may hold, which caps
# its rows by the problem's size: 512 queens-8 runs, 35 9x9 runs.  A step
# makes several arrays of that size at once, and each pool worker holds
# its own batch.  Twice this budget held 750 queens-8 runs in one batch and
# raised the pooled queens table's peak RSS by 8%; larger batches step
# faster, since more runs share each call's fixed cost.
BATCH_BYTES = 2 ** 20


def resolve_workers(requested, runs):
    """Worker count: the request (or cpu count), capped by the DR_THREADS
    environment variable when it holds a positive integer, never more
    than there are runs.  0 or None asks for the default."""
    if requested is not None and requested < 0:
        raise ValueError(f"workers must be >= 0, got {requested}")
    limit = requested if requested else (os.cpu_count() or 1)
    env = os.environ.get("DR_THREADS")
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            cap = None
        if cap is not None and cap >= 1:
            limit = min(limit, cap)
    return max(1, min(limit, runs))


@dataclasses.dataclass(frozen=True)
class BenchRecord:
    run_id: int
    seed: int
    outcome: str
    iterations: int
    wall_ms: float


@dataclasses.dataclass
class BenchReport:
    """Per-run records, plus the wall time of the whole batch (pool start
    and teardown included) when the report comes from `bench_puzzle`."""

    records: list
    batch_wall_s: float = None

    @property
    def successes(self):
        return sum(1 for r in self.records if r.outcome == FEASIBLE)

    @property
    def success_rate(self):
        if not self.records:
            return 0.0
        return self.successes / len(self.records)

    def _success_iterations(self):
        return [r.iterations for r in self.records if r.outcome == FEASIBLE]

    @property
    def mean_iterations(self):
        iters = self._success_iterations()
        return float(np.mean(iters)) if iters else None

    @property
    def median_iterations(self):
        iters = self._success_iterations()
        return float(np.median(iters)) if iters else None

    def summary(self):
        parts = [f"runs={len(self.records)}",
                 f"successes={self.successes}",
                 f"success_rate={self.success_rate:.3f}"]
        if self.successes:
            parts.append(f"mean_iter={self.mean_iterations:.1f}")
            parts.append(f"median_iter={self.median_iterations:.1f}")
        total_ms = sum(r.wall_ms for r in self.records)
        parts.append(f"total_wall_s={total_ms / 1e3:.2f}")
        if self.batch_wall_s is not None:
            parts.append(f"batch_wall_s={self.batch_wall_s:.2f}")
        return " ".join(parts)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["run_id", "seed", "outcome", "iterations",
                             "wall_ms"])
            for r in self.records:
                writer.writerow([r.run_id, r.seed, r.outcome, r.iterations,
                                 repr(float(r.wall_ms))])


def read_bench_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    records = [BenchRecord(run_id=int(r[0]), seed=int(r[1]), outcome=r[2],
                           iterations=int(r[3]), wall_ms=float(r[4]))
               for r in rows[1:]]
    return BenchReport(records)


def _bench_one(task):
    """Worker body of one random-tie run; module level so it pickles into
    a process pool."""
    instance, method, gamma, policy, tie_break, run_id, seed = task
    problem = build_problem(instance, tie_break=tie_break, tie_seed=seed)
    step = product_step(problem.projections, method, gamma=gamma)
    t0 = time.perf_counter()
    res = run(step, problem.initial_state(seed), policy,
              feasible=problem.feasible)
    wall_ms = (time.perf_counter() - t0) * 1e3
    return [BenchRecord(run_id=run_id, seed=seed, outcome=res.outcome,
                        iterations=res.iterations, wall_ms=wall_ms)]


def _bench_batch(task):
    """Worker body of a lowest-index tie-break share: one problem, its
    seeds stepped by `run_batch` in as few equal batches as BATCH_BYTES
    allows.  A record's wall_ms is its share of its batch's stepping time.
    """
    instance, method, gamma, policy, run_ids, seeds = task
    problem = build_problem(instance)
    step = product_step(problem.projections, method, gamma=gamma)
    rows = max(1, BATCH_BYTES // (8 * problem.n_blocks * problem.ambient_dim))
    n_batches = -(-len(seeds) // rows)
    records = []
    for b in range(n_batches):
        batch = seeds[b::n_batches]
        z0s = np.stack([problem.initial_state(seed) for seed in batch])
        results = run_batch(step, z0s, policy, problem.feasible)
        records += [BenchRecord(run_id=run_id, seed=seed, outcome=outcome,
                                iterations=iterations, wall_ms=wall_s * 1e3)
                    for run_id, seed, (outcome, iterations, wall_s)
                    in zip(run_ids[b::n_batches], batch, results)]
    return records


def bench_puzzle(instance, method, gamma, policy, runs, base_seed=0,
                 workers=None, tie_break="lowest"):
    """Run the same instance from `runs` consecutive seeds.  Under the
    lowest-index tie-break, worker w of n steps runs w, w + n, ... as one
    batch; under random ties each run builds its problem with its own
    seed as the tie-break seed."""
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    t0 = time.perf_counter()
    n_workers = resolve_workers(workers, runs)
    run_ids = list(range(runs))
    seeds = [base_seed + i for i in run_ids]
    if tie_break == "lowest":
        work = _bench_batch
        tasks = [(instance, method, gamma, policy, run_ids[w::n_workers],
                  seeds[w::n_workers]) for w in range(n_workers)]
    else:
        work = _bench_one
        tasks = [(instance, method, gamma, policy, tie_break, i, seed)
                 for i, seed in zip(run_ids, seeds)]
    if n_workers == 1:
        shares = [work(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            shares = list(pool.map(work, tasks))
    records = sorted((r for share in shares for r in share),
                     key=lambda r: r.run_id)
    return BenchReport(records, batch_wall_s=time.perf_counter() - t0)
