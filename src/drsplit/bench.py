"""Seeded benchmark batches over puzzle instances, with an optional
process pool.  Run i always uses seed base_seed + i, so a batch is
reproducible regardless of how it was parallelized.
"""

import csv
import dataclasses
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .puzzles import build_problem
from .splitting import FEASIBLE, product_step, run

__all__ = [
    "BenchRecord",
    "BenchReport",
    "bench_puzzle",
    "read_bench_csv",
    "resolve_workers",
]


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
    """Worker body; module level so it pickles into a process pool."""
    instance, method, gamma, policy, tie_break, run_id, seed = task
    problem = build_problem(instance, tie_break=tie_break, tie_seed=seed)
    step = product_step(problem.projections, method, gamma=gamma)
    t0 = time.perf_counter()
    res = run(step, problem.initial_state(seed), policy,
              feasible=problem.feasible)
    wall_ms = (time.perf_counter() - t0) * 1e3
    return BenchRecord(run_id=run_id, seed=seed, outcome=res.outcome,
                       iterations=res.iterations, wall_ms=wall_ms)


def bench_puzzle(instance, method, gamma, policy, runs, base_seed=0,
                 workers=None, tie_break="lowest"):
    """Run the same instance from `runs` consecutive seeds.  Each run
    builds its problem with its own seed as the tie-break seed."""
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    t0 = time.perf_counter()
    n_workers = resolve_workers(workers, runs)
    tasks = [(instance, method, gamma, policy, tie_break, i, base_seed + i)
             for i in range(runs)]
    if n_workers == 1:
        records = [_bench_one(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            records = list(pool.map(_bench_one, tasks))
    return BenchReport(records, batch_wall_s=time.perf_counter() - t0)
