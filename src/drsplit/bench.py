"""Seeded benchmark batches over puzzle instances, with an optional
process pool.  Run i always uses seed base_seed + i, so a batch is
reproducible regardless of how it was parallelized.

Each worker steps its share of the seeds through `splitting.run_batch`.
Under the lowest-index tie-break it builds one problem and steps the share
together.  Random ties give each run's projections their own seeded
stream, which rows of a shared batch would interleave, so each of those
runs is a batch of one over its own problem.
"""

import csv
import dataclasses
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .puzzles import build_problem
from .splitting import FEASIBLE, run_batch

__all__ = [
    "BenchRecord",
    "BenchReport",
    "bench_puzzle",
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
    """Worker count: the request (or cpu count), never more than there are
    runs.  0 or None asks for the default."""
    if requested is not None and requested < 0:
        raise ValueError(f"workers must be >= 0, got {requested}")
    limit = requested if requested else (os.cpu_count() or 1)
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


def _bench_share(task):
    """Worker body of a share of the seeds, each batch stepped by
    `run_batch`; module level so it pickles into a process pool.  Under
    the lowest-index tie-break one problem steps the share in as few equal
    batches as BATCH_BYTES allows; under random ties each seed is a batch
    of one over the problem its seed breaks the ties of.  A record's
    wall_ms is its share of its batch's stepping time."""
    instance, method, gamma, policy, tie_break, run_ids, seeds = task
    rows = 1
    if tie_break == "lowest":
        problem = build_problem(instance)
        rows = max(1, BATCH_BYTES // (8 * problem.n_blocks
                                      * problem.ambient_dim))
    n_batches = -(-len(seeds) // rows)
    records = []
    for b in range(n_batches):
        batch = seeds[b::n_batches]
        if tie_break != "lowest":
            problem = build_problem(instance, tie_break=tie_break,
                                    tie_seed=batch[0])
        step = problem.step(method, gamma)
        z0s = np.stack([problem.initial_state(seed) for seed in batch])
        results = run_batch(step, z0s, policy, problem.feasible)
        records += [BenchRecord(run_id=run_id, seed=seed, outcome=outcome,
                                iterations=iterations, wall_ms=wall_s * 1e3)
                    for run_id, seed, (outcome, iterations, wall_s)
                    in zip(run_ids[b::n_batches], batch, results)]
    return records


def bench_puzzle(instance, method, gamma, policy, runs, base_seed=0,
                 workers=None, tie_break="lowest"):
    """Run the same instance from `runs` consecutive seeds: worker w of n
    takes runs w, w + n, ...  Under the lowest-index tie-break it steps
    them as one batch; under random ties each run builds its problem with
    its own seed as the tie-break seed and is a batch of one."""
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    t0 = time.perf_counter()
    n_workers = resolve_workers(workers, runs)
    run_ids = list(range(runs))
    seeds = [base_seed + i for i in run_ids]
    tasks = [(instance, method, gamma, policy, tie_break,
              run_ids[w::n_workers], seeds[w::n_workers])
             for w in range(n_workers)]
    if n_workers == 1:
        shares = [_bench_share(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            shares = list(pool.map(_bench_share, tasks))
    records = sorted((r for share in shares for r in share),
                     key=lambda r: r.run_id)
    return BenchReport(records, batch_wall_s=time.perf_counter() - t0)
