"""Workload definitions of the drsplit benchmark and the serial run paths
shared by the untraced reference pass, the traced pass and the digest.

A workload is a tuple of (method, instance) pairs, each run from `runs`
consecutive seeds starting at seed * SEED_STRIDE.  The generated 16x16
instance also takes its clue cells from the workload seed.  The program
only ever receives these generated inputs.
"""

import collections
import dataclasses
import hashlib
import math
import time

from drsplit.analysis import (
    SUDOKU_SDR_RATE,
    InsufficientDataError,
    auto_tail_fraction,
    detect_finite_termination,
    fit_linear_rate,
)
from drsplit.puzzles import (
    QueensInstance,
    bundled_sudoku,
    queens_problem,
    sudoku_problem,
)
from drsplit.splitting import FEASIBLE, StopPolicy, product_step, run

from gen16 import generate_sudoku16

SEED_STRIDE = 10_000
DEFAULT_SEED = 0
RATE_TOLERANCE = 0.02

# The success tables use the paper's policy except for the cap of 1000
# iterations.  Every queens-8 seed of 400 checked that was unsolved after
# 1000 iterations was still unsolved after 10,000.  At the full cap each
# such seed costs 2 s (queens-8) to 11 s (queens-32), so a handful of them
# decided a run's wall time.  Sdr on 9x9 is trapped from 1 to 3 starts
# in 1000 (9 of 8000 seeds in blocks of 1000 on both puzzles; 16 of the
# 6400 sdr runs of 40 random workload seeds; seed 3300094150012 on 9x9-37
# was still unsolved after 200,000 iterations).  At the full cap a trapped
# start added 10,000 iterations and 1.7 s to a pass, which moved
# iterations_mean by 40% on the seeds that had one.  On 6000 further 9x9
# sdr seeds the cap ended 6 runs unsolved, of which 2 (9x9-22) would have
# solved later, at 1037 and 2527 iterations.  The cap keeps the tail,
# which still sets p90, but bounds it.
#
# The queens table's p90 lies in the steep part of the queens-8 tail
# (about 275 iterations), so where it falls depends on the seed.  In a
# resampling of 12 seeds' runs, the quartile spread over ten seeds of the
# p90 was 12% with 1000 queens-8 sdr runs, 20 queens-16 and 4 queens-32
# per pass, and 8.6% with 1500, 10 and 2.  Queens-16 and queens-32 runs all
# lie above the p90 and carry the oracle at its most expensive, so two
# queens-32 runs still measure it.
TABLE_POLICY = StopPolicy(max_iter=1000)
# The paper's tables give sdr 100% on 9x9 sudoku.  They are rates over a
# finite sample, and 1 to 3 starts in 1000 trap sdr (see above), so a
# pass contradicts them when an sdr 9x9 pair solves less than this share
# of its runs, not when a single run is trapped.
SDR_9X9_MIN_SUCCESS = 0.95
# Rate runs go on past feasibility until the z step stalls.  The 16x16
# runs take exactly 800 steps instead, so that their snapshot memory (and
# with it peak RSS) and their cost do not depend on the seed: stalls came
# at 121-731 steps on 18 seeds, while an unsolved seed ran all 3000 steps
# of the acceptance check's cap and held 1.1 GB of snapshots.  A run that
# has not stalled by then ends max-iter and, as in that check, has no
# slope to test.  Taking the reference later moves fitted slopes towards
# sqrt(5)/5 (0.44709 -> 0.44721 on six runs checked).
RATE_POLICY = StopPolicy(stop_on_feasible=False)
RATE16_POLICY = StopPolicy(max_iter=800, min_iter=800,
                           stop_on_feasible=False)
# Termination runs take exactly 500 steps, for the same reason: run to the
# stall, their length (100 to 1000 steps, cap reached by about 3%) made the
# rate study's wall time and its run-time quantiles move 20-25% between
# seeds.  Feasible queens-8 runs stalled by step 437 on 60 seeds.
TERMINATION_POLICY = StopPolicy(max_iter=500, min_iter=500,
                                stop_on_feasible=False)


@dataclasses.dataclass(frozen=True)
class Pair:
    """One (method, instance) cell of a workload.

    kind is "table" (stop at the first feasible point, as `bench` does),
    "rate" (snapshots, set_reference and a linear-rate fit) or
    "termination" (snapshots and frozen-block detection).
    """

    instance: str
    method: str
    gamma: object
    runs: int
    policy: StopPolicy
    kind: str = "table"

    @property
    def label(self):
        return f"{self.method}.{self.instance}"


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    pooled: bool
    pairs: tuple

    @property
    def runs(self):
        return sum(p.runs for p in self.pairs)


WORKLOADS = {w.name: w for w in (
    Workload("sudoku-table", True, (
        Pair("9x9-37", "sdr", None, 80, TABLE_POLICY),
        Pair("9x9-37", "ddr", 0.2, 80, TABLE_POLICY),
        Pair("9x9-22", "sdr", None, 80, TABLE_POLICY),
        Pair("9x9-22", "ddr", 0.2, 80, TABLE_POLICY))),
    Workload("queens-table", True, (
        Pair("queens-8", "sdr", None, 1500, TABLE_POLICY),
        Pair("queens-8", "ddr", 0.2, 100, TABLE_POLICY),
        Pair("queens-16", "sdr", None, 10, TABLE_POLICY),
        Pair("queens-32", "sdr", None, 2, TABLE_POLICY))),
    Workload("rate-study", False, (
        Pair("9x9-37", "sdr", None, 20, RATE_POLICY, "rate"),
        Pair("16x16", "sdr", None, 2, RATE16_POLICY, "rate"),
        Pair("queens-8", "sdr", None, 80, TERMINATION_POLICY,
             "termination"))),
)}


def base_seed(seed):
    return seed * SEED_STRIDE


def build_instance(key, seed):
    if key == "16x16":
        return generate_sudoku16(seed)
    if key.startswith("queens-"):
        return QueensInstance(int(key.split("-")[1]))
    return bundled_sudoku(key)


def build_problem(instance):
    if isinstance(instance, QueensInstance):
        return queens_problem(instance)
    return sudoku_problem(instance)


def build_instances(workload, seed):
    """One instance per distinct key, in pair order."""
    return {p.instance: build_instance(p.instance, seed)
            for p in workload.pairs}


def snapshot_bytes_per_iter(problem):
    """Bytes keep_iterates stores per step: z and u (blocks x n) and x (n)."""
    return (2 * problem.n_blocks + 1) * problem.ambient_dim * 8


@dataclasses.dataclass
class RunOutcome:
    pair: str
    seed: int
    outcome: str
    iterations: int
    wall_s: float
    slope: object = None
    freeze_z: object = None
    error: object = None


class Probe:
    """Hooks around the calls into each layer.  This base class changes
    nothing; the traced pass overrides it to time and count the calls."""

    spent = None

    def build(self, instance):
        return build_problem(instance)

    def blocks(self, projections):
        return projections

    def step(self, step):
        return step

    def feasible(self, feasible):
        return feasible


def _lap(spent, key, t0):
    now = time.perf_counter()
    if spent is not None:
        spent[key] += now - t0
    return now


def analyse(pair, trace, spent=None):
    """Rate fit or frozen-block detection on a finished snapshot run;
    returns (slope, freeze_z) with None for what the pair does not
    measure.  `spent`, when given, collects the time of each step."""
    if pair.kind == "table":
        return None, None
    t = time.perf_counter()
    trace.set_reference()
    t = _lap(spent, "set_reference_s", t)
    if pair.kind == "rate":
        try:
            tail = auto_tail_fraction(trace, "z_res")
            slope = fit_linear_rate(trace, "z_res", tail).slope
        except InsufficientDataError:  # judged by paper_violation
            slope = None
        _lap(spent, "fit_s", t)
        return slope, None
    freeze = detect_finite_termination(trace, "z")
    for i in range(trace.n_blocks):
        detect_finite_termination(trace, f"u{i}")
    _lap(spent, "termination_s", t)
    return None, freeze


def serial_run(pair, instance, problem, seed, probe=Probe()):
    """One run on the serial path.  Table runs rebuild their problem and
    time `run` alone, as a `bench_puzzle` pool task does; rate and
    termination runs reuse the prebuilt problem, keep snapshots and time
    run plus analysis, as `drsplit rates` does."""
    try:
        if pair.kind == "table":
            problem = probe.build(instance)
        step = probe.step(product_step(probe.blocks(problem.projections),
                                       pair.method, gamma=pair.gamma))
        feasible = probe.feasible(problem.feasible)
        t0 = time.perf_counter()
        res = run(step, problem.initial_state(seed), pair.policy,
                  feasible=feasible, keep_iterates=pair.kind != "table")
        _lap(probe.spent, "run_s", t0)
        slope, freeze = analyse(pair, res.trace, probe.spent)
        wall = time.perf_counter() - t0
    except Exception as exc:  # a raising run is a failed run, not a crash
        return RunOutcome(pair.label, seed, "raised", -1, 0.0,
                          error=f"{type(exc).__name__}: {exc}")
    return RunOutcome(pair.label, seed, res.outcome, res.iterations, wall,
                      slope=slope, freeze_z=freeze)


def serial_pass(workload, seed, instances, problems):
    """Every run of a workload, in order, untraced."""
    return [serial_run(pair, instances[pair.instance],
                       problems[pair.instance], base_seed(seed) + i)
            for pair in workload.pairs for i in range(pair.runs)]


def digest(outs):
    """Per pair: sha256 over its "seed outcome iterations" lines, with the
    run count, successes and iteration sum alongside for reading."""
    lines = collections.defaultdict(list)
    for o in outs:
        lines[o.pair].append(o)
    table = {}
    for pair, runs in lines.items():
        text = "".join(f"{o.seed} {o.outcome} {o.iterations}\n" for o in runs)
        table[pair] = {
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "runs": len(runs),
            "successes": sum(o.outcome == FEASIBLE for o in runs),
            "iterations": sum(o.iterations for o in runs),
        }
    return table


def paper_violation(pair, out):
    """Why this run contradicts the paper's tables or rate study, or None.

    Tables: ddr with gamma = 0.2 never solves sudoku or queens-8 (the sdr
    9x9 row is a rate over the pass: see table_violations).  Rate study:
    every feasible sudoku run fits a slope within 0.02 of sqrt(5)/5; every
    feasible queens-8 run shows a frozen z before its last iteration."""
    if out.error is not None:
        return out.error
    feasible = out.outcome == FEASIBLE
    if pair.kind == "table":
        if (pair.method == "ddr" and pair.gamma == 0.2 and feasible
                and (pair.instance.startswith("9x9")
                     or pair.instance == "queens-8")):
            return f"ddr(0.2) solved {pair.instance}"
    elif pair.kind == "rate" and feasible:
        if out.slope is None or not math.isfinite(out.slope) or \
                abs(out.slope - SUDOKU_SDR_RATE) >= RATE_TOLERANCE:
            return f"slope {out.slope} misses sqrt(5)/5"
    elif pair.kind == "termination" and feasible:
        if out.freeze_z is None or out.freeze_z >= out.iterations:
            return "feasible queens run without a frozen z"
    return None


def table_violations(pairs, outs):
    """The unsolved runs of every sdr 9x9 table pair that solved less than
    SDR_9X9_MIN_SUCCESS of its runs in this pass, with the reason."""
    runs = collections.defaultdict(list)
    for o in outs:
        runs[o.pair].append(o)
    bad = []
    for label, rows in runs.items():
        pair = pairs[label]
        if not (pair.kind == "table" and pair.method == "sdr"
                and pair.instance.startswith("9x9")):
            continue
        solved = sum(o.outcome == FEASIBLE for o in rows)
        if solved < SDR_9X9_MIN_SUCCESS * len(rows):
            bad += [(o, f"sdr {pair.instance} solved {solved}/{len(rows)}, "
                        f"under {SDR_9X9_MIN_SUCCESS:.0%}; this run ended "
                        f"{o.outcome}")
                    for o in rows if o.outcome != FEASIBLE]
    return bad
