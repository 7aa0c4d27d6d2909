"""The drsplit benchmark: one workload per invocation.

    python3 perfbench/run.py --workload sudoku-table --seed 0 --seconds 30 --trace 0

With --trace 0 it repeats the workload's seeded batch for --seconds seconds
and reports the end-to-end metrics.  With --trace 1 it runs the batch once
as the workload does (pooled or serial), then serially with each run once
untraced and once with every layer timed, and reports the per-layer
metrics and the tracing overhead.  Every metric is printed as
"name value unit"; the last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}.  A full record (environment,
every metric, spans) goes to perfbench/results/.  README.md in this
directory says why each workload exists and how to compare two results.

The benchmark imports drsplit from src/ next to this directory and from
nowhere else, and sets no BLAS, OpenMP or worker-count variable.
"""

import argparse
import collections
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import drsplit  # noqa: E402
import numpy as np  # noqa: E402
from drsplit.bench import bench_puzzle, resolve_workers  # noqa: E402
from drsplit.splitting import FEASIBLE  # noqa: E402

import workloads as wl  # noqa: E402
from tracing import Tracer, traced_pass  # noqa: E402

SETUP_PROBES = 9
DIGEST_FILE = HERE / "digest.json"
RESULTS_DIR = HERE / "results"
ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "DR_THREADS")

END_TO_END_UNITS = {
    "runs_per_s": "1/s", "run_ms_p90": "ms",
    "us_per_iter": "us", "setup_s": "s", "peak_rss_mb": "MB",
    "success_rate": "ratio", "iterations_mean": "count",
}
PER_LAYER_UNITS = {
    "constraints.calls": "count", "constraints.busy_s": "s",
    "constraints.group_us_per_call": "us",
    "puzzles.feasible_calls": "count", "puzzles.feasible_busy_s": "s",
    "puzzles.feasible_us_per_call": "us",
    "puzzles.feasible_hit_ratio": "ratio", "puzzles.build_s": "s",
    "splitting.step_self_s": "s", "splitting.loop_self_s": "s",
    "splitting.iterations": "count",
    "splitting.snapshot_bytes": "bytes_computed",
    "splitting.floor_stop_share": "ratio",
    "bench.wall_s": "s", "bench.run_wall_sum_s": "s",
    "bench.workers": "count", "bench.pool_utilisation": "ratio",
    "bench.overhead_s": "s", "trace.overhead_s": "s",
}


class DigestMismatch(Exception):
    pass


def environment(workload):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in
                ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, ValueError):  # numpy < 1.26
        blas = "unknown"
    max_runs = max(p.runs for p in workload.pairs)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "env": {k: os.environ.get(k, "unset") for k in ENV_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workers": resolve_workers(None, max_runs) if workload.pooled else 1,
        "machine": platform.machine(),
    }


def measure_setup(workload, seed):
    """Median set-up time over several fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload.name,
             str(seed)], capture_output=True, text=True, timeout=120,
            check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])
                     ["setup_s"])
    return statistics.median(times), times


def pooled_pass(workload, seed, instances):
    """Each pair through `bench_puzzle` with its default pool.  Returns
    the run outcomes and, per pair, (pair, outer wall, workers)."""
    outs, calls = [], []
    for pair in workload.pairs:
        t0 = time.perf_counter()
        try:
            report = bench_puzzle(instances[pair.instance], pair.method,
                                  pair.gamma, pair.policy, runs=pair.runs,
                                  base_seed=wl.base_seed(seed))
        except Exception as exc:  # the whole call failed: every run did
            outs += [wl.RunOutcome(pair.label, wl.base_seed(seed) + i,
                                   "raised", -1, 0.0,
                                   error=f"{type(exc).__name__}: {exc}")
                     for i in range(pair.runs)]
            continue
        wall = time.perf_counter() - t0
        calls.append((pair, wall, resolve_workers(None, pair.runs)))
        outs += [wl.RunOutcome(pair.label, r.seed, r.outcome, r.iterations,
                               r.wall_ms / 1e3) for r in report.records]
    return outs, calls


def one_pass(workload, seed, instances, problems):
    t0 = time.perf_counter()
    if workload.pooled:
        outs, calls = pooled_pass(workload, seed, instances)
    else:
        outs = wl.serial_pass(workload, seed, instances, problems)
        calls = []
    return outs, calls, time.perf_counter() - t0


def check(workload, passes, reference):
    """Failed runs of every pass, with the reasons.  A run fails when it
    raised, contradicts the paper (see workloads.paper_violation and
    workloads.table_violations), or its (outcome, iterations) differs from
    the reference run of its seed."""
    pairs = {p.label: p for p in workload.pairs}
    ref = {(o.pair, o.seed): (o.outcome, o.iterations) for o in reference}
    failed, reasons = 0, []
    for outs in passes:
        in_table = {id(o): why for o, why in wl.table_violations(pairs, outs)}
        for o in outs:
            why = in_table.get(id(o)) or wl.paper_violation(pairs[o.pair], o)
            if why is None and ref.get((o.pair, o.seed)) != \
                    (o.outcome, o.iterations):
                why = (f"(outcome, iterations) = ({o.outcome}, "
                       f"{o.iterations}), reference "
                       f"{ref.get((o.pair, o.seed))}")
            if why is not None:
                failed += 1
                reasons.append(f"{o.pair} seed {o.seed}: {why}")
    return failed, reasons


def check_digest(workload, seed, reference):
    """At the default seed, (outcome, iterations) of every run must match
    the digest pinned in digest.json."""
    if seed != wl.DEFAULT_SEED:
        return
    pinned = json.loads(DIGEST_FILE.read_text())["workloads"][workload.name]
    got = wl.digest(reference)
    bad = sorted(k for k in set(pinned) | set(got)
                 if pinned.get(k) != got.get(k))
    if bad:
        raise DigestMismatch(
            f"{workload.name}: per-seed (outcome, iterations) differ from "
            f"the pinned digest for {bad}: pinned "
            f"{[pinned.get(k) for k in bad]}, got {[got.get(k) for k in bad]}")


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def end_to_end(passes, setup_s):
    """passes: list of (outs, wall).  Every timing is a median over passes
    of that pass's figure; counts come from the first pass (every pass
    runs the same seeds)."""
    first = passes[0][0]
    ok = [o for o in first if o.iterations >= 0]

    def over_passes(figure):
        return statistics.median(figure(outs, wall) for outs, wall in passes)

    def decile(outs, k):
        return statistics.quantiles([o.wall_s for o in outs], n=10)[k - 1]

    return {
        "runs_per_s": over_passes(lambda outs, wall: len(outs) / wall),
        "run_ms_p50": over_passes(lambda outs, _: decile(outs, 5)) * 1e3,
        "run_ms_p90": over_passes(lambda outs, _: decile(outs, 9)) * 1e3,
        "us_per_iter": over_passes(
            lambda outs, _: sum(o.wall_s for o in outs) * 1e6
            / max(1, sum(max(o.iterations, 0) for o in outs))),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "success_rate": sum(o.outcome == FEASIBLE for o in first)
        / len(first),
        "iterations_mean": sum(o.iterations for o in ok) / max(1, len(ok)),
    }


def pair_quantiles(workload, passes):
    """Per pair: p50 and p90 of its run walls in ms, over every pass."""
    table = {}
    for pair in workload.pairs:
        walls = [o.wall_s * 1e3 for outs, _ in passes for o in outs
                 if o.pair == pair.label]
        d = statistics.quantiles(walls, n=10)
        table[pair.label] = [round(d[4], 3), round(d[8], 3)]
    return table


def bench_layer(calls, outs, serial_wall):
    """bench.* around the timed calls: pooled pairs from their bench_puzzle
    calls, a serial workload from its pass."""
    run_sum = sum(o.wall_s for o in outs)
    if calls:
        wall = sum(w for _, w, _ in calls)
        capacity = sum(w * n for _, w, n in calls)
        overhead = sum(w - sum(o.wall_s for o in outs
                               if o.pair == p.label) / n
                       for p, w, n in calls)
        workers = max(n for _, _, n in calls)
    else:
        wall = capacity = serial_wall
        overhead = wall - run_sum
        workers = 1
    return {
        "bench.wall_s": wall, "bench.run_wall_sum_s": run_sum,
        "bench.workers": workers,
        "bench.pool_utilisation": run_sum / capacity,
        "bench.overhead_s": overhead,
    }


def per_layer(workload, counters, problems):
    """Aggregate the traced pass's counters.  Returns the metrics of
    BENCHMARK.json's per_layer list, and extras that exist on only some
    workloads (clue projections, snapshots, per-pair breakdowns)."""
    tot = collections.Counter()
    for _, _, spent in counters:
        tot.update(spent)
    runs = [(p, o, s) for p, o, s in counters if o is not None]
    proj_calls = tot["group_calls"] + tot["clue_calls"]
    proj_s = tot["group_s"] + tot["clue_s"]
    feasible = [(p, o) for p, o, _ in runs if o.outcome == FEASIBLE]
    layers = {
        "constraints.calls": int(proj_calls),
        "constraints.busy_s": proj_s,
        "constraints.group_us_per_call":
            tot["group_s"] * 1e6 / max(1, tot["group_calls"]),
        "puzzles.feasible_calls": int(tot["feasible_calls"]),
        "puzzles.feasible_busy_s": tot["feasible_s"],
        "puzzles.feasible_us_per_call":
            tot["feasible_s"] * 1e6 / max(1, tot["feasible_calls"]),
        "puzzles.feasible_hit_ratio":
            tot["feasible_true"] / max(1, tot["feasible_calls"]),
        "puzzles.build_s": tot["build_s"],
        "splitting.step_self_s": tot["step_s"] - proj_s,
        "splitting.loop_self_s":
            tot["run_s"] - tot["step_s"] - tot["feasible_s"],
        "splitting.iterations": sum(max(o.iterations, 0)
                                    for _, o, _ in runs),
        "splitting.snapshot_bytes": sum(
            wl.snapshot_bytes_per_iter(problems[p.instance]) * o.iterations
            for p, o, _ in runs if p.kind != "table" and o.iterations > 0),
        "splitting.floor_stop_share": _floor_share(feasible),
    }
    extras = {
        "splitting.set_reference_s": tot["set_reference_s"],
        "analysis.fit_s": tot["fit_s"],
        "analysis.termination_s": tot["termination_s"],
    }
    if tot["clue_calls"]:
        extras["constraints.clue_us_per_call"] = \
            tot["clue_s"] * 1e6 / tot["clue_calls"]
    for pair in workload.pairs:
        rows = [(o, s) for p, o, s in runs if p is pair]
        n = sum(max(o.iterations, 0) for o, _ in rows)
        extras[f"splitting.iterations.{pair.label}"] = n
        extras[f"splitting.us_per_iter.{pair.label}"] = \
            sum(s["run_s"] for _, s in rows) * 1e6 / max(1, n)
        extras[f"splitting.floor_stop_share.{pair.label}"] = _floor_share(
            [(pair, o) for o, _ in rows if o.outcome == FEASIBLE])
    return layers, extras


def _floor_share(feasible):
    """Share of feasible runs that stopped exactly at their min_iter."""
    return (sum(o.iterations == p.policy.min_iter for p, o in feasible)
            / max(1, len(feasible)))


def run_untraced(workload, seed, seconds, instances, problems):
    setup_s, setup_all = measure_setup(workload, seed)
    passes, t_start = [], time.perf_counter()
    while True:
        outs, _, wall = one_pass(workload, seed, instances, problems)
        passes.append((outs, wall))
        if time.perf_counter() - t_start + wall > seconds:
            break
    reference = passes[0][0]
    check_digest(workload, seed, reference)
    failed, reasons = check(workload, [o for o, _ in passes], reference)
    metrics = end_to_end(passes, setup_s)
    # printed, not gated: see "run_ms_p50" in README.md
    extras = {"run_ms_p50": metrics.pop("run_ms_p50")}
    info = {"passes": len(passes), "runs_per_pass": workload.runs,
            "setup_s_probes": setup_all,
            "pass_walls_s": [w for _, w in passes],
            "pair_run_ms_p50_p90": pair_quantiles(workload, passes)}
    return metrics, extras, failed, reasons, sum(len(o) for o, _ in passes), \
        info


def run_traced(workload, seed, instances, problems):
    ref_outs, calls, ref_wall = one_pass(workload, seed, instances, problems)
    tracer = Tracer()
    plain, traced, counters = traced_pass(workload, seed, instances,
                                          problems, tracer)
    check_digest(workload, seed, ref_outs)
    failed, reasons = check(workload, [ref_outs, plain, traced], ref_outs)
    layers, extras = per_layer(workload, counters, problems)
    layers.update(bench_layer(calls, ref_outs, ref_wall))
    untraced_s = sum(o.wall_s for o in plain)
    traced_s = sum(o.wall_s for o in traced)
    layers["trace.overhead_s"] = traced_s - untraced_s
    extras["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    extras["trace.untraced_run_wall_s"] = untraced_s
    extras["trace.traced_run_wall_s"] = traced_s
    info = {"spans": tracer.spans}
    attempted = len(ref_outs) + len(plain) + len(traced)
    return layers, extras, failed, reasons, attempted, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if Path(drsplit.__file__).resolve().parent != SRC / "drsplit":
        print(f"drsplit was imported from {drsplit.__file__}, not from "
              f"{SRC}; refusing to measure another copy", file=sys.stderr)
        return 2
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    workload = wl.WORKLOADS[args.workload]
    env = environment(workload)
    instances = wl.build_instances(workload, args.seed)
    problems = {k: wl.build_problem(v) for k, v in instances.items()}
    try:
        if args.trace:
            metrics, extras, failed, reasons, attempted, info = run_traced(
                workload, args.seed, instances, problems)
            units = PER_LAYER_UNITS
        else:
            metrics, extras, failed, reasons, attempted, info = \
                run_untraced(workload, args.seed, args.seconds, instances,
                             problems)
            units = END_TO_END_UNITS
    except DigestMismatch as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        return 3

    error_rate = failed / attempted
    print(f"workload={workload.name} seed={args.seed} trace={args.trace} "
          f"runs_per_pass={workload.runs}")
    print("environment " + json.dumps(env, sort_keys=True))
    for k, v in info.items():
        if k != "spans":
            print(f"info {k} {v}")
    for name, value in {**metrics, **extras}.items():
        unit = units.get(name) or _extra_unit(name)
        print(f"{name} {value!r} {unit}")
    print(f"error_rate {error_rate!r} ratio ({failed}/{attempted} runs)")
    for r in reasons[:20]:
        print(f"FAILED {r}")

    RESULTS_DIR.mkdir(exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "environment": env, "metrics": metrics, "extras": extras,
              "error_rate": error_rate, "failed_reasons": reasons,
              **info}
    out = RESULTS_DIR / (f"{workload.name}-seed{args.seed}"
                         f"-trace{args.trace}.json")
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record written to {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


def _extra_unit(name):
    if name.startswith("run_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if "us_per" in name:
        return "us"
    if "share" in name:
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
