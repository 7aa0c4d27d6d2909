"""Traced pass of the drsplit benchmark.

Every layer is timed from outside, by wrapping the public callables the
run path uses: the entries of `Problem.projections`, the step that
`product_step` returns, `Problem.feasible`, and the problem builders.
Per-call timings are summed into per-run counters, so there is one span per
run, not one per 30-150 us call.  Spans (workload -> pair batch -> run)
stay in memory until the benchmark writes them out.
"""

import collections
import time

from drsplit.constraints import ClueProjection

from workloads import Probe, base_seed, build_problem, serial_run


class TracingProbe(Probe):
    """Probe that counts calls and sums busy time per layer for one run."""

    def __init__(self):
        self.spent = collections.defaultdict(float)

    def _timed(self, fn, key):
        spent = self.spent
        calls, busy = key + "_calls", key + "_s"
        clock = time.perf_counter

        def timed(*args):
            t0 = clock()
            out = fn(*args)
            spent[busy] += clock() - t0
            spent[calls] += 1
            return out
        return timed

    def build(self, instance):
        t0 = time.perf_counter()
        problem = build_problem(instance)
        self.spent["build_s"] += time.perf_counter() - t0
        return problem

    def blocks(self, projections):
        return [self._timed(p, "clue" if isinstance(p, ClueProjection)
                            else "group") for p in projections]

    def step(self, step):
        return self._timed(step, "step")

    def feasible(self, feasible):
        timed = self._timed(feasible, "feasible")
        spent = self.spent

        def counted(v):
            ok = timed(v)
            spent["feasible_true"] += bool(ok)
            return ok
        return counted


class Tracer:
    """Spans with a name, start and end (seconds since the tracer began),
    the id of the span that caused them, and free-form attributes."""

    def __init__(self):
        self._t0 = time.perf_counter()
        self.spans = []

    def open(self, name, parent=None, **attrs):
        span = {"id": len(self.spans), "parent": parent, "name": name,
                "start": time.perf_counter() - self._t0, "end": None,
                "attrs": attrs}
        self.spans.append(span)
        return span

    def close(self, span, **attrs):
        span["end"] = time.perf_counter() - self._t0
        span["attrs"].update(attrs)


def traced_pass(workload, seed, instances, problems, tracer):
    """The serial pass twice, run by run: each run once untraced and once
    with every layer wrapped, alternating which goes first so that drift in
    machine speed and cache warmth falls on both alike.  Returns the
    untraced outcomes, the traced outcomes, and (pair, outcome, counters)
    rows; a row with no outcome holds a pair's own problem build."""
    plain, traced, counters = [], [], []
    top = tracer.open("workload", workload=workload.name, seed=seed)
    for pair in workload.pairs:
        batch = tracer.open("batch", top["id"], pair=pair.label,
                            runs=pair.runs)
        # table runs rebuild their problem per run; the others share one
        # problem per pair, built here, as `drsplit rates` builds one
        builder = TracingProbe()
        problem = None if pair.kind == "table" else \
            builder.build(instances[pair.instance])
        for i in range(pair.runs):
            s = base_seed(seed) + i
            for traced_now in ((False, True) if i % 2 == 0 else (True, False)):
                if not traced_now:
                    plain.append(serial_run(pair, instances[pair.instance],
                                            problems[pair.instance], s))
                    continue
                span = tracer.open("run", batch["id"], pair=pair.label,
                                   seed=s)
                probe = TracingProbe()
                out = serial_run(pair, instances[pair.instance], problem, s,
                                 probe)
                tracer.close(span, outcome=out.outcome,
                             iterations=out.iterations, **probe.spent)
                traced.append(out)
                counters.append((pair, out, probe.spent))
        tracer.close(batch, **builder.spent)
        counters.append((pair, None, builder.spent))
    tracer.close(top)
    return plain, traced, counters
