import numpy as np
import pytest

import drsplit.bench
from drsplit.bench import BenchReport, bench_puzzle, resolve_workers
from drsplit.cli import main
from drsplit.puzzles import QueensInstance, build_problem, bundled_sudoku
from drsplit.splitting import StopPolicy, product_step, run

from helpers import read_bench_csv


class TestWorkerResolution:
    def test_env_caps_pool(self, monkeypatch):
        monkeypatch.setenv("DR_THREADS", "2")
        assert resolve_workers(None, runs=64) <= 2
        assert resolve_workers(8, runs=64) == 2

    def test_never_more_workers_than_runs(self, monkeypatch):
        monkeypatch.delenv("DR_THREADS", raising=False)
        assert resolve_workers(16, runs=3) == 3

    def test_bad_env_value_ignored(self, monkeypatch):
        monkeypatch.setenv("DR_THREADS", "zebra")
        assert resolve_workers(4, runs=8) == 4

    def test_negative_count_rejected(self, monkeypatch):
        monkeypatch.delenv("DR_THREADS", raising=False)
        with pytest.raises(ValueError, match="-3"):
            resolve_workers(-3, runs=8)
        assert resolve_workers(0, runs=8) == resolve_workers(None, runs=8)


class TestBench:
    def test_seeded_batch_is_deterministic(self):
        inst = QueensInstance(5)
        a = bench_puzzle(inst, "sdr", None, StopPolicy(), runs=6, base_seed=3,
                         workers=1)
        b = bench_puzzle(inst, "sdr", None, StopPolicy(), runs=6, base_seed=3,
                         workers=1)
        assert [r.outcome for r in a.records] == [r.outcome for r in b.records]
        assert [r.iterations for r in a.records] == [r.iterations
                                                     for r in b.records]

    def test_parallel_equals_serial(self):
        # 7 runs split unevenly: worker 0 steps 4 of them, worker 1 three
        for inst, runs in [(QueensInstance(5), 6), (QueensInstance(6), 7),
                           (bundled_sudoku("4x4"), 7)]:
            a = bench_puzzle(inst, "sdr", None, StopPolicy(), runs=runs,
                             base_seed=0, workers=1)
            b = bench_puzzle(inst, "sdr", None, StopPolicy(), runs=runs,
                             base_seed=0, workers=2)
            assert [(r.run_id, r.seed, r.outcome, r.iterations)
                    for r in a.records] == \
                   [(r.run_id, r.seed, r.outcome, r.iterations)
                    for r in b.records]
            assert [r.run_id for r in b.records] == list(range(runs))

    def test_batched_records_equal_single_runs(self):
        inst = QueensInstance(6)
        rep = bench_puzzle(inst, "sdr", None, StopPolicy(), runs=7,
                           base_seed=3, workers=1)
        prob = build_problem(inst)
        step = product_step(prob.projections, "sdr")
        want = []
        for seed in range(3, 10):
            res = run(step, prob.initial_state(seed), StopPolicy(),
                      feasible=prob.feasible)
            want.append((seed, res.outcome, res.iterations))
        assert [(r.seed, r.outcome, r.iterations) for r in rep.records] \
            == want

    def test_lowest_tie_batch_builds_one_problem_per_worker(self,
                                                           build_calls):
        bench_puzzle(QueensInstance(5), "sdr", None, StopPolicy(), runs=7,
                     base_seed=0, workers=1)
        assert build_calls == [("lowest", None)]

    def test_seeds_offset_from_base(self):
        inst = QueensInstance(4)
        rep = bench_puzzle(inst, "sdr", None, StopPolicy(), runs=4,
                           base_seed=10, workers=1)
        assert [r.seed for r in rep.records] == [10, 11, 12, 13]

    def test_damped_sudoku_never_succeeds(self):
        rep = bench_puzzle(bundled_sudoku("9x9-37"), "ddr", 0.2, StopPolicy(),
                           runs=5, base_seed=0, workers=1)
        assert rep.successes == 0
        assert rep.success_rate == 0.0

    def test_summary_and_stats(self):
        rep = bench_puzzle(QueensInstance(6), "sdr", None, StopPolicy(),
                           runs=5, base_seed=0, workers=1)
        text = rep.summary()
        assert "runs=5" in text
        assert "success_rate=" in text
        if rep.successes:
            iters = [r.iterations for r in rep.records
                     if r.outcome == "feasible-found"]
            assert rep.mean_iterations == float(np.mean(iters))
            assert rep.median_iterations == float(np.median(iters))

    def test_batch_wall_time_is_reported(self):
        for tie_break in ("lowest", "random"):
            rep = bench_puzzle(QueensInstance(5), "sdr", None, StopPolicy(),
                               runs=3, base_seed=0, workers=1,
                               tie_break=tie_break)
            assert all(r.wall_ms > 0 for r in rep.records)
            # a serial batch runs every record inside its own wall time
            assert rep.batch_wall_s >= \
                sum(r.wall_ms for r in rep.records) / 1e3
        text = rep.summary()
        assert text.endswith(f" batch_wall_s={rep.batch_wall_s:.2f}")
        assert "total_wall_s=" in text

    def test_csv_round_trip(self, tmp_path):
        rep = bench_puzzle(QueensInstance(5), "sdr", None, StopPolicy(),
                           runs=4, base_seed=2, workers=1)
        path = tmp_path / "bench.csv"
        rep.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "run_id,seed,outcome,iterations,wall_ms"
        assert len(lines) == 5
        back = read_bench_csv(path)
        assert isinstance(back, BenchReport)
        assert back.batch_wall_s is None
        assert "batch_wall_s" not in back.summary()
        assert "total_wall_s=" in back.summary()
        assert [(r.run_id, r.seed, r.outcome, r.iterations)
                for r in back.records] == \
               [(r.run_id, r.seed, r.outcome, r.iterations)
                for r in rep.records]



@pytest.fixture
def build_calls(monkeypatch):
    """(tie_break, tie_seed) of every problem bench builds, in order."""
    calls = []
    real = drsplit.bench.build_problem

    def spy(instance, tie_break="lowest", tie_seed=None):
        calls.append((tie_break, tie_seed))
        return real(instance, tie_break=tie_break, tie_seed=tie_seed)

    monkeypatch.setattr(drsplit.bench, "build_problem", spy)
    return calls


class TestBenchTieBreak:
    def test_cli_forwards_tie_break_and_run_seed(self, build_calls, capsys):
        assert main(["bench", "--queens-size", "5", "--runs", "3",
                     "--workers", "1", "--seed", "7",
                     "--tie-break", "random"]) == 0
        assert build_calls == [("random", 7), ("random", 8), ("random", 9)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_records_are_per_seed_runs(self, workers):
        inst = QueensInstance(6)
        policy = StopPolicy(max_iter=300)
        rep = bench_puzzle(inst, "sdr", None, policy, runs=5, base_seed=4,
                           workers=workers, tie_break="random")
        want = []
        for seed in range(4, 9):
            prob = build_problem(inst, "random", tie_seed=seed)
            res = run(product_step(prob.projections, "sdr"),
                      prob.initial_state(seed), policy,
                      feasible=prob.feasible)
            want.append((seed, res.outcome, res.iterations))
        assert [(r.seed, r.outcome, r.iterations) for r in rep.records] \
            == want
        assert [r.run_id for r in rep.records] == list(range(5))

    def test_config_tie_break_reaches_build_problem(self, build_calls,
                                                    tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("tie_break = random\nruns = 2\nworkers = 1\n")
        assert main(["bench", "--queens-size", "5", "--config",
                     str(cfg)]) == 0
        assert build_calls == [("random", 0), ("random", 1)]
