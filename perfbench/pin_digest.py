"""Write digest.json: the per-seed (outcome, iterations) digest of every
workload at the default seed, taken on the serial path.  run.py refuses to
report numbers when a run at the default seed disagrees with it.  Re-pin
only when a change is meant to alter outcomes, and say so.

    python3 perfbench/pin_digest.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads as wl  # noqa: E402


def main():
    table = {}
    for name, workload in wl.WORKLOADS.items():
        instances = wl.build_instances(workload, wl.DEFAULT_SEED)
        problems = {k: wl.build_problem(v) for k, v in instances.items()}
        table[name] = wl.digest(wl.serial_pass(workload, wl.DEFAULT_SEED,
                                               instances, problems))
        print(name, json.dumps(table[name]), flush=True)
    (HERE / "digest.json").write_text(json.dumps(
        {"seed": wl.DEFAULT_SEED, "workloads": table}, indent=1) + "\n")


if __name__ == "__main__":
    main()
