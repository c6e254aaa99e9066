"""Record the reference outputs the benchmark's checks compare against.

    python3 perfbench/reference.py --seeds 0-31

For each seed and batch workload, runs one operation and stores its
selected ``(A, B, beta)`` and test accuracy in ``perfbench/reference.json``.
A run on a recorded seed must reproduce them exactly; re-record only when
a change is meant to alter results, and say so where the change is
described.  ``serve`` needs no table: its reference is a serial engine
run on the same traffic, computed in every run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "perfbench" / "reference.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-31",
                        help="inclusive range, e.g. 0-31")
    parser.add_argument("--workloads", default="grid,train,descent")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.facts import refuse_repro_env
    from perfbench.workloads import WORKLOADS

    refuse_repro_env()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for name in args.workloads.split(","):
        workload = WORKLOADS[name]
        for seed in seeds:
            op = workload.op(workload.setup(seed))
            if op.failed:
                raise SystemExit(f"{name} seed {seed}: the operation failed")
            table.setdefault(name, {})[str(seed)] = workload.summary(op)
            print(name, seed, table[name][str(seed)], flush=True)
            REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True)
                                 + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
