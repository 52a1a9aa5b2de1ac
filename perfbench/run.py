#!/usr/bin/env python3
"""Benchmark of dualseed's exact solver and its neural warm start.

    python3 perfbench/run.py --workload dense-small --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The package is imported from src/ of that
checkout. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The full record of the run
(and, when traced, every span) is written to perfbench/out/.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def single_blas_thread():
    """One BLAS thread, like the solver; must run before numpy loads.

    Every stage then runs on one core, so no stage's time depends on whether
    another core of the machine happens to be free.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dualseed" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {ROOT / 'src' / 'dualseed'}", file=sys.stderr)
        return 2
    single_blas_thread()
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    record = harness.run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))

    OUT.mkdir(exist_ok=True)
    kind = "trace" if args.trace else "result"
    with open(OUT / f"{kind}-{args.workload}-seed{args.seed}.json", "w") as fh:
        json.dump(dict(record, workload=args.workload, seed=args.seed), fh)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
