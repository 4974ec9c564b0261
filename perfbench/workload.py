"""Run one workload in this process and print its result as the last line.

``run.py`` starts this file in a fresh process with one BLAS thread and
``src`` on the import path; run it directly only to reproduce a setting
``run.py`` fixes (for example an unpinned BLAS)::

    PYTHONPATH=src python3 perfbench/workload.py --workload identify_mc \\
        --seed 1 --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import importlib
import os

from harness import emit, environment, result
from run import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    emit({"environment": environment(ROOT)})
    module = importlib.import_module(args.workload)
    attempted, failed, values, samples = module.run(
        args.seed, args.seconds, bool(args.trace)
    )
    emit({"summary": {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": samples,
        "failed_frac": failed / max(1, attempted),
        "raw_wall_s": values.get("raw_wall_s"),
    }})
    emit(result(attempted, failed, values, bool(args.trace)))


if __name__ == "__main__":
    main()
