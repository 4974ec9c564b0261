"""The repository's benchmark: seeded Identify, Debug and Serve workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload identify_mc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload runs in a fresh process with one BLAS thread per process and
``src`` on the import path. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. See
README.md in this directory for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("identify_mc", "debug_pipeline", "serve_jobs")
#: A run must end within 180 s; leave room to stop the workload's processes.
TIME_LIMIT_S = 170.0
#: Pinned so a workload process and its two pool workers never oversubscribe
#: the cores.
PINNED_BLAS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> list[dict]:
    """Run one workload in its own process group; its JSON lines, in order."""
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, **PINNED_BLAS, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    command = [
        sys.executable, os.path.join(HERE, "workload.py"),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, __ = child.communicate(timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        stop_group(child)
        raise SystemExit(f"{name}: no result within {TIME_LIMIT_S:.0f} s")
    stop_group(child)
    if child.returncode != 0:
        raise SystemExit(f"{name}: workload exited with code {child.returncode}")
    return [json.loads(line) for line in out.splitlines() if line.startswith("{")]


def stop_group(child: subprocess.Popen) -> None:
    """Kill whatever the workload left in its process group, then reap it."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.wait()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def describe(name: str, lines: list[dict]) -> None:
    """Human-readable lines: environment, then each metric with its unit."""
    for line in lines[:-1]:
        print(json.dumps(line, sort_keys=True))
    summary = next(line["summary"] for line in lines if "summary" in line)
    outcome = lines[-1]
    print(f"{name}: samples={summary['samples']} "
          f"attempted={outcome['attempted']} failed={outcome['failed']} "
          f"failed_frac={summary['failed_frac']:.4g}")
    for metric, entry in outcome["metrics"].items():
        print(f"  {name:<15} {metric:<36} {entry['value']:>14.6g} {entry['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = {}
    for name in names:
        lines = run_workload(name, args.seed, args.seconds, args.trace)
        describe(name, lines)
        outcomes[name] = lines[-1]
    if len(names) == 1:
        final = outcomes[names[0]]
    else:
        final = {
            "correct": all(o["correct"] for o in outcomes.values()),
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "metrics": {
                f"{name}.{metric}": entry
                for name, outcome in outcomes.items()
                for metric, entry in outcome["metrics"].items()
            },
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
