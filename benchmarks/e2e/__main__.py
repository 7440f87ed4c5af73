"""The whole set in one command::

    PYTHONPATH=src python -m benchmarks.e2e --seed S --out FILE

Runs every workload of ``BENCHMARK.json`` — ``--repeat`` end-to-end
runs (seeds ``S``, ``S+1``, ...) and one traced run (seed ``S``) each —
every run in a fresh subprocess through ``benchmarks/e2e/run.py``, and
writes all results to ``FILE`` for ``python -m benchmarks.e2e.compare``.
Exits non-zero when any run fails its output checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from benchmarks.e2e.spec import load_spec

RUN_PY = Path(__file__).with_name("run.py")


def run_once(workload: str, seed: int, trace: int, args) -> dict:
    command = [
        sys.executable, str(RUN_PY),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--scale", args.scale,
    ]
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "exit_code": done.returncode,
        "result": None,
    }
    try:
        record["result"] = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stderr)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    return record


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=spec.run_seconds)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    runs = []
    for workload in spec.workloads:
        for repeat in range(args.repeat):
            runs.append(run_once(workload, args.seed + repeat, 0, args))
        runs.append(run_once(workload, args.seed, 1, args))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(
            {"seed": args.seed, "seconds": args.seconds, "runs": runs},
            handle,
            indent=1,
        )
    bad = [
        run for run in runs
        if run["exit_code"] != 0
        or not run["result"]
        or not run["result"]["correct"]
    ]
    for run in bad:
        print(
            f"FAILED: {run['workload']} seed {run['seed']} "
            f"trace {run['trace']} (exit {run['exit_code']})"
        )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
