"""Verdict per (end-to-end metric, workload) between two result sets::

    python -m benchmarks.e2e.compare A.json B.json

``A`` and ``B`` are files written by ``python -m benchmarks.e2e --out``.
One row per pair: ``ok``, ``regressed`` (B's median is worse than A's by
more than the metric's bound in ``BENCHMARK.json``) or ``unresolved``
(a side's own run-to-run spread is wider than the bound; needs four or
more runs per side, ``--repeat 4``).  The exact counts of the traced
runs must be identical when both sets used the same seed.

Exit code: 0 all ok, 1 something regressed or a count differs, 2
nothing regressed but something is unresolved.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Tuple

from benchmarks.e2e.spec import Spec, load_spec
from benchmarks.e2e.stats import verdict

# Counts that repeat bit for bit for a seed (they cover a fixed number
# of operations, whatever the machine's speed).
EXACT_COUNTS = (
    "driver.reads_per_op",
    "driver.batch_reads_per_op",
    "shard.wire_bytes_per_op",
    "shard.delta_rows_per_op",
    "shard.quiescent_rows_per_op",
    "cache.lookups_per_op",
    "mapreduce.mapped_per_op",
)


def load_runs(path: str) -> Tuple[int, List[dict]]:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return payload["seed"], [run for run in payload["runs"] if run["result"]]


def values_of(runs: List[dict], workload: str, trace: int, metric: str):
    return [
        run["result"]["metrics"][metric]["value"]
        for run in runs
        if run["workload"] == workload and run["trace"] == trace
    ]


def compare(spec: Spec, before_path: str, after_path: str) -> List[Dict]:
    before_seed, before = load_runs(before_path)
    after_seed, after = load_runs(after_path)
    rows: List[Dict] = []
    for workload in spec.workloads:
        for name, metric in spec.end_to_end.items():
            old = values_of(before, workload, 0, name)
            new = values_of(after, workload, 0, name)
            if not old or not new:
                rows.append(
                    {"workload": workload, "metric": name, "status": "missing"}
                )
                continue
            row = verdict(metric["better"], metric["bound"], old, new)
            rows.append({"workload": workload, "metric": name, **row})
        if before_seed != after_seed:
            continue
        for name in EXACT_COUNTS:
            old = values_of(before, workload, 1, name)
            new = values_of(after, workload, 1, name)
            if old and new:
                rows.append(
                    {
                        "workload": workload,
                        "metric": name,
                        "status": "ok" if old == new else "differs",
                        "before": old[0],
                        "after": new[0],
                    }
                )
    return rows


def exit_code(rows: List[Dict]) -> int:
    statuses = {row["status"] for row in rows}
    if statuses & {"regressed", "differs", "missing"}:
        return 1
    if "unresolved" in statuses:
        return 2
    return 0


def render(rows: List[Dict]) -> str:
    lines = [
        f"{'workload':15s} {'metric':28s} {'before':>14s} {'after':>14s} "
        f"{'worse by':>9s} {'spread':>7s} {'bound':>6s}  verdict"
    ]
    for row in rows:
        worse = row.get("worse_by")
        spread = row.get("spread")
        bound = row.get("bound")
        lines.append(
            f"{row['workload']:15s} {row['metric']:28s} "
            f"{row.get('before', float('nan')):14.6g} "
            f"{row.get('after', float('nan')):14.6g} "
            f"{'' if worse is None else format(worse, '+.1%'):>9s} "
            f"{'n/a' if spread is None else format(spread, '.1%'):>7s} "
            f"{'' if bound is None else format(bound, '.0%'):>6s}  "
            f"{row['status']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.compare")
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    rows = compare(load_spec(), args.before, args.after)
    print(render(rows))
    return exit_code(rows)


if __name__ == "__main__":
    sys.exit(main())
