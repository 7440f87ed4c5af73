"""End-to-end benchmark across the small-to-large continuum.

One harness, four workloads (``cooker_events``, ``parking_city``,
``fleet_sharded``, ``fleet_churn``), real wall clock, no modeled
latency.  ``BENCHMARK.json`` at the repository root is the contract;
``benchmarks/e2e/README.md`` explains every metric and workload.

Entry points::

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds N \
        --trace 0|1              # one workload, one JSON line
    python -m benchmarks.e2e --seed S --out FILE   # the whole set
    python -m benchmarks.e2e.compare A.json B.json # verdict per metric
"""
