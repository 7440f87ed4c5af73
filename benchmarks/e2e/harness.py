"""One workload, one process: set up, measure for ``--seconds``, check
the outputs, print every metric and a final JSON line.

Closed loop, one driving thread: the next operation starts when the
previous one has returned (the ``SimulationClock`` is synchronous; there
is no ingestion tier to drive open-loop).  An operation is one timed
``advance(step)`` — in ``fleet_churn`` preceded by its membership
change.  Warm-up operations run inside set-up and are not timed.

``--trace 0`` reports the end-to-end metrics and never imports the
tracer.  ``--trace 1`` sets up once with the wrappers installed, traces
the first part of the run, switches the wrappers off and measures the
rest untraced on the same instance (the difference is the tracing
overhead); the sharded workloads then run a few operations of the same
fleet in a single process, traced, as the baseline.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from array import array
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from benchmarks.e2e import stats
from benchmarks.e2e.cooker import CookerEvents
from benchmarks.e2e.fleet_workloads import FleetChurn, FleetSharded
from benchmarks.e2e.parking import ParkingCity
from benchmarks.e2e.spec import load_spec
from repro.api import analyze
from repro.codegen import generate_framework
from repro.lang import parse

# Share of --seconds the traced run spends with the wrappers on.
TRACED_SHARE = 0.6
COMPILE_REPEATS = 20


WORKLOADS = {
    factory.name: factory
    for factory in (CookerEvents, ParkingCity, FleetSharded, FleetChurn)
}


def make_workload(name: str, seed: int, scale: str, **options):
    return WORKLOADS[name](seed, scale, **options)


def run_ops(
    workload,
    seconds: float,
    max_ops: Optional[int],
    run_one: Optional[Callable[[Callable[[], None]], int]] = None,
    at_op: Optional[Tuple[int, Callable[[], None]]] = None,
) -> Tuple[Sequence[int], int, bool]:
    """The measured loop.  Returns per-operation durations (ns), the
    wall time of the whole window (ns) and whether an operation raised.

    ``run_one`` times one operation (the tracer's root span in the
    traced phase); ``at_op`` = ``(n, callback)`` runs ``callback``
    untimed once ``n`` operations are done."""
    clock = time.perf_counter_ns
    op = workload.op
    after_op = workload.after_op
    # array, not list: a quarter of a million int objects would show
    # up in peak_rss_mb in proportion to how fast the run went
    durations = array("q")
    append = durations.append
    raised = False
    begin = clock()
    deadline = begin + int(seconds * 1e9)
    while True:
        try:
            if run_one is None:
                start = clock()
                op()
                end = clock()
                append(end - start)
            else:
                append(run_one(op))
                end = clock()
        except Exception:  # noqa: BLE001 - a failed operation is a result
            traceback.print_exc(file=sys.stderr)
            raised = True
            break
        after_op()
        done = len(durations)
        if at_op is not None and done == at_op[0]:
            at_op[1]()
        if end >= deadline or (max_ops is not None and done >= max_ops):
            break
    return durations, clock() - begin, raised


def peak_rss_mib(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_setup(workload) -> float:
    start = time.perf_counter()
    workload.setup()
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# --trace 0
# ----------------------------------------------------------------------


def run_end_to_end(args) -> Dict[str, Any]:
    setups: List[float] = []
    workload = make_workload(args.workload, args.seed, args.scale)
    repeats = 1 if args.scale == "smoke" else workload.setup_repeats
    try:
        for attempt in range(repeats):
            if attempt:
                workload.teardown()
                workload = make_workload(args.workload, args.seed, args.scale)
                gc.collect()
            setups.append(timed_setup(workload))
        durations, _, raised = run_ops(workload, args.seconds, args.max_ops)
        # before the output checks allocate their own working set
        own_rss = peak_rss_mib(resource.RUSAGE_SELF)
        failed = workload.finish() + raised
    finally:
        workload.teardown()
    # Workers are reaped now.  RUSAGE_CHILDREN is the largest child,
    # not the sum: "this process plus its biggest worker".
    workers_rss = peak_rss_mib(resource.RUSAGE_CHILDREN)
    ordered = sorted(durations)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_ms": stats.percentile(ordered, workload.op_percentile) / 1e6,
        "peak_rss_mb": own_rss + workers_rss,
    }
    return result(len(durations), failed, metrics)


# ----------------------------------------------------------------------
# --trace 1
# ----------------------------------------------------------------------


def compile_times(workload) -> Dict[str, float]:
    """Median of ``COMPILE_REPEATS`` compiles of the workload's design
    text, stage by stage."""
    clock = time.perf_counter
    parse_s, analyze_s, generate_s = [], [], []
    source = ""
    for _ in range(COMPILE_REPEATS):
        t0 = clock()
        spec = parse(workload.design_text)
        t1 = clock()
        design = analyze(spec)
        t2 = clock()
        source = generate_framework(design, workload.design_name)
        t3 = clock()
        parse_s.append(t1 - t0)
        analyze_s.append(t2 - t1)
        generate_s.append(t3 - t2)
    return {
        "parse_ms": statistics.median(parse_s) * 1e3,
        "analyze_ms": statistics.median(analyze_s) * 1e3,
        "generate_ms": statistics.median(generate_s) * 1e3,
        "generated_loc": len(source.splitlines()),
    }


def traced_phase(tracer, workload, name, seconds, max_ops, count_ops):
    """Set ``workload`` up and run it under the tracer.  Returns the
    set-up totals, the :class:`Phase` of its operations, the durations
    and whether an operation raised."""
    from benchmarks.e2e import layers

    setup_totals = tracer.phase(f"{name}_setup")
    tracer.run_root(workload.setup, layer="setup")
    ops_totals = tracer.phase(f"{name}_ops")
    before = layers.snapshot(workload, workers_first=True)
    marked: Dict[str, Any] = {}

    def mark() -> None:
        after = layers.snapshot(workload, workers_first=False)
        marked["counts"] = layers.delta(before, after)
        marked["calls"] = {
            layer: totals[0] for layer, totals in ops_totals.layers.items()
        }
        marked["ops"] = ops_totals.ops

    durations, _, raised = run_ops(
        workload, seconds, max_ops, tracer.run_root, (count_ops, mark)
    )
    if not marked:  # fewer operations than the counted prefix
        mark()
    final = layers.snapshot(workload, workers_first=False)
    phase = layers.Phase(
        ops_totals, marked["counts"], marked["ops"], marked["calls"], final
    )
    return setup_totals, phase, durations, raised


def run_traced(args) -> Dict[str, Any]:
    from benchmarks.e2e import layers
    from benchmarks.e2e.trace import Tracer

    workload = make_workload(args.workload, args.seed, args.scale)
    compiled = compile_times(workload)
    tracer = Tracer()
    tracer.install()
    attempted = 0
    failed = 0
    single_setup = single = None
    timing: Dict[str, float] = {}
    max_ops = args.max_ops
    try:
        try:
            setup, ops, traced, raised = traced_phase(
                tracer,
                workload,
                "main",
                args.seconds * TRACED_SHARE,
                max_ops,
                workload.count_ops,
            )
            tracer.uninstall()
            readings_before = workload.readings()
            untraced, window_ns, raised_untraced = run_ops(
                workload, args.seconds * (1 - TRACED_SHARE), max_ops
            )
            timing["readings_per_s"] = (
                workload.readings() - readings_before
            ) / (window_ns / 1e9)
            attempted += len(traced) + len(untraced)
            failed += workload.finish() + raised + raised_untraced
        finally:
            workload.teardown()
        if getattr(workload, "single_ops", 0):
            tracer.install()
            baseline = make_workload(
                args.workload, args.seed, args.scale, workers=0
            )
            try:
                single_setup, single, single_ops, raised = traced_phase(
                    tracer,
                    baseline,
                    "single",
                    3600.0,  # ends on the operation count, not the clock
                    baseline.single_ops,
                    baseline.single_ops,
                )
                attempted += len(single_ops)
                failed += baseline.finish() + raised
            finally:
                baseline.teardown()
            timing["single_op_p50_ms"] = stats.median_ms(single_ops)
    finally:
        tracer.uninstall()
    ordered = sorted(untraced)
    timing["traced_op_p50_ms"] = stats.median_ms(traced)
    timing["untraced_op_p50_ms"] = stats.median_ms(untraced)
    timing["op_samples"] = len(ordered)
    for pct in (90, 99):
        tail = stats.supported_percentile(ordered, pct)
        timing[f"op_p{pct}_ms"] = 0.0 if tail is None else tail / 1e6
    if args.trace_out:
        tracer.dump(args.trace_out)
    for target in tracer.missing:
        print(f"trace: target not found: {target}", file=sys.stderr)
    metrics = layers.per_layer_metrics(
        tracer, compiled, setup, ops, single_setup, single, timing
    )
    return result(attempted, failed, metrics)


# ----------------------------------------------------------------------


def result(
    attempted: int, failed: int, metrics: Dict[str, float]
) -> Dict[str, Any]:
    failed = min(failed, max(attempted, 1))
    return {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py")
    parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS)
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="how long to measure (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "smoke"), default="full",
        help="smoke: the small fleets the tier-1 tests run",
    )
    parser.add_argument(
        "--max-ops", type=int, default=None,
        help="stop a measured phase after this many operations",
    )
    parser.add_argument(
        "--trace-out", default=None,
        help="write the recorded spans here (traced run only)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec.run_seconds
    outcome = run_traced(args) if args.trace else run_end_to_end(args)
    expected = spec.per_layer if args.trace else spec.end_to_end
    if set(outcome["metrics"]) != set(expected):
        raise SystemExit(
            "metrics out of step with BENCHMARK.json: "
            f"{sorted(set(outcome['metrics']) ^ set(expected))}"
        )
    outcome["metrics"] = {
        name: {"value": value, "unit": expected[name]["unit"]}
        for name, value in outcome["metrics"].items()
    }
    print(f"workload {args.workload} seed {args.seed} "
          f"ops {outcome['attempted']} failed_ops {outcome['failed']} "
          f"error_rate {outcome['failed'] / outcome['attempted']:.6f}")
    for name, metric in outcome["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1
