"""Per-layer metrics of the traced run: exact counts from the runtime's
own ``metrics`` / ``stats()`` / ``worker_stats()`` views, times from
the tracer's per-layer totals.

For the sharded workloads the layers that run inside worker processes
(driver, device, sweep, grouping, cohort plans, registry versions) are
invisible to the coordinator's wrappers, so their *times* come from the
single-process phase the traced run ends with (``local`` below); their
*counts* still come from the sharded phase through ``worker_stats()``.

A metric whose wrapper target no longer resolves reads ``MISSING``.
"""

from __future__ import annotations

from typing import Dict, Optional

from benchmarks.e2e.trace import ROOT_LAYER

MISSING = -1.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def snapshot(workload, workers_first: bool) -> Dict[str, float]:
    """Cumulative counts at this instant.

    ``worker_stats()`` is itself pipe traffic; asking the workers first
    before an interval and last after it keeps both exchanges out of the
    interval's ``shard.wire_bytes``."""
    app = workload.app
    families = app.metrics.snapshot()

    def total(name: str) -> float:
        return sum(families.get(name, {}).values())

    counts = {
        "driver.reads": total("device_reads_total"),
        "driver.batch_reads": total("sweep_batch_reads_total"),
        "sweep.sweeps": total("sweep_total"),
        "sweep.columnar": total("sweep_columnar_total"),
        "plan.cohort_compiles": total("cohort_plan_compiles_total"),
        "plan.hits": total("plan_hits_total"),
        "plan.compiles": total("plan_compiles_total"),
        "registry.version": app.registry.version,
        "registry.entities": len(app.registry),
        "cache.hits": total("read_cache_hits_total"),
        "cache.misses": total("read_cache_misses_total"),
        "cache.invalidations": total("read_cache_invalidations_total"),
        "mapreduce.mapped": total("mapreduce_mapped_total"),
        "mapreduce.shuffled": total("mapreduce_shuffled_total"),
        "mapreduce.reduced": total("mapreduce_reduced_total"),
        "bus.published": total("bus_published_total"),
        "bus.delivered": total("bus_delivered_total"),
        "faults.gather_errors": total("app_gather_errors_total"),
        "faults.component_errors": total("app_component_errors_total"),
    }
    runtime = getattr(workload, "runtime", None)
    if runtime is None or not runtime.sharded:
        return counts
    workers = runtime.worker_stats() if workers_first else None
    shard = runtime.stats()
    counts["shard.wire_bytes"] = shard["router"]["wire_bytes"]
    counts["shard.delta_rows"] = shard["delta_rows"]
    counts["shard.quiescent_rows"] = shard["quiescent_rows"]
    if workers is None:
        workers = runtime.worker_stats()
    caches = [worker["cache"] for worker in workers if worker["cache"]]
    for key in ("hits", "misses", "invalidations"):
        counts[f"cache.{key}"] = sum(cache[key] for cache in caches)
    swept = sum(worker["sweep"]["reads"] for worker in workers)
    counts["driver.reads"] = swept - counts["cache.hits"]
    counts["driver.batch_reads"] = sum(
        worker["sweep"]["batch_reads"] for worker in workers
    )
    counts["sweep.sweeps"] = sum(w["sweep"]["sweeps"] for w in workers)
    counts["sweep.columnar"] = sum(
        w["sweep"]["columnar_sweeps"] for w in workers
    )
    bound = [worker["bound_entities"] for worker in workers]
    counts["registry.entities"] = sum(bound)
    counts["shard.skew"] = _ratio(max(bound) * len(bound), sum(bound))
    counts["faults.gather_errors"] += sum(
        worker["gather_network_dropped"] + worker["gather_read_failed"]
        for worker in workers
    )
    return counts


def delta(before: Dict[str, float], after: Dict[str, float]):
    return {key: after[key] - before.get(key, 0) for key in after}


class Phase:
    """One traced phase: the tracer's totals plus the counts and call
    marks taken over its first ``count_ops`` operations."""

    def __init__(self, totals, counts, count_ops, calls, final):
        self.totals = totals
        self.counts = counts
        self.count_ops = count_ops
        self.calls = calls  # layer -> calls within the counted prefix
        self.final = final  # cumulative snapshot at the end of the phase

    def per_op(self, key: str) -> float:
        return _ratio(self.counts.get(key, 0), self.count_ops)

    def calls_per_op(self, layer: str) -> float:
        return _ratio(self.calls.get(layer, 0), self.count_ops)


def per_layer_metrics(
    tracer,
    compile_times: Dict[str, float],
    setup,
    ops: Phase,
    single_setup,
    single: Optional[Phase],
    timing: Dict[str, float],
) -> Dict[str, float]:
    local = single if single is not None else ops
    bind_phase = single_setup if single_setup is not None else setup

    def ms_per_op(phase: Phase, layer: str, self_time: bool) -> float:
        if not tracer.layer_installed(layer) and layer != ROOT_LAYER:
            return MISSING
        totals = phase.totals
        spent = totals.self_ns(layer) if self_time else totals.total_ns(layer)
        return _ratio(spent, totals.ops) / 1e6

    def per_call(totals, layer: str, scale: float) -> float:
        if not tracer.layer_installed(layer):
            return MISSING
        return _ratio(totals.total_ns(layer), totals.calls(layer)) / scale

    counts = ops.counts
    delta_rows = counts.get("shard.delta_rows", 0)
    quiescent = counts.get("shard.quiescent_rows", 0)
    lookups = counts["cache.hits"] + counts["cache.misses"]
    planned = local.counts["plan.hits"] + local.counts["plan.compiles"]
    single_p50 = timing.get("single_op_p50_ms", 0.0)
    traced_p50 = timing["traced_op_p50_ms"]
    return {
        "lang.parse_ms": compile_times["parse_ms"],
        "sema.analyze_ms": compile_times["analyze_ms"],
        "codegen.generate_ms": compile_times["generate_ms"],
        "codegen.generated_loc": compile_times["generated_loc"],
        "registry.bind_us_per_entity": per_call(
            bind_phase, "registry.bind", 1e3
        ),
        "registry.entities": ops.final["registry.entities"],
        "shard.spawn_s": per_call(setup, "shard.start", 1e9),
        "driver.read_ms_per_op": ms_per_op(local, "driver.read", False),
        "driver.reads_per_op": ops.per_op("driver.reads"),
        "driver.batch_reads_per_op": ops.per_op("driver.batch_reads"),
        "simulation.env_step_ms_per_op": ms_per_op(
            ops, "simulation.env_step", False
        ),
        "device.read_self_ms_per_op": ms_per_op(local, "device.read", True),
        "device.act_ms_per_op": ms_per_op(ops, "device.act", False),
        "device.acts_per_op": ops.calls_per_op("device.act"),
        "sweep.self_ms_per_op": ms_per_op(local, "sweep", True),
        "sweep.columnar_share": _ratio(
            counts["sweep.columnar"], counts["sweep.sweeps"]
        ),
        "plan.cohort_compiles_per_op": local.per_op("plan.cohort_compiles"),
        "plan.delivery_hit_ratio": _ratio(local.counts["plan.hits"], planned),
        "registry.version_bumps_per_op": local.per_op("registry.version"),
        "cache.hit_ratio": _ratio(counts["cache.hits"], lookups),
        "cache.lookups_per_op": _ratio(lookups, ops.count_ops),
        "cache.invalidations_per_op": ops.per_op("cache.invalidations"),
        "grouping.group_ms_per_op": ms_per_op(local, "grouping.group", True),
        "grouping.window_add_ms_per_op": ms_per_op(
            local, "grouping.window_add", True
        ),
        "mapreduce.run_ms_per_op": ms_per_op(ops, "mapreduce.run", False),
        "mapreduce.mapped_per_op": ops.per_op("mapreduce.mapped"),
        "mapreduce.shuffled_per_op": ops.per_op("mapreduce.shuffled"),
        "mapreduce.reduced_per_op": ops.per_op("mapreduce.reduced"),
        "bus.publish_self_ms_per_op": ms_per_op(ops, "bus.publish", True),
        "bus.published_per_op": ops.per_op("bus.published"),
        "bus.delivered_per_op": ops.per_op("bus.delivered"),
        "app.handler_ms_per_op": ms_per_op(ops, "app.handler", True),
        "proxies.discover_ms_per_op": ms_per_op(
            ops, "proxies.discover", True
        ),
        "registry.instances_of_ms_per_op": ms_per_op(
            ops, "registry.instances_of", True
        ),
        "app.self_ms_per_op": ms_per_op(ops, ROOT_LAYER, True),
        "shard.roundtrip_ms_per_op": ms_per_op(ops, "shard.roundtrip", False),
        "shard.merge_self_ms_per_op": ms_per_op(ops, "shard.merge", True),
        "shard.wire_bytes_per_op": ops.per_op("shard.wire_bytes"),
        "shard.delta_rows_per_op": ops.per_op("shard.delta_rows"),
        "shard.quiescent_rows_per_op": ops.per_op("shard.quiescent_rows"),
        "shard.delta_row_share": _ratio(delta_rows, delta_rows + quiescent),
        "shard.skew": ops.final.get("shard.skew", 0.0),
        "shard.rebind_ms_per_entity": per_call(
            ops.totals, "shard.rebind", 1e6
        ),
        "shard.speedup_vs_single": _ratio(single_p50, traced_p50),
        "shard.single_op_p50_ms": single_p50,
        "faults.gather_errors": ops.final["faults.gather_errors"],
        "faults.component_errors": ops.final["faults.component_errors"],
        "trace.overhead_ratio": _ratio(
            traced_p50, timing["untraced_op_p50_ms"]
        ),
        "trace.traced_op_p50_ms": traced_p50,
        "trace.untraced_op_p50_ms": timing["untraced_op_p50_ms"],
        "trace.residual_share": _ratio(
            ops.totals.self_ns(ROOT_LAYER), ops.totals.root_ns
        ),
        "trace.missing_targets": len(tracer.missing),
        "trace.unreconciled_ops": sum(
            phase.unreconciled for phase in tracer.phases.values()
        ),
        "op.readings_per_s": timing["readings_per_s"],
        "op.p50_ms": timing["untraced_op_p50_ms"],
        "op.p90_ms": timing["op_p90_ms"],
        "op.p99_ms": timing["op_p99_ms"],
        "op.samples": timing["op_samples"],
    }
