"""Adaptive tuning vs every fixed config under a flapping fault regime.

Reproduced shape: no single static configuration survives a fleet whose
failure mode *changes*.  The modeled gateway flips between two regimes —
**congestion** (every read carries +20 ms, so one batch RPC amortizes
the delay across the cohort) and **stragglers** (four members carry
+3 s, so a batch RPC inherits the worst member's delay — the
masked-straggler pathology pinned in ``tests/faults/test_chaos_batch.py``
— while scalar reads time the stragglers out, trip their breakers, and
fail fast behind stale-value delivery).  A low ``batch.min_column``
wins the first regime and loses the second; a high one the reverse.

The adaptive run closes the loop: a ``TuningController`` built beside
the started application, with the gateway's cumulative cost as its
objective, hill-climbs ``batch.min_column`` online through
``Application.apply_config``, re-batching in congestion and demoting to
scalar when stragglers appear.

Headline assertion: over the full flapping schedule the adaptive run's
p99 per-sweep modeled gather latency beats **every** fixed
``min_column x failure_threshold`` config in the grid, while delivering
the same number of full-cohort payloads.  This is the tuning
controller's only scenario until an end-to-end flapping-gateway
workload measures it on the wall clock.

Everything is deterministic: the fault schedule is a pure function of
the sweep index, the cost model is analytic (no wall-clock sleeps), and
the controller's policy has no random choice in it.
"""

from repro.api import (
    Application,
    BatchConfig,
    Context,
    DeviceDriver,
    RuntimeConfig,
    SimulationClock,
    StalePolicy,
    SupervisionPolicy,
    TuningController,
    analyze,
)
from repro.errors import DeviceUnavailableError

DEVICES = 60
PERIOD = 60.0
SWEEPS = 2_000
STRAGGLERS = frozenset(f"s-{index:03d}" for index in range(4))

# The flapping schedule, in sweep indices (sweep k fires at k * PERIOD).
CONGESTION_WINDOWS = ((250, 450), (1_200, 1_400))
STRAGGLER_WINDOWS = ((650, 850), (1_550, 1_750))
CONGESTION_LATENCY_S = 0.02  # every member, absorbed well by a batch
STRAGGLER_LATENCY_S = 3.0  # four members, poisons a whole batch
READ_TIMEOUT_S = 0.1  # scalar reads slower than this time out

# Analytic cost model, in modeled milliseconds of gather latency.
SCALAR_MS = 2.0  # one supervised per-device round-trip
BATCH_BASE_MS = 30.0  # one cohort RPC (plus the worst member's delay)
TIMEOUT_MS = 100.0  # a scalar read that hits READ_TIMEOUT_S
# Breaker-open reads never reach the gateway: they fail fast into
# stale-value delivery and cost ~0 in the model.

# The fixed grid the adaptive controller must beat.
FIXED_MIN_COLUMNS = (2, 8, 128)
FIXED_THRESHOLDS = (1, 3)
ADAPTIVE_THRESHOLD = 1
# The model is analytic and the controller is deterministic, so the
# headline numbers repeat exactly on every machine.
ADAPTIVE_P99_MS = 120.0
BEST_FIXED_P99_MS = 1320.0

DESIGN = analyze(
    """
    device PresenceSensor {
        source presence as Boolean;
    }

    context Count as Integer {
        when periodic presence from PresenceSensor <1 min>
        always publish;
    }
    """
)


def injected_latency(sweep_index, entity_id):
    """Modeled extra delay for one member at one sweep — the 'plan'."""
    for start, end in CONGESTION_WINDOWS:
        if start <= sweep_index < end:
            return CONGESTION_LATENCY_S
    if entity_id in STRAGGLERS:
        for start, end in STRAGGLER_WINDOWS:
            if start <= sweep_index < end:
                return STRAGGLER_LATENCY_S
    return 0.0


class CountImpl(Context):
    def __init__(self):
        super().__init__()
        self.sizes = []

    def on_periodic_presence(self, readings, discover):
        self.sizes.append(len(readings))
        return len(readings)


class Gateway:
    """Shared fleet transport with an analytic latency/cost model.

    ``cost`` accumulates modeled milliseconds of gather latency; the
    adaptive run hands it to the controller as its objective.
    """

    def __init__(self, clock):
        self.clock = clock
        self.truth = {}
        self.cost = 0.0
        self.scalar_reads = 0
        self.batch_reads = 0
        self.timeouts = 0

    def _sweep_index(self):
        return int(self.clock.now() // PERIOD + 0.5)

    def read_one(self, entity_id):
        index = self._sweep_index()
        delay = injected_latency(index, entity_id)
        if delay > READ_TIMEOUT_S:
            self.timeouts += 1
            self.cost += TIMEOUT_MS
            raise DeviceUnavailableError(
                f"modeled read timeout: '{entity_id}' at sweep {index}",
                entity_id=entity_id,
            )
        self.scalar_reads += 1
        self.cost += SCALAR_MS + delay * 1000.0
        return self.truth[entity_id]

    def read_many(self, entity_ids):
        index = self._sweep_index()
        worst = max(
            injected_latency(index, entity_id) for entity_id in entity_ids
        )
        self.batch_reads += 1
        self.cost += BATCH_BASE_MS + worst * 1000.0
        return [self.truth[entity_id] for entity_id in entity_ids]


class GatewayDriver(DeviceDriver):
    def __init__(self, gateway, entity_id):
        self.gateway = gateway
        self.entity_id = entity_id

    def read(self, source):
        return self.gateway.read_one(self.entity_id)

    def read_batch(self, entity_ids, source):
        return self.gateway.read_many(entity_ids)

    def batch_key(self, source):
        return self.gateway


def run_config(min_column, failure_threshold, adaptive=False):
    clock = SimulationClock()
    config = RuntimeConfig(
        clock=clock,
        batch=BatchConfig(enabled=True, min_column=min_column),
        supervision=SupervisionPolicy(
            max_retries=0,
            failure_threshold=failure_threshold,
            backoff_base_seconds=20_000.0,
            backoff_factor=1.0,
            backoff_max_seconds=20_000.0,
            jitter=0.0,
            quarantine_after=None,
        ),
        stale=StalePolicy(mode="last_known"),
    )
    app = Application(DESIGN, config)
    count = app.implement("Count", CountImpl())
    gateway = Gateway(clock)
    for index in range(DEVICES):
        entity_id = f"s-{index:03d}"
        gateway.truth[entity_id] = index % 3 == 0
        app.create_device(
            "PresenceSensor", entity_id, GatewayDriver(gateway, entity_id)
        )
    app.start()
    controller = None
    if adaptive:
        controller = TuningController(
            app,
            knobs=("batch.min_column",),
            objective=lambda: gateway.cost,
            interval_seconds=PERIOD,
        )
        controller.start()
    sweep_costs = []
    previous = 0.0
    for __ in range(SWEEPS):
        app.advance(PERIOD)
        sweep_costs.append(gateway.cost - previous)
        previous = gateway.cost
    report = None
    if controller is not None:
        report = controller.report()
        controller.stop()
    final_min_column = app.config.batch.min_column
    app.stop()
    ordered = sorted(sweep_costs)
    return {
        "min_column": min_column,
        "failure_threshold": failure_threshold,
        "adaptive": adaptive,
        "p99_ms": round(
            ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))], 3
        ),
        "mean_ms": round(sum(sweep_costs) / len(sweep_costs), 3),
        "total_cost_ms": round(gateway.cost, 3),
        "timeouts": gateway.timeouts,
        "full_payloads": sum(1 for size in count.sizes if size == DEVICES),
        "sweeps": len(count.sizes),
        "final_min_column": final_min_column,
        "tuning": report,
    }


def run_grid():
    fixed = [
        run_config(min_column, threshold)
        for min_column in FIXED_MIN_COLUMNS
        for threshold in FIXED_THRESHOLDS
    ]
    adaptive = run_config(2, ADAPTIVE_THRESHOLD, adaptive=True)
    return fixed, adaptive


def test_adaptive_beats_every_fixed_config(table, benchmark):
    fixed, adaptive = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    rows = [
        (
            f"fixed mc={run['min_column']} ft={run['failure_threshold']}",
            f"{run['p99_ms']:.1f}",
            f"{run['mean_ms']:.1f}",
            run["timeouts"],
            run["full_payloads"],
        )
        for run in fixed
    ]
    rows.append(
        (
            "adaptive",
            f"{adaptive['p99_ms']:.1f}",
            f"{adaptive['mean_ms']:.1f}",
            adaptive["timeouts"],
            adaptive["full_payloads"],
        )
    )
    table(
        f"Adaptive vs fixed: {DEVICES} devices, {SWEEPS} sweeps, "
        f"flapping congestion/straggler schedule",
        ("config", "p99 ms", "mean ms", "timeouts", "full payloads"),
        rows,
    )
    stats = adaptive["tuning"]["stats"]
    # Every sweep delivered a full cohort: stale-value delivery kept
    # payloads whole through breaker-open windows in every mode.
    for run in fixed + [adaptive]:
        assert run["sweeps"] == SWEEPS
        assert run["full_payloads"] == SWEEPS, run
    # The controller actually moved the knob, both ways.
    moved = stats["adjustments"]
    assert any(key.startswith("batch.min_column:up") for key in moved)
    assert any(key.startswith("batch.min_column:down") for key in moved)
    # Acceptance bar: adaptive beats EVERY fixed config on p99.
    for run in fixed:
        assert adaptive["p99_ms"] < run["p99_ms"], (
            f"adaptive p99 {adaptive['p99_ms']:.1f} ms did not beat "
            f"fixed mc={run['min_column']} ft={run['failure_threshold']} "
            f"({run['p99_ms']:.1f} ms)"
        )
    assert adaptive["p99_ms"] == ADAPTIVE_P99_MS
    assert min(run["p99_ms"] for run in fixed) == BEST_FIXED_P99_MS
