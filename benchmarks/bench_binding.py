"""C4 — binding entities at different times (§IV).

Reproduced shape: registration cost is flat per entity (so configuration
vs deployment vs launch vs runtime binding differ in *when*, not *how
much*), runtime binding into a live application costs the same as static
binding, and discovery queries scale with registry size.
"""

import time

from repro.runtime.app import Application
from repro.runtime.binding import BindingTime, Deployment
from repro.runtime.component import Context
from repro.runtime.device import CallableDriver, DeviceInstance
from repro.sema.analyzer import analyze

DESIGN = """\
device Sensor {
    attribute zone as ZoneEnum;
    source reading as Float;
}
enumeration ZoneEnum { A, B, C, D }
context Sweep as Integer {
    when periodic reading from Sensor <10 min>
    always publish;
}
"""


class SweepImpl(Context):
    def on_periodic_reading(self, readings, discover):
        return len(readings)


def make_app():
    app = Application(analyze(DESIGN))
    app.implement("Sweep", SweepImpl())
    return app


def make_sensor(app, index):
    return DeviceInstance(
        app.design.devices["Sensor"],
        f"s{index}",
        CallableDriver(sources={"reading": lambda: 1.0}),
        {"zone": "ABCD"[index % 4]},
    )


def test_binding_time_equivalence(table, benchmark):
    """Bind 1000 sensors at each life-cycle phase; per-entity cost is the
    same order regardless of phase."""

    def run_phases():
        rows = []
        costs = {}
        for phase in (
            BindingTime.CONFIGURATION,
            BindingTime.DEPLOYMENT,
            BindingTime.LAUNCH,
            BindingTime.RUNTIME,
        ):
            app = make_app()
            deployment = Deployment(app)
            sensors = [make_sensor(app, i) for i in range(1000)]
            start = time.perf_counter()
            for sensor in sensors:
                deployment.stage(sensor, phase)
            if phase in (BindingTime.DEPLOYMENT, BindingTime.LAUNCH,
                         BindingTime.RUNTIME):
                deployment.deploy()
            deployment.launch()
            if phase is BindingTime.RUNTIME:
                deployment.bind_runtime()
            elapsed = time.perf_counter() - start
            costs[phase] = elapsed
            assert len(app.registry) == 1000
            rows.append(
                (phase.value, f"{elapsed * 1e3:.1f} ms",
                 f"{elapsed / 1000 * 1e6:.1f} us/entity")
            )
        return rows, costs

    rows, costs = benchmark.pedantic(run_phases, rounds=1, iterations=1)
    table(
        "C4: binding 1000 entities at each binding time",
        ("binding time", "total", "per entity"),
        rows,
    )
    fastest, slowest = min(costs.values()), max(costs.values())
    assert slowest < fastest * 10  # same order of magnitude


def test_bench_register_entity(benchmark):
    app = make_app()
    counter = iter(range(10 ** 9))

    def register():
        index = next(counter)
        app.create_device(
            "Sensor",
            f"bench-{index}",
            CallableDriver(sources={"reading": lambda: 1.0}),
            zone="A",
        )

    benchmark(register)


def test_bench_discovery_by_attribute(benchmark):
    app = make_app()
    for index in range(2000):
        app.bind_device(make_sensor(app, index))
    app.start()

    def query():
        return app.discover.devices("Sensor", zone="B")

    result = benchmark(query)
    assert len(result) == 500


def test_discovery_cost_vs_registry_size(table, benchmark):
    def run_series():
        rows = []
        costs = {}
        for size in (100, 1000, 4000):
            app = make_app()
            for index in range(size):
                app.bind_device(make_sensor(app, index))
            app.start()
            start = time.perf_counter()
            for __ in range(50):
                # A discovered set is lazy: using it runs the query.
                len(app.discover.devices("Sensor", zone="A"))
            elapsed = (time.perf_counter() - start) / 50
            costs[size] = elapsed
            rows.append((size, f"{elapsed * 1e6:.0f} us"))
        return rows, costs

    rows, costs = benchmark.pedantic(run_series, rounds=1, iterations=1)
    table(
        "C4: attribute-filtered discovery vs registry size",
        ("bound entities", "query time"),
        rows,
    )
    # Index-seeded: cost tracks the number of *matches* (a quarter of the
    # fleet here), not the registry size.
    assert costs[4000] > costs[100]
