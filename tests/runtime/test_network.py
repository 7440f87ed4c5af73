"""Network-conditions injection between devices and the application."""

import pytest

from repro.runtime.app import Application
from repro.runtime.clock import SimulationClock
from repro.runtime.config import RuntimeConfig
from repro.runtime.component import Context
from repro.runtime.device import CallableDriver
from repro.runtime.placement import NetworkConfig
from repro.sema.analyzer import analyze
from repro.simulation.network import (
    HopProfile,
    NetworkConditions,
    TopologyModel,
)

DESIGN = """\
device Sensor { source reading as Float; }
context Sink as Float {
    when provided reading from Sensor
    maybe publish;
}
context Sweep as Integer {
    when periodic reading from Sensor <1 min>
    always publish;
}
"""


class SinkImpl(Context):
    def __init__(self):
        super().__init__()
        self.received = []

    def on_reading_from_sensor(self, event, discover):
        self.received.append((event.timestamp, event.value))
        return None


class SweepImpl(Context):
    def __init__(self):
        super().__init__()
        self.sizes = []

    def on_periodic_reading(self, readings, discover):
        self.sizes.append(len(readings))
        return len(readings)


def build(network=None):
    config = (
        RuntimeConfig()
        if network is None
        else RuntimeConfig(network=network)
    )
    app = Application(analyze(DESIGN), config)
    sink = SinkImpl()
    sweep = SweepImpl()
    app.implement("Sink", sink)
    app.implement("Sweep", sweep)
    sensor = app.create_device(
        "Sensor", "s1", CallableDriver(sources={"reading": lambda: 1.0})
    )
    app.start()
    return app, sensor, sink, sweep


class TestNetworkConditionsModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkConditions(latency=-1)
        with pytest.raises(ValueError):
            NetworkConditions(loss=1.0)
        with pytest.raises(ValueError):
            NetworkConditions(latency=1.0, jitter=2.0)

    def test_zero_loss_never_drops(self):
        network = NetworkConditions(loss=0.0)
        assert all(network.sample_read_ok() for __ in range(100))

    def test_stats(self):
        network = NetworkConditions(loss=0.5, seed=1)
        clock = SimulationClock()
        for __ in range(200):
            network.transmit(clock, lambda: None)
        stats = network.stats()
        assert stats["delivered"] + stats["dropped"] == 200
        assert 0.3 < stats["loss_rate"] < 0.7


class TestNetworkConfig:
    def test_flat_config_builds_conditions(self):
        config = NetworkConfig(latency=2.0, jitter=0.5, loss=0.1, seed=4)
        model = config.build()
        assert isinstance(model, NetworkConditions)
        assert model.latency == 2.0
        assert model.loss == 0.1

    def test_empty_config_builds_nothing(self):
        assert NetworkConfig().build() is None
        assert not NetworkConfig().enabled

    def test_hops_build_topology(self):
        config = NetworkConfig(
            hops={"access": HopProfile(latency=0.1), "wan": HopProfile()}
        )
        model = config.build()
        assert isinstance(model, TopologyModel)
        assert model.hop_names == ("access", "wan")

    def test_hops_exclude_flat_parameters(self):
        with pytest.raises(ValueError):
            NetworkConfig(latency=1.0, hops={"wan": HopProfile()})

    def test_flat_parameters_validated_eagerly(self):
        with pytest.raises(ValueError):
            NetworkConfig(loss=1.5)


class TestTopologyModel:
    def test_transmit_sums_hop_latency(self):
        topology = TopologyModel(
            {"access": HopProfile(latency=2.0), "wan": HopProfile(latency=3.0)}
        )
        clock = SimulationClock()
        delivered = []
        topology.transmit(clock, lambda: delivered.append(clock.now()))
        clock.advance(5.0)
        assert delivered == [5.0]
        assert topology.delivered == 2  # one per hop

    def test_bandwidth_extends_transit_time(self):
        topology = TopologyModel(
            {"wan": HopProfile(latency=1.0, bandwidth=100.0)}
        )
        assert topology.transit_time(nbytes=200) == pytest.approx(3.0)

    def test_loss_on_any_hop_drops(self):
        topology = TopologyModel(
            {"access": HopProfile(), "wan": HopProfile(loss=0.9)}, seed=3
        )
        clock = SimulationClock()
        delivered = []
        for __ in range(100):
            topology.transmit(clock, lambda: delivered.append(1))
        clock.advance(1.0)
        assert len(delivered) < 50
        assert topology.dropped + len(delivered) == 100

    def test_byte_accounting_per_hop(self):
        topology = TopologyModel(
            {"access": HopProfile(), "wan": HopProfile()}
        )
        topology.account(None, nbytes=10)
        topology.account(("wan",), nbytes=5)
        hops = topology.stats()["hops"]
        assert hops["access"]["bytes"] == 10
        assert hops["wan"]["bytes"] == 15


class TestEventDeliveryThroughNetwork:
    def test_latency_delays_event(self):
        app, sensor, sink, __ = build(NetworkConfig(latency=5.0))
        sensor.publish("reading", 3.0)
        assert sink.received == []  # still in flight
        app.advance(5.0)
        assert sink.received == [(5.0, 3.0)]

    def test_loss_drops_events(self):
        app, sensor, sink, __ = build(NetworkConfig(loss=0.5, seed=3))
        for __ in range(100):
            sensor.publish("reading", 1.0)
        app.advance(1.0)
        assert 20 < len(sink.received) < 80
        assert app.network.dropped + len(sink.received) == 100

    def test_jitter_stays_within_bounds(self):
        network = NetworkConfig(latency=10.0, jitter=2.0, seed=9).build()
        delays = [network.sample_delay() for __ in range(200)]
        assert all(8.0 <= d <= 12.0 for d in delays)

    def test_no_network_is_synchronous(self):
        app, sensor, sink, __ = build(None)
        sensor.publish("reading", 1.0)
        assert len(sink.received) == 1

    def test_topology_delivery_crosses_every_hop(self):
        app, sensor, sink, __ = build(
            NetworkConfig(
                hops={
                    "access": HopProfile(latency=1.0),
                    "wan": HopProfile(latency=4.0),
                }
            )
        )
        sensor.publish("reading", 2.0)
        assert sink.received == []
        app.advance(5.0)
        assert sink.received == [(5.0, 2.0)]


class TestPolledReadsThroughNetwork:
    def test_lossy_reads_shrink_sweeps(self):
        app, __, __, sweep = build(
            NetworkConfig(loss=0.9, seed=5, apply_to_reads=True)
        )
        app.advance(60 * 50)
        assert len(sweep.sizes) == 50
        assert sum(sweep.sizes) < 50  # many polls lost
        assert app.stats["gather_errors"] > 0

    def test_reads_unaffected_by_default(self):
        app, __, __, sweep = build(NetworkConfig(loss=0.9, seed=5))
        app.advance(60 * 10)
        assert sweep.sizes == [1] * 10


class TestLegacyNetworkKwargs:
    """``network`` takes a ``NetworkConfig`` or ``None`` — nothing
    else."""

    def test_network_without_transmit_is_a_type_error(self):
        with pytest.raises(TypeError, match="NetworkConfig"):
            RuntimeConfig(network=42)

    def test_model_instance_on_config_is_a_type_error(self):
        with pytest.raises(TypeError, match="NetworkConfig"):
            RuntimeConfig(network=NetworkConditions(latency=5.0))
