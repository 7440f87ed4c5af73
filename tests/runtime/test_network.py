"""Network-conditions injection between devices and the application."""

import pytest

from repro.runtime.app import Application
from repro.runtime.clock import SimulationClock
from repro.runtime.config import RuntimeConfig
from repro.runtime.component import Context
from repro.runtime.device import CallableDriver
from repro.runtime.placement import NetworkConfig
from repro.sema.analyzer import analyze
from repro.simulation.network import HopProfile, TopologyModel
from repro.telemetry import MetricsRegistry

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


def single_link(seed=0, apply_to_reads=False, **profile):
    """A network of one link: a one-hop topology."""
    return NetworkConfig(
        hops={"link": HopProfile(**profile)},
        seed=seed,
        apply_to_reads=apply_to_reads,
    )


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
    """The conditions one link imposes, modeled as a one-hop topology."""

    def test_validation(self):
        with pytest.raises(ValueError):
            HopProfile(latency=-1)
        with pytest.raises(ValueError):
            HopProfile(loss=1.0)
        with pytest.raises(ValueError):
            HopProfile(latency=1.0, jitter=2.0)

    def test_zero_loss_never_drops(self):
        network = single_link(loss=0.0).build()
        assert all(network.sample_read_ok() for __ in range(100))

    def test_stats(self):
        network = single_link(loss=0.5, seed=1).build()
        clock = SimulationClock()
        for __ in range(200):
            network.transmit(clock, lambda: None)
        stats = network.stats()
        assert stats["delivered"] + stats["dropped"] == 200
        assert 0.3 < stats["dropped"] / 200 < 0.7


class TestNetworkConfig:
    def test_single_link_builds_one_hop_topology(self):
        config = single_link(latency=2.0, jitter=0.5, loss=0.1, seed=4)
        model = config.build()
        assert isinstance(model, TopologyModel)
        assert model.hop_names == ("link",)
        assert model.transit_time() == 2.0

    def test_empty_config_builds_nothing(self):
        assert NetworkConfig().build() is None
        assert NetworkConfig(apply_to_reads=True).build() is None

    def test_hops_build_topology(self):
        config = NetworkConfig(
            hops={"access": HopProfile(latency=0.1), "wan": HopProfile()}
        )
        model = config.build()
        assert isinstance(model, TopologyModel)
        assert model.hop_names == ("access", "wan")

    def test_duplicate_hop_rejected_at_construction(self):
        with pytest.raises(ValueError, match="duplicate hop 'a'"):
            NetworkConfig(
                hops=[("a", HopProfile()), ("a", HopProfile(loss=0.5))]
            )
        with pytest.raises(TypeError, match="HopProfile"):
            NetworkConfig(hops={"a": 0.5})


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
        assert topology.delivered == 1  # one message, end to end
        hops = topology.stats()["hops"]
        assert hops["access"]["delivered"] == 1
        assert hops["wan"]["delivered"] == 1

    def test_delivered_counts_messages_not_hops(self):
        topology = TopologyModel(
            {"access": HopProfile(), "wan": HopProfile()}
        )
        metrics = MetricsRegistry()
        topology.attach_metrics(metrics)
        clock = SimulationClock()
        for __ in range(3):
            topology.transmit(clock, lambda: None)
        assert topology.stats()["delivered"] == 3
        assert topology.send("wan") and topology.sample_read_ok()
        assert metrics.value("network_delivered_total") == 5
        assert metrics.value("network_hop_delivered_total", hop="wan") == 5
        assert (
            metrics.value("network_hop_delivered_total", hop="access") == 4
        )

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
        app, sensor, sink, __ = build(single_link(latency=5.0))
        sensor.publish("reading", 3.0)
        assert sink.received == []  # still in flight
        app.advance(5.0)
        assert sink.received == [(5.0, 3.0)]

    def test_loss_drops_events(self):
        app, sensor, sink, __ = build(single_link(loss=0.5, seed=3))
        for __ in range(100):
            sensor.publish("reading", 1.0)
        app.advance(1.0)
        assert 20 < len(sink.received) < 80
        assert app.network.dropped + len(sink.received) == 100

    def test_jitter_stays_within_bounds(self):
        network = single_link(latency=10.0, jitter=2.0, seed=9).build()
        clock = SimulationClock()
        delays = []  # every message leaves at t=0
        for __ in range(200):
            network.transmit(clock, lambda: delays.append(clock.now()))
        clock.advance(12.0)
        assert len(delays) == 200
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
            single_link(loss=0.9, seed=5, apply_to_reads=True)
        )
        app.advance(60 * 50)
        assert len(sweep.sizes) == 50
        assert sum(sweep.sizes) < 50  # many polls lost
        assert app.stats["gather_errors"] > 0

    def test_reads_unaffected_by_default(self):
        app, __, __, sweep = build(single_link(loss=0.9, seed=5))
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
            RuntimeConfig(network=single_link(latency=5.0).build())
