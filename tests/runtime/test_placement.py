"""Edge/cloud placement tier: configs, node assignment, the edge split.

The load-bearing invariant mirrors the batch/cache/shard suites: a
context declared ``at edge`` changes *where* a grouped MapReduce
gather runs (map + map-side combine at the edge nodes) and *what
crosses the WAN* (per-group partials instead of raw readings), never
what the context receives — at zero loss the deliveries are
byte-identical to the same design without ``at edge`` for any fleet
size, edge-node count and shard setting.
"""

import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    Application,
    CallableDriver,
    Context,
    EdgeNode,
    HopProfile,
    NetworkConfig,
    PlacementConfig,
    PlacementError,
    RuntimeConfig,
    ShardBootstrap,
    ShardConfig,
    ShardedRuntime,
    Tier,
    analyze,
)
from repro.runtime.placement import PlacementExecutor, payload_nbytes
from repro.simulation.sensors import FleetSubstrate, SubstrateDriver

DESIGN = """\
device EdgePresence {
    attribute parkingLot as LotEnum;
    source presence as Boolean;
}
enumeration LotEnum { A22, B16, D6, E9 }

context FreeCount as Integer at edge {
    when periodic presence from EdgePresence <10 min>
    grouped by parkingLot
    with map as Boolean reduce as Integer
    always publish;
}
"""

# The cloud-only baseline: the same design with its context unplaced.
PLAIN = DESIGN.replace(" at edge", "")

LOTS = ("A22", "B16", "D6", "E9")
PERIOD = 600.0


class FreeCountImpl(Context):
    """Non-associative reduce (``len``) — exact only if the edge split
    re-sequences partials into the single-process emission order."""

    def __init__(self):
        super().__init__()
        self.deliveries = []

    def map(self, lot, presence, collector):
        if not presence:
            collector.emit_map(lot, True)

    def reduce(self, lot, values, collector):
        collector.emit_reduce(lot, len(values))

    def on_periodic_presence(self, by_lot, discover):
        self.deliveries.append(dict(by_lot))
        return sum(by_lot.values())


class CombiningFreeCountImpl(FreeCountImpl):
    """Associative variant with a map-side combiner: partial counts
    merge by addition, so edge combining shrinks the WAN payload."""

    def map(self, lot, presence, collector):
        if not presence:
            collector.emit_map(lot, 1)

    def combine(self, lot, values, collector):
        collector.emit_combine(lot, sum(values))

    def reduce(self, lot, values, collector):
        collector.emit_reduce(lot, sum(values))


TOPOLOGY = NetworkConfig(
    hops={
        "access": HopProfile(latency=0.0),
        "wan": HopProfile(latency=0.0),
    }
)


def build_app(
    placement=None,
    network=None,
    sensors=8,
    seed=11,
    implementation=FreeCountImpl,
    design=DESIGN,
):
    config = RuntimeConfig(
        network=network if network is not None else NetworkConfig(),
        placement=placement if placement is not None else PlacementConfig(),
    )
    app = Application(analyze(design), config)
    free = app.implement("FreeCount", implementation())
    substrate = FleetSubstrate(
        app.clock,
        seed=seed,
        models={"presence": lambda draw: draw < 0.5},
    )
    for index in range(sensors):
        app.create_device(
            "EdgePresence",
            f"s-{index:03d}",
            SubstrateDriver(substrate, sources=("presence",)),
            parkingLot=LOTS[index % len(LOTS)],
        )
    app.start()
    return app, free


class TestTier:
    def test_parse_names_and_instances(self):
        assert Tier.parse("edge") is Tier.EDGE
        assert Tier.parse(Tier.CLOUD) is Tier.CLOUD

    def test_parse_rejects_unknown(self):
        with pytest.raises(PlacementError, match="orbit"):
            Tier.parse("orbit")


class TestEdgeNode:
    def test_requires_node_id(self):
        with pytest.raises(PlacementError):
            EdgeNode("")

    def test_values_normalize_to_tuple(self):
        assert EdgeNode("n1", ["A22", "B16"]).values == ("A22", "B16")


class TestPlacementConfig:
    def test_defaults_declare_no_edge_nodes(self):
        config = PlacementConfig()
        assert config.edge_attribute is None
        assert config.edge_nodes == ()
        # Only the design's ``at edge`` annotation moves a context.
        executor = PlacementExecutor(config)
        unannotated = types.SimpleNamespace(placement=None)
        assert executor.tier_for(unannotated) is Tier.CLOUD

    def test_duplicate_node_ids_rejected(self):
        with pytest.raises(PlacementError, match="duplicate"):
            PlacementConfig(edge_nodes=(EdgeNode("n1"), EdgeNode("n1")))

    def test_value_owned_by_two_nodes_rejected(self):
        with pytest.raises(PlacementError, match="more than one"):
            PlacementConfig(
                edge_nodes=(EdgeNode("n1", ("A22",)), EdgeNode("n2", ("A22",)))
            )

    def test_runtime_config_field(self):
        config = RuntimeConfig(placement=PlacementConfig(edge_attribute="x"))
        assert config.placement.edge_attribute == "x"
        with pytest.raises(TypeError):
            RuntimeConfig(placement="edge")
        assert "PlacementConfig" in RuntimeConfig().describe()["placement"]


def entity(entity_id, **attributes):
    return types.SimpleNamespace(entity_id=entity_id, attributes=attributes)


class TestNodeResolution:
    def test_implicit_node_per_attribute_value(self):
        executor = PlacementExecutor(PlacementConfig())
        assert executor.node_for(entity("s1", parkingLot="A22"), "parkingLot")
        assert (
            executor.node_for(entity("s1", parkingLot="A22"), "parkingLot")
            == "A22"
        )

    def test_declared_node_owns_values(self):
        executor = PlacementExecutor(
            PlacementConfig(edge_nodes=(EdgeNode("cab-1", ("A22", "B16")),))
        )
        assert (
            executor.node_for(entity("s1", parkingLot="B16"), "parkingLot")
            == "cab-1"
        )

    def test_explicit_assignment_wins(self):
        executor = PlacementExecutor(
            PlacementConfig(
                edge_nodes=(EdgeNode("cab-1", ("A22",)), EdgeNode("cab-2")),
            )
        )
        executor.assign("s1", "cab-2")
        assert (
            executor.node_for(entity("s1", parkingLot="A22"), "parkingLot")
            == "cab-2"
        )

    def test_missing_attribute_raises(self):
        executor = PlacementExecutor(PlacementConfig())
        with pytest.raises(PlacementError, match="no attribute"):
            executor.node_for(entity("s1"), "parkingLot")

    def test_unowned_value_raises_when_nodes_declared(self):
        executor = PlacementExecutor(
            PlacementConfig(edge_nodes=(EdgeNode("n", ("A",)),))
        )
        with pytest.raises(PlacementError, match="no declared edge node"):
            executor.node_for(entity("s1", parkingLot="Z"), "parkingLot")

    def test_assign_unknown_node_raises(self):
        executor = PlacementExecutor(
            PlacementConfig(edge_nodes=(EdgeNode("n1"),))
        )
        with pytest.raises(PlacementError, match="unknown edge node"):
            executor.assign("s1", "ghost")

    def test_custom_edge_attribute_overrides_grouping(self):
        executor = PlacementExecutor(PlacementConfig(edge_attribute="cell"))
        probe = entity("s1", parkingLot="A22", cell="north")
        assert executor.node_for(probe, "parkingLot") == "north"

    def test_app_assign_requires_an_edge_context(self):
        app, __ = build_app(design=PLAIN)
        assert app.placement is None
        with pytest.raises(PlacementError, match="'at edge'"):
            app.assign_edge_node("s-000", "n1")


class TestEdgeSplit:
    def test_edge_deliveries_match_cloud_only(self):
        cloud_app, cloud = build_app(design=PLAIN)
        edge_app, edge = build_app(network=TOPOLOGY)
        cloud_app.advance(4 * PERIOD)
        edge_app.advance(4 * PERIOD)
        assert edge.deliveries == cloud.deliveries
        stats = edge_app.stats["placement"]
        assert stats["edge_sweeps"] == 4
        assert stats["partials_sent"] > 0
        assert stats["raw_readings"] == 0
        assert stats["edge_nodes"] == len(LOTS)

    def test_an_edge_context_builds_the_tier_under_the_default_config(self):
        app = Application(analyze(DESIGN), RuntimeConfig())
        free = app.implement("FreeCount", FreeCountImpl())
        app.create_device(
            "EdgePresence",
            "s-000",
            CallableDriver(sources={"presence": lambda: False}),
            parkingLot="A22",
        )
        app.start()
        app.advance(PERIOD)
        assert app.stats["placement"]["edge_sweeps"] > 0
        assert free.deliveries == [{"A22": 1}]

    def test_unannotated_context_defaults_to_cloud(self):
        # Beside the edge-placed FreeCount, an unplaced twin.
        mixed = DESIGN + PLAIN[PLAIN.index("context") :].replace(
            "FreeCount", "CloudCount"
        )
        app = Application(analyze(mixed), RuntimeConfig(network=TOPOLOGY))
        edge = app.implement("FreeCount", FreeCountImpl())
        cloud = app.implement("CloudCount", FreeCountImpl())
        app.create_device(
            "EdgePresence",
            "s-000",
            CallableDriver(sources={"presence": lambda: False}),
            parkingLot="A22",
        )
        app.start()
        app.advance(PERIOD)
        stats = app.stats["placement"]
        assert stats["edge_sweeps"] == 1
        assert stats["raw_readings"] == 1
        assert stats["partials_sent"] == 1
        assert stats["wan_bytes"] == payload_nbytes(False) + payload_nbytes(
            ("A22", True)
        )
        assert cloud.deliveries == edge.deliveries == [{"A22": 1}]

    def test_partials_cut_wan_bytes_with_combiner(self):
        sensors = 64
        app, free = build_app(
            network=TOPOLOGY,
            sensors=sensors,
            implementation=CombiningFreeCountImpl,
        )
        app.advance(2 * PERIOD)
        stats = app.stats["placement"]
        # The cloud-only shape would ship every raw boolean over the
        # WAN; the edge split ships at most one combined partial per
        # node per sweep — at least a 5x byte cut at 16 sensors per
        # node, and growing with the cohort.
        raw_bytes = sensors * 2 * payload_nbytes(True)
        assert stats["wan_bytes"] * 5 <= raw_bytes
        assert 0 < stats["partials_sent"] <= 2 * len(LOTS)
        assert free.deliveries  # still delivered

    def test_flat_network_still_accounts_bytes(self):
        # One link, neither an access nor a WAN hop: bytes are
        # accounted model-free.
        app, free = build_app(
            network=NetworkConfig(hops={"link": HopProfile()}),
        )
        app.advance(PERIOD)
        assert free.deliveries
        assert app.stats["placement"]["wan_bytes"] > 0

    def test_placement_metrics_registered(self):
        app, __ = build_app(network=TOPOLOGY)
        app.advance(PERIOD)
        assert app.metrics.value("placement_edge_sweeps_total") == 1
        assert app.metrics.value("placement_bytes_wan_total") > 0
        assert (
            app.metrics.value(
                "network_hop_bytes_total", hop="wan"
            )
            == app.stats["placement"]["wan_bytes"]
        )

    def test_explicit_nodes_group_lots(self):
        app, free = build_app(
            placement=PlacementConfig(
                edge_nodes=(
                    EdgeNode("north", ("A22", "B16")),
                    EdgeNode("south", ("D6", "E9")),
                ),
            ),
            network=TOPOLOGY,
        )
        app.advance(PERIOD)
        assert app.stats["placement"]["edge_nodes"] == 2
        (delivery,) = free.deliveries
        assert set(delivery) <= set(LOTS)


class TestWanLoss:
    def test_wan_loss_drops_partials_not_readings(self):
        lossy = NetworkConfig(
            hops={
                "access": HopProfile(),
                "wan": HopProfile(loss=0.8),
            },
            seed=5,
        )
        app, free = build_app(
            network=lossy,
            sensors=16,
        )
        app.advance(10 * PERIOD)
        stats = app.stats["placement"]
        assert stats["partials_dropped"] > 0
        assert stats["partials_sent"] > stats["partials_dropped"]
        # Reads never touched the WAN: no gather errors, every sweep
        # still delivered (possibly with fewer groups).
        assert app.stats["gather_errors"] == 0
        assert len(free.deliveries) == 10

    def test_zero_loss_wan_drops_nothing(self):
        app, __ = build_app(network=TOPOLOGY)
        app.advance(4 * PERIOD)
        assert app.stats["placement"]["partials_dropped"] == 0


# ---------------------------------------------------------------------------
# Property: ``at edge`` == unplaced, byte for byte
# ---------------------------------------------------------------------------


class PlacementBootstrap(ShardBootstrap):
    def __init__(self, sensors, seed, shard):
        self.sensors = sensors
        self.seed = seed
        self.shard = shard

    def fleet(self):
        return [f"s-{index:03d}" for index in range(self.sensors)]

    def build(self, ctx):
        config = RuntimeConfig(shard=self.shard, network=TOPOLOGY)
        app = Application(analyze(DESIGN), config)
        app.implement("FreeCount", FreeCountImpl())
        substrate = FleetSubstrate(
            app.clock,
            seed=self.seed,
            models={"presence": lambda draw: draw < 0.5},
        )
        for position, entity_id in enumerate(self.fleet()):
            if ctx.owns(entity_id):
                app.create_device(
                    "EdgePresence",
                    entity_id,
                    SubstrateDriver(substrate, sources=("presence",)),
                    parkingLot=LOTS[position % len(LOTS)],
                )
        return app


def run_sharded(sensors, seed, periods=3):
    bootstrap = PlacementBootstrap(
        sensors, seed, shard=ShardConfig(enabled=True, workers=2)
    )
    runtime = ShardedRuntime(bootstrap)
    runtime.start()
    try:
        runtime.advance(periods * PERIOD)
        return list(runtime.app.implementation("FreeCount").deliveries)
    finally:
        runtime.stop()


def edge_nodes_for(count):
    if count == 0:
        return ()
    return tuple(
        EdgeNode(
            f"node-{index}",
            tuple(LOTS[position]
                  for position in range(len(LOTS))
                  if position % count == index),
        )
        for index in range(count)
    )


class TestByteIdentity:
    @settings(max_examples=25, deadline=None)
    @given(
        sensors=st.integers(min_value=1, max_value=24),
        seed=st.integers(min_value=0, max_value=2**16),
        nodes=st.integers(min_value=0, max_value=3),
    )
    def test_edge_split_matches_cloud_only(self, sensors, seed, nodes):
        baseline_app, baseline = build_app(
            sensors=sensors, seed=seed, design=PLAIN
        )
        edge_app, edge = build_app(
            placement=PlacementConfig(edge_nodes=edge_nodes_for(nodes)),
            network=TOPOLOGY,
            sensors=sensors,
            seed=seed,
        )
        periods = 3
        baseline_app.advance(periods * PERIOD)
        edge_app.advance(periods * PERIOD)
        baseline_app.stop()
        edge_app.stop()
        assert edge.deliveries == baseline.deliveries
        assert edge_app.stats["placement"]["raw_readings"] == 0

    @settings(max_examples=4, deadline=None)
    @given(
        sensors=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_sharded_edge_split_matches_local(self, sensors, seed):
        local_app, local = build_app(
            network=TOPOLOGY,
            sensors=sensors,
            seed=seed,
        )
        local_app.advance(3 * PERIOD)
        sharded = run_sharded(sensors, seed)
        assert sharded == local.deliveries
