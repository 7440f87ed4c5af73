"""Running applications written against *generated* frameworks.

This is the paper's full workflow: design → compiler → framework →
developer subclasses → running application (Section V).
"""

import pytest

from repro.apps.cooker.design import DESIGN_SOURCE as COOKER
from repro.apps.parking.design import DESIGN_SOURCE as PARKING
from repro.codegen.framework_gen import compile_design
from repro.runtime.device import CallableDriver


@pytest.fixture(scope="module")
def cooker_module():
    return compile_design(COOKER, "CookerMonitoring")


@pytest.fixture(scope="module")
def parking_module():
    return compile_design(PARKING, "ParkingManagement")


class TestCookerViaGeneratedFramework:
    def test_full_chain(self, cooker_module):
        mod = cooker_module

        class Alert(mod.AbstractAlert):
            def __init__(self):
                super().__init__()
                self.on_seconds = 0

            def on_tick_second_from_clock(self, tick, discover):
                if self.get_consumption_from_cooker() > 0:
                    self.on_seconds += 1
                else:
                    self.on_seconds = 0
                if self.on_seconds == 3:
                    return mod.AlertValuePublishable(self.on_seconds)
                return None

        class Notify(mod.AbstractNotify):
            def on_alert(self, seconds, discover):
                self.do_ask_question_on_tv_prompter(
                    question=f"on for {seconds}s; turn off?",
                    question_id="q1",
                )

        class RemoteTurnOff(mod.AbstractRemoteTurnOff):
            def on_answer_from_tv_prompter(self, event, discover):
                if event.value == "yes":
                    return self.get_consumption_from_cooker() > 0
                return None

        class TurnOff(mod.AbstractTurnOff):
            def on_remote_turn_off(self, confirmed, discover):
                if confirmed:
                    self.do_off_on_cooker()

        class Prompter(mod.AbstractTVPrompterDriver):
            def __init__(self):
                self.questions = []

            def read_answer(self):
                return ""

            def do_ask_question(self, question, question_id):
                self.questions.append((question_id, question))

        class Cooker(mod.AbstractCookerDriver):
            def __init__(self):
                self.power = 1200.0

            def read_consumption(self):
                return self.power

            def do_on(self):
                self.power = 1200.0

            def do_off(self):
                self.power = 0.0

        framework = mod.CookerMonitoringFramework()
        framework.implement_alert(Alert())
        framework.implement_notify(Notify())
        framework.implement_remote_turn_off(RemoteTurnOff())
        framework.implement_turn_off(TurnOff())
        prompter = Prompter()
        cooker = Cooker()
        framework.create_tv_prompter("tv", prompter)
        framework.create_cooker("cooker", cooker)
        clock_instance = framework.create_clock(
            "clk", CallableDriver(sources={"tickSecond": lambda: 0})
        )
        framework.start()

        for tick in range(3):
            clock_instance.publish("tickSecond", tick)
        assert len(prompter.questions) == 1
        prompter.instance.publish("answer", "yes", index="q1")
        assert cooker.power == 0.0
        assert framework.stats["controller_activations"]["TurnOff"] == 1


class TestParkingViaGeneratedFramework:
    def test_mapreduce_pipeline(self, parking_module):
        mod = parking_module
        updates = []

        class Availability(mod.AbstractParkingAvailability):
            def map(self, lot, presence, collector):
                if not presence:
                    collector.emit_map(lot, True)

            def reduce(self, lot, values, collector):
                collector.emit_reduce(lot, len(values))

            def on_periodic_presence(self, by_lot, discover):
                return [
                    mod.Availability(lot, count)
                    for lot, count in sorted(by_lot.items())
                ]

        class PanelController(
            mod.AbstractParkingEntrancePanelController
        ):
            def on_parking_availability(self, availabilities, discover):
                for availability in availabilities:
                    self.do_update_on_parking_entrance_panel(
                        status=f"FREE: {availability.count}",
                        where={"location": availability.parkingLot},
                    )

        class Usage(mod.AbstractParkingUsagePattern):
            def on_periodic_presence(self, by_lot, discover):
                return None

            def when_required(self, discover):
                return []

        class Occupancy(mod.AbstractAverageOccupancy):
            def on_periodic_presence(self, window, discover):
                return []

        class Suggestion(mod.AbstractParkingSuggestion):
            def on_parking_availability(self, availabilities, discover):
                self.get_parking_usage_pattern()
                return [a.parkingLot for a in availabilities]

        class CityController(mod.AbstractCityEntrancePanelController):
            def on_parking_suggestion(self, lots, discover):
                pass

        class MessengerCtl(mod.AbstractMessengerController):
            def on_average_occupancy(self, occupancies, discover):
                pass

        framework = mod.ParkingManagementFramework()
        framework.implement_parking_availability(Availability())
        framework.implement_parking_usage_pattern(Usage())
        framework.implement_average_occupancy(Occupancy())
        framework.implement_parking_suggestion(Suggestion())
        framework.implement_parking_entrance_panel_controller(
            PanelController()
        )
        framework.implement_city_entrance_panel_controller(CityController())
        framework.implement_messenger_controller(MessengerCtl())

        for lot, free in [("A22", False), ("B16", True)]:
            framework.create_presence_sensor(
                f"s-{lot}",
                CallableDriver(sources={"presence": (lambda f=free: f)}),
                parking_lot=lot,
            )
            framework.create_parking_entrance_panel(
                f"p-{lot}",
                CallableDriver(
                    actions={
                        "update": (
                            lambda status, lot=lot: updates.append(
                                (lot, status)
                            )
                        )
                    }
                ),
                location=lot,
            )
        framework.create_messenger("m", CallableDriver())
        framework.start()
        framework.advance(600)

        assert ("A22", "FREE: 1") in updates
        # B16 is fully occupied: map emitted nothing for it, so it is
        # absent from the reduced dict and its panel never updates —
        # exactly the Figure 10 data flow.
        assert not any(lot == "B16" for lot, __ in updates)

    def test_query_helper(self, parking_module):
        mod = parking_module

        class Usage(mod.AbstractParkingUsagePattern):
            def on_periodic_presence(self, by_lot, discover):
                return None

            def when_required(self, discover):
                return [mod.UsagePattern("A22", "LOW")]

        framework = mod.ParkingManagementFramework()
        framework.implement_parking_usage_pattern(Usage())
        # other components still missing: start() must refuse
        with pytest.raises(Exception):
            framework.start()

    def test_cache_config_flows_through(self, parking_module):
        mod = parking_module
        from repro.api import CacheConfig, RuntimeConfig

        framework = mod.ParkingManagementFramework()
        assert framework.application.read_cache is None  # off by default
        cached = mod.ParkingManagementFramework(
            config=RuntimeConfig(
                cache=CacheConfig(enabled=True, ttl_seconds=5.0)
            )
        )
        assert cached.application.read_cache is not None
        assert cached.application.config.cache.ttl_seconds == 5.0

    def test_batch_config_flows_through(self, parking_module):
        mod = parking_module
        from repro.api import BatchConfig, RuntimeConfig

        framework = mod.ParkingManagementFramework()
        assert framework.application.config.batch.min_column == 2
        batched = mod.ParkingManagementFramework(
            config=RuntimeConfig(batch=BatchConfig(min_column=4))
        )
        assert batched.application.config.batch.min_column == 4

    def test_shard_config_flows_through(self, parking_module):
        mod = parking_module
        from repro.api import RuntimeConfig, ShardConfig

        framework = mod.ParkingManagementFramework()
        assert framework.application.config.shard.enabled is False
        assert framework.application.name == "ParkingManagement"
        sharded = mod.ParkingManagementFramework(
            config=RuntimeConfig(shard=ShardConfig(enabled=True, workers=2))
        )
        assert sharded.application.config.shard.enabled
        assert sharded.application.config.shard.workers == 2


EDGE_DESIGN = """\
device EdgeSensor {
    attribute cell as CellEnum;
    source presence as Boolean;
}
enumeration CellEnum { N1, N2 }

context CellCount as Integer at edge {
    when periodic presence from EdgeSensor <1 min>
    grouped by cell
    with map as Boolean reduce as Integer
    always publish;
}
"""


class TestPlacementThroughGeneratedFramework:
    def test_annotation_survives_embedding(self):
        mod = compile_design(EDGE_DESIGN, "EdgeCells")
        decl = mod.DESIGN.contexts["CellCount"].decl
        assert decl.placement == "edge"

    def test_generated_app_accepts_placement_kwargs(self):
        from repro.api import (
            HopProfile,
            NetworkConfig,
            PlacementConfig,
            RuntimeConfig,
        )

        mod = compile_design(EDGE_DESIGN, "EdgeCells")

        class CellCount(mod.AbstractCellCount):
            def map(self, cell, presence, collector):
                if presence:
                    collector.emit_map(cell, True)

            def reduce(self, cell, values, collector):
                collector.emit_reduce(cell, len(values))

            def on_periodic_presence(self, by_cell, discover):
                return sum(by_cell.values())

        framework = mod.EdgeCellsFramework(
            config=RuntimeConfig(
                network=NetworkConfig(
                    hops={"access": HopProfile(), "wan": HopProfile()}
                ),
                placement=PlacementConfig(enabled=True),
            )
        )
        framework.implement_cell_count(CellCount())
        for index in range(4):
            framework.create_edge_sensor(
                f"e-{index}",
                CallableDriver(sources={"presence": lambda: True}),
                cell=f"N{index % 2 + 1}",
            )
        framework.start()
        framework.advance(60.0)
        stats = framework.stats["placement"]
        assert stats["edge_sweeps"] == 1
        assert stats["edge_nodes"] == 2
