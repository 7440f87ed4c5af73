"""Framework generation: the compiler output matches Figures 9-11."""

import pytest

from repro.apps.cooker.design import DESIGN_SOURCE as COOKER
from repro.apps.parking.design import DESIGN_SOURCE as PARKING
from repro.codegen.framework_gen import compile_design, generate_framework


@pytest.fixture(scope="module")
def cooker_module():
    return compile_design(COOKER, "CookerMonitoring")


@pytest.fixture(scope="module")
def parking_module():
    return compile_design(PARKING, "ParkingManagement")


class TestGeneratedSource:
    def test_source_is_valid_python(self):
        source = generate_framework(COOKER, "CookerMonitoring")
        compile(source, "<test>", "exec")

    def test_design_embedded_and_reanalyzable(self, cooker_module):
        assert "Alert" in cooker_module.DESIGN.contexts
        assert "device Clock" in cooker_module.DESIGN_SOURCE

    def test_do_not_edit_marker(self):
        assert "DO NOT EDIT" in generate_framework(COOKER)


class TestFigure9Artifacts:
    """The generated Alert support matches Figure 9."""

    def test_abstract_alert_exists(self, cooker_module):
        assert hasattr(cooker_module, "AbstractAlert")

    def test_callback_signature(self, cooker_module):
        import inspect

        signature = inspect.signature(
            cooker_module.AbstractAlert.on_tick_second_from_clock
        )
        assert list(signature.parameters) == [
            "self",
            "tick_second_from_clock",
            "discover",
        ]

    def test_callback_raises_until_implemented(self, cooker_module):
        instance = cooker_module.AbstractAlert()
        with pytest.raises(NotImplementedError):
            instance.on_tick_second_from_clock(None, None)

    def test_publishable_alias(self, cooker_module):
        from repro.runtime.component import Publishable

        assert cooker_module.AlertValuePublishable is Publishable

    def test_get_helper_generated(self, cooker_module):
        assert hasattr(
            cooker_module.AbstractAlert, "get_consumption_from_cooker"
        )

    def test_metadata_attributes(self, cooker_module):
        assert cooker_module.AbstractAlert.CONTEXT_NAME == "Alert"
        assert cooker_module.AbstractAlert.RESULT_TYPE == "Integer"


class TestFigure10Artifacts:
    """The generated ParkingAvailability support matches Figure 10."""

    def test_mapreduce_interface_inherited(self, parking_module):
        from repro.mapreduce.api import MapReduce

        assert issubclass(
            parking_module.AbstractParkingAvailability, MapReduce
        )

    def test_map_reduce_abstract(self, parking_module):
        instance = parking_module.AbstractParkingAvailability()
        with pytest.raises(NotImplementedError):
            instance.map("A22", True, None)
        with pytest.raises(NotImplementedError):
            instance.reduce("A22", [True], None)

    def test_periodic_callback(self, parking_module):
        import inspect

        signature = inspect.signature(
            parking_module.AbstractParkingAvailability.on_periodic_presence
        )
        assert list(signature.parameters) == [
            "self",
            "presence_by_parking_lot",
            "discover",
        ]

    def test_structure_classes_generated(self, parking_module):
        availability = parking_module.Availability("A22", 3)
        assert availability.as_dict() == {"parkingLot": "A22", "count": 3}
        assert availability == parking_module.Availability("A22", 3)
        assert "A22" in repr(availability)

    def test_enumeration_classes_generated(self, parking_module):
        assert parking_module.ParkingLotEnum.A22 == "A22"
        assert "B16" in parking_module.ParkingLotEnum.MEMBERS
        assert parking_module.UsagePatternEnum.MEMBERS == (
            "HIGH", "MODERATE", "LOW",
        )


class TestFigure11Artifacts:
    """The generated controller support matches Figure 11."""

    def test_controller_callback(self, parking_module):
        controller = parking_module.AbstractParkingEntrancePanelController
        assert hasattr(controller, "on_parking_availability")

    def test_do_helper_generated(self, parking_module):
        controller = parking_module.AbstractParkingEntrancePanelController
        assert hasattr(controller, "do_update_on_parking_entrance_panel")

    def test_when_required_helper(self, parking_module):
        framework = parking_module.ParkingManagementFramework
        assert hasattr(framework, "query_parking_usage_pattern")


class TestDeviceDrivers:
    def test_driver_bases_generated(self, cooker_module):
        assert hasattr(cooker_module, "AbstractClockDriver")
        assert hasattr(cooker_module, "AbstractCookerDriver")

    def test_driver_inheritance_mirrors_device_extends(self, parking_module):
        assert issubclass(
            parking_module.AbstractParkingEntrancePanelDriver,
            parking_module.AbstractDisplayPanelDriver,
        )

    def test_reader_abstract(self, cooker_module):
        driver = cooker_module.AbstractCookerDriver()
        with pytest.raises(NotImplementedError):
            driver.read_consumption()

    def test_push_helper_for_indexed_source(self, cooker_module):
        import inspect

        signature = inspect.signature(
            cooker_module.AbstractTVPrompterDriver.push_answer
        )
        assert "question_id" in signature.parameters


class TestFrameworkConformance:
    def test_rejects_non_subclass(self, cooker_module):
        from repro.runtime.component import Context

        class Rogue(Context):
            def on_tick_second_from_clock(self, event, discover):
                return None

        framework = cooker_module.CookerMonitoringFramework()
        with pytest.raises(TypeError, match="AbstractAlert"):
            framework.implement("Alert", Rogue)

    def test_rejects_unknown_name(self, cooker_module):
        framework = cooker_module.CookerMonitoringFramework()
        with pytest.raises(TypeError, match="not a context"):
            framework.implement("Ghost", object)

    def test_accepts_subclass(self, cooker_module):
        class Alert(cooker_module.AbstractAlert):
            def on_tick_second_from_clock(self, event, discover):
                return None

        framework = cooker_module.CookerMonitoringFramework()
        assert framework.implement_alert(Alert()) is not None

    def test_named_implement_helpers_exist(self, parking_module):
        framework = parking_module.ParkingManagementFramework
        for name in (
            "implement_parking_availability",
            "implement_parking_suggestion",
            "implement_messenger_controller",
        ):
            assert hasattr(framework, name)

    def test_device_factories_take_snake_attributes(self, parking_module):
        import inspect

        factory = (
            parking_module.ParkingManagementFramework.create_presence_sensor
        )
        assert list(inspect.signature(factory).parameters) == [
            "self",
            "entity_id",
            "driver",
            "parking_lot",
        ]

    def test_column_factories_take_snake_attribute_columns(
        self, parking_module
    ):
        import inspect

        factory = (
            parking_module.ParkingManagementFramework.create_presence_sensors
        )
        assert list(inspect.signature(factory).parameters) == [
            "self",
            "entity_ids",
            "drivers",
            "parking_lot",
        ]


class TestModuleCompilation:
    def test_compile_design_returns_module(self, cooker_module):
        assert cooker_module.__source__.startswith('"""')

    def test_custom_module_name(self):
        module = compile_design(COOKER, "Foo", module_name="my_mod")
        assert module.__name__ == "my_mod"
