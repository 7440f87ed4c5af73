"""Device proxies and proxy sets (Figure 11's discover idiom)."""

import pytest

from repro.errors import ActuationError, DiscoveryError
from repro.runtime.device import CallableDriver, DeviceInstance
from repro.runtime.proxies import ProxySet, make_proxy
from repro.sema.analyzer import analyze

DESIGN = """\
device ParkingEntrancePanel {
    attribute location as LotEnum;
    source brightness as Integer;
    action update(status as String);
}
enumeration LotEnum { A22, B16, D6 }
"""


@pytest.fixture
def design():
    return analyze(DESIGN)


def make_panel(design, entity_id, lot, log):
    return DeviceInstance(
        design.devices["ParkingEntrancePanel"],
        entity_id,
        CallableDriver(
            sources={"brightness": lambda: 80},
            actions={"update": lambda status: log.append((entity_id, status))},
        ),
        {"location": lot},
    )


class TestDeviceProxy:
    def test_identity(self, design):
        proxy = make_proxy(make_panel(design, "p1", "A22", []))
        assert proxy.entity_id == "p1"
        assert proxy.device_type == "ParkingEntrancePanel"

    def test_attribute_access_snake_case(self, design):
        proxy = make_proxy(make_panel(design, "p1", "A22", []))
        assert proxy.location == "A22"
        assert proxy.attributes == {"location": "A22"}

    def test_source_query_method(self, design):
        proxy = make_proxy(make_panel(design, "p1", "A22", []))
        assert proxy.brightness() == 80
        assert proxy.query("brightness") == 80

    def test_action_method(self, design):
        log = []
        proxy = make_proxy(make_panel(design, "p1", "A22", log))
        proxy.update(status="FULL")
        proxy.act("update", status="FREE: 3")
        assert log == [("p1", "FULL"), ("p1", "FREE: 3")]

    def test_unknown_facet_raises_attribute_error(self, design):
        proxy = make_proxy(make_panel(design, "p1", "A22", []))
        with pytest.raises(AttributeError):
            proxy.volume()

    def test_read_only(self, design):
        proxy = make_proxy(make_panel(design, "p1", "A22", []))
        with pytest.raises(AttributeError):
            proxy.location = "B16"

    def test_equality_by_instance(self, design):
        instance = make_panel(design, "p1", "A22", [])
        assert make_proxy(instance) == make_proxy(instance)
        other = make_panel(design, "p2", "A22", [])
        assert make_proxy(instance) != make_proxy(other)


class TestProxySet:
    @pytest.fixture
    def panels(self, design):
        self.log = []
        instances = [
            make_panel(design, "p1", "A22", self.log),
            make_panel(design, "p2", "B16", self.log),
            make_panel(design, "p3", "B16", self.log),
        ]
        return ProxySet("ParkingEntrancePanel", map(make_proxy, instances))

    def test_collection_protocol(self, panels):
        assert len(panels) == 3
        assert bool(panels)
        assert panels[0].entity_id == "p1"
        assert panels.entity_ids() == ["p1", "p2", "p3"]

    def test_where_filter(self, panels):
        assert panels.where(location="B16").entity_ids() == ["p2", "p3"]

    def test_where_rejects_an_unknown_attribute(self, panels):
        # A misspelt filter used to select nothing, silently.
        with pytest.raises(DiscoveryError, match="'locaton'.*location"):
            panels.where(locaton="B16")
        # Still checked on a set a filter has emptied.
        with pytest.raises(DiscoveryError, match="'locaton'"):
            panels.where(location="D6").where(locaton="B16")

    def test_where_compares_live_attributes_without_copying(self, panels):
        class NoCopy(dict):
            def __iter__(self):
                raise AssertionError("attribute dict copied per filter")

            keys = items = __iter__

        for proxy in panels:
            proxy.instance.attributes = NoCopy(proxy.instance.attributes)
        assert panels.where(location="B16").entity_ids() == ["p2", "p3"]

    def test_dynamic_where_method(self, panels):
        assert panels.where_location("A22").entity_ids() == ["p1"]

    def test_chained_filters(self, panels):
        assert panels.where_location("B16").where_location("A22").entity_ids() == []

    def test_one(self, panels):
        assert panels.where_location("A22").one().entity_id == "p1"

    def test_one_rejects_multiple(self, panels):
        with pytest.raises(DiscoveryError, match="exactly one"):
            panels.where_location("B16").one()

    def test_one_rejects_empty(self, panels):
        with pytest.raises(DiscoveryError):
            panels.where_location("D6").one()

    def test_first(self, panels):
        assert panels.first().entity_id == "p1"
        with pytest.raises(DiscoveryError):
            panels.where_location("D6").first()

    def test_broadcast_action(self, panels):
        results = panels.where_location("B16").update(status="FULL")
        assert set(results) == {"p2", "p3"}
        assert ("p2", "FULL") in self.log and ("p3", "FULL") in self.log

    def test_act_by_diaspec_name(self, panels):
        panels.act("update", status="X")
        assert len(self.log) == 3

    def test_act_on_empty_set_raises(self, panels):
        with pytest.raises(ActuationError, match="no "):
            panels.where_location("D6").act("update", status="X")

    def test_source_gather(self, panels):
        values = panels.brightness()
        assert values == {"p1": 80, "p2": 80, "p3": 80}

    def test_empty_set_dynamic_methods_raise(self, panels):
        empty = panels.where_location("D6")
        with pytest.raises(AttributeError):
            empty.update(status="X")

    def test_figure_11_idiom(self, design):
        """discover.parking_entrance_panels().where_location(lot)
        .update(status) — the exact call shape of Figure 11."""
        log = []
        panels = ProxySet(
            "ParkingEntrancePanel",
            map(make_proxy, [make_panel(design, "p1", "A22", log),
                             make_panel(design, "p2", "B16", log)]),
        )
        panels.where_location("A22").update(status="FREE: 12")
        assert log == [("p1", "FREE: 12")]
