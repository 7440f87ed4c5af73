"""Context and controller implementations of the parking management app.

``ParkingAvailabilityContext`` is the Figure 10 component: its Map phase
emits a pair per *free* space, its Reduce phase sums them, and its
periodic callback wraps the per-lot counts into ``Availability`` records.
``ParkingEntrancePanelController`` is Figure 11, filtering discovered
panels by their ``location`` attribute.
"""

from __future__ import annotations

import functools
from typing import Dict, List

from repro.api import Context, Controller, MapReduce


class ParkingAvailabilityContext(Context, MapReduce):
    """Tracks the number of available spaces per lot (Figures 8 and 10).

    Counting is written in combinable form — map emits ``1`` per free
    space and both combine and reduce sum — so the executors collapse
    each map chunk to one partial count per lot before the shuffle.
    At city scale that moves O(lots) pairs instead of O(sensors).
    """

    def map(self, parking_lot, presence, collector) -> None:
        if not presence:
            collector.emit_map(parking_lot, 1)

    def combine(self, parking_lot, counts, collector) -> None:
        collector.emit_combine(parking_lot, sum(counts))

    def reduce(self, parking_lot, counts, collector) -> None:
        collector.emit_reduce(parking_lot, sum(counts))

    def on_periodic_presence(self, free_by_lot: Dict[str, int], discover):
        # A fully occupied lot emits no Map pairs at all (Figure 10's map
        # only emits for free spaces), so it is absent from the reduced
        # dict; enumerate deployed lots through discovery and report zero.
        deployed_lots = discover.devices("PresenceSensor").distinct(
            "parkingLot"
        )
        return [
            {"parkingLot": lot, "count": free_by_lot.get(lot, 0)}
            for lot in sorted(deployed_lots)
        ]


class ParkingUsagePatternContext(Context):
    """Maintains usage patterns per lot; served on demand (``when required``).

    The hourly ``no publish`` interaction refreshes an exponentially
    weighted occupancy average per lot; queries classify it into
    HIGH / MODERATE / LOW.
    """

    HIGH_THRESHOLD = 0.7
    MODERATE_THRESHOLD = 0.4

    def __init__(self, smoothing: float = 0.3):
        super().__init__()
        if not 0 < smoothing <= 1:
            raise ValueError("smoothing must be within (0, 1]")
        self.smoothing = smoothing
        self.average_occupancy: Dict[str, float] = {}

    def on_periodic_presence(self, presence_by_lot, discover) -> None:
        for lot, readings in presence_by_lot.items():
            if not readings:
                continue
            occupancy = sum(1 for taken in readings if taken) / len(readings)
            previous = self.average_occupancy.get(lot)
            if previous is None:
                self.average_occupancy[lot] = occupancy
            else:
                self.average_occupancy[lot] = (
                    self.smoothing * occupancy
                    + (1 - self.smoothing) * previous
                )
        return None

    def when_required(self, discover) -> List[dict]:
        return [
            {"parkingLot": lot, "level": self.classify(average)}
            for lot, average in sorted(self.average_occupancy.items())
        ]

    def classify(self, average: float) -> str:
        if average >= self.HIGH_THRESHOLD:
            return "HIGH"
        if average >= self.MODERATE_THRESHOLD:
            return "MODERATE"
        return "LOW"


class AverageOccupancyContext(Context):
    """Publishes per-lot occupancy averaged over the 24-hour window."""

    def on_periodic_presence(self, window_by_lot, discover):
        occupancies = []
        for lot, readings in sorted(window_by_lot.items()):
            if not readings:
                continue
            occupancy = sum(1 for taken in readings if taken) / len(readings)
            occupancies.append({"parkingLot": lot, "occupancy": occupancy})
        return occupancies


class ParkingSuggestionContext(Context):
    """Combines availability with usage patterns into ranked suggestions.

    Preference order: most free spaces first, with low-usage lots favored
    over chronically crowded ones (the paper: availability "combined"
    with "usage patterns of parking lots").
    """

    LEVEL_PENALTY = {"LOW": 0, "MODERATE": 8, "HIGH": 20}

    def __init__(self, max_suggestions: int = 3):
        super().__init__()
        self.max_suggestions = max_suggestions

    def on_parking_availability(self, availabilities, discover):
        patterns = {
            pattern.parkingLot: pattern.level
            for pattern in discover.context_value("ParkingUsagePattern")
        }
        scored = []
        for availability in availabilities:
            if availability.count <= 0:
                continue
            penalty = self.LEVEL_PENALTY.get(
                patterns.get(availability.parkingLot, "LOW"), 0
            )
            scored.append(
                (availability.count - penalty, availability.parkingLot)
            )
        scored.sort(key=lambda pair: (-pair[0], pair[1]))
        return [lot for __, lot in scored[: self.max_suggestions]]


class ParkingEntrancePanelController(Controller):
    """Refreshes each lot's entrance panel (Figure 11)."""

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def format_status(count: int) -> str:
        # One string per count, however long a panel's history grows.
        return f"FREE: {count}" if count > 0 else "FULL"

    def on_parking_availability(self, availabilities, discover) -> None:
        for availability in availabilities:
            panels = discover.devices("ParkingEntrancePanel").where(
                location=availability.parkingLot
            )
            panels.act(
                "update", status=self.format_status(availability.count)
            )


class CityEntrancePanelController(Controller):
    """Displays ranked suggestions on the city-entrance panels."""

    def on_parking_suggestion(self, suggested_lots, discover) -> None:
        status = (
            "Parking: " + " > ".join(suggested_lots)
            if suggested_lots
            else "Parking: none available"
        )
        discover.devices("CityEntrancePanel").act("update", status=status)


class MessengerController(Controller):
    """Sends the daily occupancy report to management."""

    def on_average_occupancy(self, occupancies, discover) -> None:
        report = "; ".join(
            f"{occupancy.parkingLot}={occupancy.occupancy:.1%}"
            for occupancy in occupancies
        )
        discover.devices("Messenger").act(
            "sendMessage", message=f"24h occupancy: {report}"
        )


def default_implementations() -> Dict[str, object]:
    """Fresh instances of every component, keyed by declaration name."""
    return {
        "ParkingAvailability": ParkingAvailabilityContext(),
        "ParkingUsagePattern": ParkingUsagePatternContext(),
        "AverageOccupancy": AverageOccupancyContext(),
        "ParkingSuggestion": ParkingSuggestionContext(),
        "ParkingEntrancePanelController": ParkingEntrancePanelController(),
        "CityEntrancePanelController": CityEntrancePanelController(),
        "MessengerController": MessengerController(),
    }
