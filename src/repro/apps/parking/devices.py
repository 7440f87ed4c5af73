"""Simulated devices of the parking management application."""

from __future__ import annotations

from operator import methodcaller
from typing import List, Optional, Tuple

from repro.api import DeviceDriver
from repro.simulation.environment import ParkingLotEnvironment


class PresenceSensorDriver(DeviceDriver):
    """One in-ground presence sensor: a (lot, space) probe into the city.

    A sensor named for its probe as :func:`deploy_sensors` names it
    (:func:`sensor_id`) reads in one column with every such sensor of
    its environment: the environment is the batch key, and a column of
    entity ids decodes into runs of consecutive spaces.
    """

    # (entity ids, their runs): the column this driver read last.
    _column: Optional[Tuple[object, List[Tuple[str, int, int]]]] = None

    def __init__(
        self, environment: ParkingLotEnvironment, lot: str, space: int
    ):
        self.environment = environment
        self.lot = lot
        self.space = space

    def read_presence(self) -> bool:
        return self.environment.is_occupied(self.lot, self.space)

    def batch_key(self, source: str):
        instance = self.instance
        if (
            source == "presence"
            and instance is not None
            and instance.entity_id == sensor_id(self.lot, self.space)
        ):
            return self.environment
        return None

    def read_batch(self, entity_ids, source: str):
        if source != "presence":
            return NotImplemented
        column = self._column
        if column is None or column[0] is not entity_ids:
            # The runtime hands the same id column sweep after sweep.
            column = self._column = entity_ids, _runs_of(entity_ids)
        return self.environment.occupied_runs(column[1])


def sensor_id(lot: str, space: int) -> str:
    """The entity id of the presence sensor probing ``space`` of
    ``lot``."""
    return f"sensor-{lot}-{space:04d}"


def seat_of(entity_id: str) -> Tuple[str, int]:
    """The ``(lot, space)`` a :func:`sensor_id` names."""
    head, __, space = _split_space(entity_id)
    return head[len("sensor-") :], int(space)


_split_space = methodcaller("rpartition", "-")


def _runs_of(entity_ids) -> List[Tuple[str, int, int]]:
    """The ``(lot, start, stop)`` runs of consecutive spaces that read
    ``entity_ids`` (:func:`sensor_id` ids) in order."""
    runs: List[Tuple[str, int, int]] = []
    head = start = stop = None
    for seat, __, space in map(_split_space, entity_ids):
        space = int(space)
        if seat != head or space != stop:
            if head is not None:
                runs.append((head[len("sensor-") :], start, stop))
            head, start = seat, space
        stop = space + 1
    if head is not None:
        runs.append((head[len("sensor-") :], start, stop))
    return runs


class DisplayPanelDriver(DeviceDriver):
    """A display panel (parking-entrance or city-entrance variant).

    Remembers the update history so experiments can assert on what
    drivers actually saw.
    """

    def __init__(self):
        self.status: str = ""
        self.history: List[str] = []

    def do_update(self, status: str) -> None:
        self.status = status
        self.history.append(status)


class MessengerDriver(DeviceDriver):
    """Management messaging endpoint (daily occupancy reports)."""

    def __init__(self):
        self.messages: List[str] = []

    def do_send_message(self, message: str) -> None:
        self.messages.append(message)


def deploy_sensors(
    application,
    environment: ParkingLotEnvironment,
) -> List[Tuple[str, PresenceSensorDriver]]:
    """Bind one presence sensor per space of every lot, as one column.

    Returns ``(entity_id, driver)`` pairs in deployment order.
    """
    entity_ids: List[str] = []
    drivers: List[PresenceSensorDriver] = []
    lots: List[str] = []
    for lot, capacity in sorted(environment.lots.items()):
        for space in range(capacity):
            entity_ids.append(sensor_id(lot, space))
            drivers.append(PresenceSensorDriver(environment, lot, space))
        lots += [lot] * capacity
    application.bind_column(
        "PresenceSensor", entity_ids, drivers, parkingLot=lots
    )
    return list(zip(entity_ids, drivers))
