"""``parking_city``: the paper's parking design over 200 lots of 50
spaces, one ten-minute delivery per operation, default runtime config.

Each operation gathers 10 000 presence readings twice
(``ParkingAvailability`` through MapReduce, ``AverageOccupancy`` into
its six-hour window), every sixth also for ``ParkingUsagePattern``, and
actuates one entrance panel per lot plus the city panels.

The seed feeds :class:`ParkingLotEnvironment`; after every operation the
harness compares each entrance panel with the environment's own free
count for that lot, and each windowed occupancy report with the
occupancy it summed itself.
"""

from __future__ import annotations

from repro.api import analyze
from repro.apps.parking import (
    PAPER_ENTRANCES,
    ParkingEntrancePanelController,
    build_parking_app,
    make_design_source,
)
from repro.codegen import generate_framework
from repro.lang import parse

SPACES_PER_LOT = 50
LOTS = {"full": 200, "smoke": 10}
STEP_SECONDS = 600.0
WINDOW = "6 hr"
DELIVERIES_PER_WINDOW = 36
USAGE_EVERY = 6  # ParkingUsagePattern gathers hourly
WARMUP_OPS = 2


class ParkingCity:
    name = "parking_city"
    design_name = "ParkingManagement"
    setup_repeats = 3
    op_percentile = 25
    count_ops = 12  # operations the traced run's exact counts cover

    def __init__(self, seed: int, scale: str = "full"):
        self.seed = seed
        self.capacities = {
            f"L{index:03d}": SPACES_PER_LOT for index in range(LOTS[scale])
        }
        self.design_text = make_design_source(
            lots=tuple(sorted(self.capacities)),
            entrances=PAPER_ENTRANCES,
            occupancy_window=WINDOW,
        )
        self.handle = None
        self.ops = 0
        self.failed = 0
        self._deliveries = 0
        self._gathers = 0
        self._occupied = dict.fromkeys(self.capacities, 0)

    # -- life-cycle -----------------------------------------------------

    def setup(self) -> None:
        generate_framework(analyze(parse(self.design_text)), self.design_name)
        self.handle = build_parking_app(
            capacities=self.capacities,
            occupancy_window=WINDOW,
            environment_step_seconds=STEP_SECONDS,
            seed=self.seed,
        )
        self.app = self.handle.application
        for _ in range(WARMUP_OPS):
            self.op()
            self.after_op()
        self.ops = 0
        self._gathers_at_start = self._gathers

    def teardown(self) -> None:
        if self.handle is not None:
            self.app.stop()
            self.handle = None

    # -- the measured operation ----------------------------------------

    def op(self) -> None:
        self.app.advance(STEP_SECONDS)

    def after_op(self) -> None:
        self.ops += 1
        self._deliveries += 1
        self._gathers += 2 + (self._deliveries % USAGE_EVERY == 0)
        if not self._outputs_match():
            self.failed += 1

    def finish(self) -> int:
        return self.failed

    def readings(self) -> int:
        sensors = len(self.capacities) * SPACES_PER_LOT
        return sensors * (self._gathers - self._gathers_at_start)

    # -- output check ---------------------------------------------------

    def _outputs_match(self) -> bool:
        handle = self.handle
        environment = handle.environment
        status = ParkingEntrancePanelController.format_status
        ok = True
        for lot, panel in handle.entrance_panels.items():
            free = environment.free_count(lot)
            self._occupied[lot] += SPACES_PER_LOT - free
            if panel.status != status(free):
                ok = False
        for panel in handle.city_panels.values():
            if len(panel.history) != self._deliveries:
                ok = False
        windows, rest = divmod(self._deliveries, DELIVERIES_PER_WINDOW)
        if len(handle.messenger.messages) != windows:
            ok = False
        elif rest == 0:
            readings = DELIVERIES_PER_WINDOW * SPACES_PER_LOT
            report = "; ".join(
                f"{lot}={occupied / readings:.1%}"
                for lot, occupied in sorted(self._occupied.items())
            )
            if handle.messenger.messages[-1] != f"24h occupancy: {report}":
                ok = False
            self._occupied = dict.fromkeys(self.capacities, 0)
        stats = self.app.stats
        if (
            stats["gather_errors"]
            or stats["component_errors"]
            or stats["gather_sweeps"] != self._gathers
        ):
            ok = False
        return ok
