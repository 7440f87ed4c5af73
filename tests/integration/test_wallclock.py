"""Real-time execution: the same application over a WallClock.

The simulation clock is the default for tests, but deployments run in
real time; this exercises the full stack (periodic gathering, event
dispatch, actuation) with threading.Timer-driven scheduling.  Timings
are kept loose to stay robust on slow CI machines.
"""

import threading
import time

from repro.runtime.app import Application
from repro.runtime.config import RuntimeConfig
from repro.runtime.clock import WallClock
from repro.runtime.component import Context, Controller
from repro.runtime.device import CallableDriver
from repro.sema.analyzer import analyze

DESIGN = """\
device Sensor { source reading as Float; }
device Horn { action honk(level as Integer); }

context Sweep as Float {
    when periodic reading from Sensor <20 ms>
    always publish;
}

controller K {
    when provided Sweep
    do honk on Horn;
}
"""


class SweepImpl(Context):
    def on_periodic_reading(self, readings, discover):
        return sum(reading.value for reading in readings)


class KImpl(Controller):
    def on_sweep(self, total, discover):
        discover.devices("Horn").act("honk", level=int(total))


def test_periodic_pipeline_under_wall_clock():
    clock = WallClock()
    app = Application(analyze(DESIGN), RuntimeConfig(clock=clock))
    app.implement("Sweep", SweepImpl())
    app.implement("K", KImpl())
    honks = []
    read_threads = []

    def reading():
        read_threads.append(threading.current_thread().name)
        return 2.0

    app.create_device(
        "Sensor", "s1", CallableDriver(sources={"reading": reading})
    )
    app.create_device(
        "Horn", "h1",
        CallableDriver(actions={"honk": lambda level: honks.append(level)}),
    )
    app.start()
    deadline = time.monotonic() + 5.0
    while len(honks) < 3 and time.monotonic() < deadline:
        time.sleep(0.01)
    app.stop()
    clock.shutdown()
    assert len(honks) >= 3
    assert all(level == 2 for level in honks)
    # A sweep reads on the thread its job fired on: there is no sweep
    # pool to hand the reads to.
    assert read_threads
    assert not [name for name in read_threads if name.startswith("sweep")]
    resting = len(honks)
    time.sleep(0.1)
    assert len(honks) == resting  # stop() really cancelled the schedule


def test_event_dispatch_under_wall_clock():
    clock = WallClock()
    app = Application(analyze(DESIGN), RuntimeConfig(clock=clock))
    app.implement("Sweep", SweepImpl())
    app.implement("K", KImpl())
    sensor = app.create_device(
        "Sensor", "s1", CallableDriver(sources={"reading": lambda: 1.0})
    )
    app.create_device(
        "Horn", "h1", CallableDriver(actions={"honk": lambda level: None})
    )
    app.start()
    # Event-driven delivery is synchronous regardless of the clock.
    before = app.stats["bus"]["published"]
    sensor.publish("reading", 5.0)
    assert app.stats["bus"]["published"] > before
    app.stop()
    clock.shutdown()
