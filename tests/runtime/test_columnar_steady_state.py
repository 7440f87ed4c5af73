"""Scale-independence of a columnar worker poll, as a count.

Between the driver's ``read_batch`` and the reply that gets pickled, a
columnar poll takes no Python-level step per entity: the sweep cut, the
cohort read, the read cache, the group keys, the delta encoder are
column operations.  ``sys.setprofile`` counts Python calls over an
in-process :class:`_ShardWorker` at N and 4N entities, and the counts
must be the same number — whatever the fleet size, the runtime runs the
same frames.  Only code the application owns may scale: the ``map``
callback (one call per reading, and whatever it calls).  The driver's
``batch_key`` is asked once per bound entity: a membership change asks
only the entities it bound.  An in-process application groups through
the same key-column memo, so its steady-state period loads no member's
attribute record either.
"""

import gc
import sys
from collections import Counter

import pytest

from repro.api import (
    Application,
    CacheConfig,
    Context,
    DeviceDriver,
    RuntimeConfig,
    ShardBootstrap,
    ShardContext,
    analyze,
)
from repro.mapreduce.engine import rank_groups
from repro.runtime.device import DeviceInstance
from repro.runtime.shard.worker import _ShardWorker

DESIGN = """\
device Probe {
    attribute zone as ZoneEnum;
    source level as Integer;
}
enumeration ZoneEnum { Z0, Z1, Z2 }

context Levels as Integer {
    when periodic level from Probe <1 min>
    grouped by zone
    always publish;
}

context Load as Integer {
    when periodic level from Probe <1 min>
    grouped by zone
    with map as Integer reduce as Integer
    always publish;
}
"""
ZONES = ("Z0", "Z1", "Z2")
PERIOD = 60.0


class Field:
    """What every probe of one process reads from (the cohort key)."""


class ColumnDriver(DeviceDriver):
    """A batch-capable driver whose column read is itself a column
    operation, so nothing the driver does hides in the count."""

    def __init__(self, field):
        self.field = field

    def read(self, source):
        return 1

    def read_batch(self, entity_ids, source):
        return [1] * len(entity_ids)

    def batch_key(self, source):
        return self.field


class LevelsImpl(Context):
    def on_periodic_level(self, by_zone, discover):
        return sum(map(sum, by_zone.values()))


class LoadImpl(Context):
    def map(self, zone, level, collector):
        collector.emit_map(zone, level)

    def reduce(self, zone, values, collector):
        collector.emit_reduce(zone, sum(values))

    def on_periodic_level(self, by_zone, discover):
        return sum(by_zone.values())


class ProbeBootstrap(ShardBootstrap):
    def __init__(self, count):
        self.count = count
        self.field = Field()

    def fleet(self):
        return [f"probe-{index:05d}" for index in range(self.count)]

    def build(self, ctx):
        app = Application(
            analyze(DESIGN),
            RuntimeConfig(cache=CacheConfig(enabled=True, ttl_seconds=1.0)),
        )
        app.implement("Levels", LevelsImpl())
        app.implement("Load", LoadImpl())
        for position, entity_id in enumerate(self.fleet()):
            if ctx.owns(entity_id):
                self.bind_entity(app, entity_id, position)
        return app

    def bind_entity(self, app, entity_id, position):
        app.create_device(
            "Probe",
            entity_id,
            ColumnDriver(self.field),
            zone=ZONES[position % len(ZONES)],
        )


MAP_CODE = LoadImpl.map.__code__
BATCH_KEY_CODE = ColumnDriver.batch_key.__code__


def python_calls(run):
    """Python-level calls made by ``run()``, by who owns them: the
    driver's ``batch_key``, the ``map`` callback (with everything it
    calls), or the runtime."""
    calls = Counter()
    inside_map = 0

    def profiler(frame, event, arg):
        nonlocal inside_map
        code = frame.f_code
        if event == "call":
            if inside_map or code is MAP_CODE:
                calls["map"] += 1
            elif code is BATCH_KEY_CODE:
                calls["batch_key"] += 1
            else:
                calls["runtime"] += 1
            inside_map += code is MAP_CODE
        elif event == "return":
            inside_map -= code is MAP_CODE

    # A collection would run whatever ``gc.callbacks`` other suites
    # installed, inside the counted region.
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls


class Fleet:
    """An in-process worker over ``count`` probes, driven the way the
    coordinator drives it: per period one grouped poll (a cache miss:
    the cohorts read and store) and one MapReduce poll over the same
    source (cache hits) with its map round."""

    def __init__(self, count, bootstrap=ProbeBootstrap):
        self.count = count
        self.bootstrap = bootstrap(count)
        self.worker = _ShardWorker(
            self.bootstrap, ShardContext(shards=1, index=0)
        )
        self.now = 0.0
        self.replies = []

    def period(self):
        worker = self.worker
        self.now += PERIOD
        worker.clock.run_until(self.now)
        levels = worker._cmd_poll("Levels", 0)
        load = worker._cmd_poll("Load", 0)
        ranks = rank_groups(load["keys"].items())
        mapped = worker._cmd_map("Load", 0, ranks)
        self.replies.append((levels, load, mapped))

    def churn(self):
        """One unbind and one bind: the registry version moves twice,
        so the cut and the delta epoch start over, and the cohort plans
        and the worker's column memo are patched."""
        self.worker._cmd_unbind("probe-00001")
        self.worker._cmd_bind(f"probe-{self.count:05d}", self.count)


@pytest.fixture(scope="module")
def fleets():
    built = [Fleet(300), Fleet(1200)]
    for fleet in built:
        fleet.period()  # registers everything, compiles every memo
        fleet.period()
    return built


def test_a_steady_state_period_runs_the_same_frames_at_any_size(fleets):
    small, large = (python_calls(fleet.period) for fleet in fleets)
    for fleet in fleets:
        levels, load, mapped = fleet.replies[-1]
        # the period did the work it is counted for
        assert levels["quiescent"] == fleet.count and "register" not in levels
        assert load["kind"] == "mapreduce" and len(load["keys"]) == 3
        assert mapped["mapped"] == fleet.count
        stats = fleet.worker.app.stats
        assert stats["read_cache"]["hits"] == stats["read_cache"]["misses"]
        assert stats["sweep"]["batch_demoted"] == 0
    assert small["batch_key"] == large["batch_key"] == 0
    assert small["runtime"] == large["runtime"]
    # one map call and one emit per reading: the application's own
    assert small["map"] == 2 * 300 and large["map"] == 2 * 1200


def test_a_membership_change_costs_frames_only_in_application_code(fleets):
    for fleet in fleets:
        fleet.churn()
    small, large = (python_calls(fleet.period) for fleet in fleets)
    for fleet in fleets:
        levels, load, mapped = fleet.replies[-1]
        assert levels["reset"] is True
        assert len(levels["register"][-1]) == fleet.count
        assert mapped["mapped"] == fleet.count
    # the plans are patched: only the newly bound entity is asked its
    # cohort key, everyone else's carries over from the replaced cut
    assert small["batch_key"] == large["batch_key"] == 1
    assert small["map"] == 2 * 300 and large["map"] == 2 * 1200
    assert small["runtime"] == large["runtime"]


class CountedProbe(DeviceInstance):
    """A probe counting, class-wide, how often ``_failed`` (the flag
    behind ``failed``) and ``_wiring`` (the shared wiring, whose
    ``reads`` is the read counter) are loaded — the passes over the
    fleet's memory no frame count sees."""

    loads = Counter()
    wired = set()  # the entity ids whose ``_wiring`` was loaded

    @property
    def _failed(self):
        CountedProbe.loads["_failed"] += 1
        return self._flag

    @_failed.setter
    def _failed(self, value):
        self._flag = value

    @property
    def _wiring(self):
        CountedProbe.loads["_wiring"] += 1
        CountedProbe.wired.add(self.entity_id)
        return self._shared

    @_wiring.setter
    def _wiring(self, value):
        self._shared = value


class CountedBootstrap(ProbeBootstrap):
    def bind_entity(self, app, entity_id, position):
        probe = CountedProbe(
            app.design.devices["Probe"],
            entity_id,
            ColumnDriver(self.field),
            {"zone": ZONES[position % len(ZONES)]},
        )
        app.bind_device(probe)


def test_a_steady_state_poll_loads_per_entity_state_once():
    """A steady-state columnar poll makes no pass over the members'
    state: the registry's failed-flag scan of this registry version
    still holds while no flag was written, the read counters are bumped
    by the cohort plan's tally, and the gather trusts the registry's
    filter while no flag moved."""
    fleet = Fleet(300, bootstrap=CountedBootstrap)
    fleet.period()
    fleet.period()
    worker = fleet.worker
    worker.clock.run_until(fleet.now + PERIOD)
    stats = worker.app.sweeper.stats
    cache = worker.app.read_cache.stats
    # one cohort read, then the same column from the cache
    for name, batch_reads, hits in (("Levels", 1, 0), ("Load", 0, 300)):
        before = stats()["batch_reads"], cache()["hits"]
        CountedProbe.loads.clear()
        worker._cmd_poll(name, 0)
        assert CountedProbe.loads == {}
        moved = stats()["batch_reads"] - before[0], cache()["hits"] - before[1]
        assert moved == (batch_reads, hits)


def test_a_churn_period_loads_read_counters_only_of_what_it_bound():
    """After an unbind and a bind the cohort plan is patched: its tally
    asks the read counter of the one entity bound, and its read plan
    that entity's cache handle — both through that entity's wiring,
    and no other member's.  The registry's failed-flag scan runs once
    for the new registry version: the first poll loads ``_failed`` once
    per member, the second not at all."""
    fleet = Fleet(300, bootstrap=CountedBootstrap)
    fleet.period()
    fleet.period()
    CountedProbe.loads.clear()
    fleet.churn()
    assert CountedProbe.loads == {}
    worker = fleet.worker
    worker.clock.run_until(fleet.now + PERIOD)
    for name, flags, wired in (
        ("Levels", fleet.count, {f"probe-{fleet.count:05d}"}),
        ("Load", 0, set()),
    ):
        CountedProbe.loads.clear()
        CountedProbe.wired.clear()
        worker._cmd_poll(name, 0)
        assert set(CountedProbe.loads) <= {"_failed", "_wiring"}
        assert CountedProbe.loads["_failed"] == flags
        assert CountedProbe.wired == wired


class AttributeCountedProbe(DeviceInstance):
    """A probe counting, class-wide, how often its ``attributes``
    record is loaded."""

    loads = 0

    @property
    def attributes(self):
        AttributeCountedProbe.loads += 1
        return self._attributes

    @attributes.setter
    def attributes(self, value):
        self._attributes = value


def test_an_in_process_period_loads_no_attribute_record():
    """The in-process gather groups as the worker does, through the
    gatherer's key-column memo: a steady-state period — one grouped
    and one MapReduce gather over the same column — loads no member's
    ``attributes``; after a bind, only the bound member's."""
    app = Application(analyze(DESIGN))
    app.implement("Levels", LevelsImpl())
    app.implement("Load", LoadImpl())
    field = Field()

    def bind(index):
        app.bind_device(
            AttributeCountedProbe(
                app.design.devices["Probe"],
                f"probe-{index:05d}",
                ColumnDriver(field),
                {"zone": ZONES[index % len(ZONES)]},
            )
        )

    for index in range(300):
        bind(index)
    app.start()
    app.advance(2 * PERIOD)  # the first period derives the memo
    AttributeCountedProbe.loads = 0
    app.advance(PERIOD)
    assert AttributeCountedProbe.loads == 0
    bind(300)
    AttributeCountedProbe.loads = 0
    app.advance(PERIOD)
    assert AttributeCountedProbe.loads == 1
    # the periods did the work they are counted for
    assert app.stats["gather_sweeps"] == 8
    assert app.mapreduce.stats()["mapped"] == 3 * 300 + 301
