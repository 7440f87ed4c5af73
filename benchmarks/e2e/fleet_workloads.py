"""``fleet_sharded`` and ``fleet_churn``: the benchmark-owned fleet of
:mod:`benchmarks.e2e.fleet` across two worker processes.

``fleet_sharded`` is the steady state: 200 000 devices, static
membership, one grouped periodic context — every memo (partition,
cohort plan, delta epoch) stays valid, the best case for caching-style
optimisations.  ``fleet_churn`` uses the same layers differently: 50 000
devices, the read cache on, a second (MapReduce) context over the same
source, and every operation first unbinds 50 entities and binds 50 new
ones, so registry versions move, plans and delta epochs are rebuilt and
full ``register`` blocks cross the pipe.  An optimisation that buys
steady-state speed with costlier invalidation wins on the first and
loses on the second.

The membership changes are the generated input (``random.Random`` over
``--seed``); published values are checked against
:func:`benchmarks.e2e.fleet.expected_totals` over the membership each
operation saw.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from benchmarks.e2e.fleet import (
    PERIOD_SECONDS,
    FleetBootstrap,
    design_text,
    entity_name,
    expected_totals,
    start_fleet,
)

WARMUP_OPS = 2


class FleetWorkload:
    design_name = "Fleet"
    two_contexts = False
    churn = 0  # entities unbound, and as many bound, before each advance
    devices = {"full": 0, "smoke": 0}
    setup_repeats = 2
    op_percentile = 50
    count_ops = 4  # operations the traced run's exact counts cover
    single_ops = 3  # operations of the single-process baseline phase

    def __init__(self, seed: int, scale: str = "full", workers: int = 2):
        self.seed = seed
        self.count = self.devices[scale]
        self.workers = workers
        self.design_text = design_text(self.two_contexts)
        self.runtime = None
        self.ops = 0
        self._rng = random.Random(seed)
        self._next_index = self.count
        self._change: Tuple[List[str], List[str]] = ([], [])
        # one (removed, added) pair per advance, warm-up included
        self._changes: List[Tuple[List[str], List[str]]] = []

    # -- life-cycle -----------------------------------------------------

    def setup(self) -> None:
        self.bootstrap = FleetBootstrap(
            count=self.count,
            seed=self.seed,
            workers=self.workers,
            two_contexts=self.two_contexts,
        )
        self._live = self.bootstrap.fleet() if self.churn else []
        self.runtime = start_fleet(self.bootstrap)
        self.app = self.runtime.app
        self._prepare_change()
        for _ in range(WARMUP_OPS):
            self.op()
            self.after_op()
        self.ops = 0

    def teardown(self) -> None:
        if self.runtime is not None:
            self.runtime.stop()
            self.runtime = None

    # -- the measured operation ----------------------------------------

    def op(self) -> None:
        runtime = self.runtime
        removed, added = self._change
        for entity_id in removed:
            runtime.unbind(entity_id)
        for entity_id in added:
            runtime.rebind(entity_id)
        runtime.advance(PERIOD_SECONDS)

    def after_op(self) -> None:
        self.ops += 1
        self._changes.append(self._change)
        self._prepare_change()

    def _prepare_change(self) -> None:
        """Draw the next operation's membership change (outside the
        timed region: it is input generation, not the system's work)."""
        if not self.churn:
            return
        live = self._live
        removed = []
        for _ in range(self.churn):
            index = self._rng.randrange(len(live))
            live[index], live[-1] = live[-1], live[index]
            removed.append(live.pop())
        added = [
            entity_name(self._next_index + offset)
            for offset in range(self.churn)
        ]
        self._next_index += self.churn
        live.extend(added)
        self._change = (removed, added)

    def readings(self) -> int:
        contexts = 2 if self.two_contexts else 1
        return self.ops * self.count * contexts

    # -- output check ---------------------------------------------------

    def finish(self) -> int:
        """Re-derive every published value from ``(seed, entity_id,
        now)`` over the membership that operation saw; returns the
        number of operations that published something else."""
        app = self.app
        levels = app.implementation("ZoneLevels").published
        loads = (
            app.implementation("ZoneLoad").published
            if self.two_contexts
            else None
        )
        members = dict.fromkeys(self.bootstrap.fleet())
        failed = 0
        for index, (removed, added) in enumerate(self._changes):
            for entity_id in removed:
                del members[entity_id]
            members.update(dict.fromkeys(added))
            now = PERIOD_SECONDS * (index + 1)
            weighted, busiest = expected_totals(self.seed, members, now)
            ok = index < len(levels) and levels[index] == weighted
            if loads is not None:
                ok = ok and index < len(loads) and loads[index] == busiest
            if not ok:
                failed += 1
        stats = app.stats
        if stats["gather_errors"] or stats["component_errors"]:
            failed += 1
        return failed


class FleetSharded(FleetWorkload):
    name = "fleet_sharded"
    devices = {"full": 200_000, "smoke": 2_000}


class FleetChurn(FleetWorkload):
    name = "fleet_churn"
    two_contexts = True
    churn = 50
    devices = {"full": 50_000, "smoke": 1_000}
    setup_repeats = 3
    count_ops = 6
