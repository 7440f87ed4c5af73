"""Span recording for the traced run, installed from outside ``src/``.

:class:`Tracer` wraps the layers' public entry points (``TARGETS``) with
timing closures.  Targets are dotted names resolved at install time; one
that no longer resolves is listed in ``Tracer.missing`` and its layer's
metrics read as missing — the run goes on.

Each wrapped call is a span: layer, start, end, parent span and
operation id.  A layer's self time is its span minus the child spans
inside it, so the self times of one operation add up to its root span
exactly (integer nanoseconds); what no wrapper covers stays with the
root, as ``app.self``.  At most ``per_op_cap`` spans per layer and
operation are stored one by one; further calls fold into a per-operation
``(count, total)`` record.  Totals per layer are always kept.

The end-to-end run never imports this module.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT_LAYER = "app.self"

# (layer, "module:attribute.path")
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("lang.parse", "repro.lang:parse"),
    ("sema.analyze", "repro.api:analyze"),
    ("codegen.generate", "repro.codegen:generate_framework"),
    ("registry.bind", "repro.api:Application.create_device"),
    ("device.read", "repro.api:DeviceInstance.read"),
    ("device.act", "repro.api:DeviceInstance.act"),
    ("driver.read", "repro.api:DeviceDriver.read"),
    ("driver.read", "benchmarks.e2e.fleet:FleetDriverBehaviour.read"),
    ("driver.read", "benchmarks.e2e.fleet:FleetDriverBehaviour.read_batch"),
    ("sweep", "repro.api:SweepEngine.sweep"),
    ("cache", "repro.api:ReadCache.get_or_read"),
    ("cache", "repro.api:ReadCache.lookup"),
    ("grouping.group", "repro.runtime.grouping:group_readings"),
    ("grouping.group", "repro.runtime.grouping:group_readings_planned"),
    ("grouping.window_add", "repro.runtime.grouping:WindowAccumulator.add"),
    ("mapreduce.run", "repro.mapreduce.engine:MapReduceEngine.run"),
    ("mapreduce.run", "repro.mapreduce.engine:MapReduceEngine.merge_partials"),
    ("bus.publish", "repro.runtime.bus:EventBus.publish"),
    ("bus.publish", "repro.runtime.bus:EventBus.dispatch_compiled"),
    ("registry.instances_of",
     "repro.runtime.registry:EntityRegistry.instances_of"),
    ("proxies.discover", "repro.runtime.discovery:Discover.devices"),
    ("proxies.discover", "repro.runtime.proxies:ProxySet.where"),
    ("shard.roundtrip", "repro.runtime.shard:ShardRouter.send"),
    ("shard.roundtrip", "repro.runtime.shard:ShardRouter.broadcast"),
    ("shard.merge", "repro.api:ShardedRuntime._collect_sharded"),
    ("shard.rebind", "repro.api:ShardedRuntime.rebind"),
    ("shard.rebind", "repro.api:ShardedRuntime.unbind"),
    ("shard.start", "repro.api:ShardedRuntime.start"),
    ("simulation.env_step",
     "repro.simulation.environment:ParkingLotEnvironment.step"),
    ("simulation.env_step",
     "repro.simulation.environment:HomeEnvironment.step"),
)
# Callbacks are wrapped per implementation instance when it is installed.
IMPLEMENT_TARGET = "repro.api:Application.implement"
HANDLER_LAYER = "app.handler"
_NOT_HANDLERS = ("on_start", "on_stop")


class PhaseTotals:
    """Per-layer ``[calls, self_ns, total_ns]`` over one phase."""

    def __init__(self):
        self.layers: Dict[str, List[int]] = {}
        self.ops = 0
        self.root_ns = 0
        self.unreconciled = 0

    def calls(self, layer: str) -> int:
        return self.layers.get(layer, (0, 0, 0))[0]

    def self_ns(self, layer: str) -> int:
        return self.layers.get(layer, (0, 0, 0))[1]

    def total_ns(self, layer: str) -> int:
        return self.layers.get(layer, (0, 0, 0))[2]


class Tracer:
    def __init__(self, span_cap: int = 200_000, per_op_cap: int = 1000):
        self.enabled = False
        self.missing: List[str] = []
        self.phases: Dict[str, PhaseTotals] = {}
        self.spans: List[Tuple[int, int, int, str, int, int]] = []
        self.folded: Dict[Tuple[int, str], List[int]] = {}
        self.span_cap = span_cap
        self.per_op_cap = per_op_cap
        self._phase: Optional[PhaseTotals] = None
        self._stack: List[List[int]] = []
        self._op_id = -1
        self._op_self_ns = 0
        self._op_calls: Dict[str, int] = {}
        self._next_span = 0
        self._patched: List[Tuple[Any, str, Any]] = []
        self._layers_installed: set = set()
        # Forked shard workers inherit the patched classes; give them
        # the originals back so they run (and cost) as in an untraced
        # run.  Their time shows up as the coordinator's round trip.
        os.register_at_fork(after_in_child=self.uninstall)

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        self.missing = []
        self._layers_installed = set()
        for layer, target in TARGETS:
            if self._patch(target, lambda fn, la=layer: self._wrap(fn, la)):
                self._layers_installed.add(layer)
        if self._patch(IMPLEMENT_TARGET, self._wrap_implement):
            self._layers_installed.add(HANDLER_LAYER)
        self.enabled = True

    def uninstall(self) -> None:
        """Restore every patched attribute.  Callables the runtime
        captured while wrapped (handlers, the gather delegate) keep
        their wrapper; with ``enabled`` off it is one flag check."""
        self.enabled = False
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def layer_installed(self, layer: str) -> bool:
        return layer in self._layers_installed

    def _patch(self, target: str, make: Callable[[Any], Any]) -> bool:
        module_name, _, path = target.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
            *parents, name = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = (
                owner.__dict__[name]
                if isinstance(owner, type)
                else getattr(owner, name)
            )
        except (ImportError, AttributeError, KeyError):
            self.missing.append(target)
            return False
        if not callable(original) or isinstance(
            original, (staticmethod, classmethod, property, type)
        ):
            self.missing.append(target)
            return False
        wrapper = make(original)
        if isinstance(owner, type):
            self._set(owner, name, original, wrapper)
            return True
        # A module-level function may have been re-bound into other
        # modules by ``from ... import``; patch every alias.
        for module in list(sys.modules.values()):
            if module is None or not getattr(
                module, "__name__", ""
            ).startswith(("repro", "benchmarks")):
                continue
            for alias, value in list(vars(module).items()):
                if value is original:
                    self._set(module, alias, original, wrapper)
        return True

    def _set(self, owner, name, original, wrapper) -> None:
        self._patched.append((owner, name, original))
        setattr(owner, name, wrapper)

    # -- wrappers -------------------------------------------------------

    def _wrap(self, fn: Callable, layer: str) -> Callable:
        tracer = self
        stack = self._stack
        clock = time.perf_counter_ns
        record = self._record

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled or not stack:
                return fn(*args, **kwargs)
            span_id = tracer._next_span
            tracer._next_span = span_id + 1
            frame = [0, span_id]
            parent = stack[-1]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent[0] += end - start
                record(layer, span_id, parent[1], start, end, frame[0])

        return traced

    def _wrap_implement(self, implement: Callable) -> Callable:
        tracer = self

        def traced_implement(app, name, implementation):
            installed = implement(app, name, implementation)
            for attribute in dir(type(installed)):
                if attribute in _NOT_HANDLERS or not (
                    attribute.startswith("on_")
                    or attribute == "when_required"
                ):
                    continue
                handler = getattr(installed, attribute)
                if callable(handler):
                    setattr(
                        installed,
                        attribute,
                        tracer._wrap(handler, HANDLER_LAYER),
                    )
            return installed

        return traced_implement

    def _record(self, layer, span_id, parent_id, start, end, child_ns) -> None:
        duration = end - start
        self_ns = duration - child_ns
        self._op_self_ns += self_ns
        totals = self._phase.layers.get(layer)
        if totals is None:
            totals = self._phase.layers[layer] = [0, 0, 0]
        totals[0] += 1
        totals[1] += self_ns
        totals[2] += duration
        seen = self._op_calls.get(layer, 0)
        self._op_calls[layer] = seen + 1
        if seen < self.per_op_cap and len(self.spans) < self.span_cap:
            self.spans.append(
                (span_id, parent_id, self._op_id, layer, start, end)
            )
        elif len(self.folded) < self.span_cap:
            key = (self._op_id, layer)
            fold = self.folded.get(key)
            if fold is None:
                self.folded[key] = [1, duration]
            else:
                fold[0] += 1
                fold[1] += duration

    # -- phases and root spans ------------------------------------------

    def phase(self, name: str) -> PhaseTotals:
        self._phase = self.phases.setdefault(name, PhaseTotals())
        return self._phase

    def run_root(self, fn: Callable[[], Any], layer: str = ROOT_LAYER) -> int:
        """Run ``fn`` as one operation's root span; returns its
        duration in nanoseconds."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        self._op_id += 1
        self._op_self_ns = 0
        self._op_calls = {}
        span_id = self._next_span
        self._next_span = span_id + 1
        frame = [0, span_id]
        self._stack.append(frame)
        clock = time.perf_counter_ns
        start = clock()
        try:
            fn()
        finally:
            end = clock()
            self._stack.pop()
            self._record(layer, span_id, -1, start, end, frame[0])
            phase = self._phase
            phase.ops += 1
            phase.root_ns += end - start
            if self._op_self_ns != end - start:
                phase.unreconciled += 1
        return end - start

    # -- output ---------------------------------------------------------

    def dump(self, path: str) -> None:
        payload = {
            "missing_targets": self.missing,
            "span_fields": [
                "id", "parent", "op", "layer", "start_ns", "end_ns",
            ],
            "spans": self.spans,
            "folded": [
                {"op": op, "layer": layer, "count": count, "total_ns": total}
                for (op, layer), (count, total) in self.folded.items()
            ],
            "phases": {
                name: {
                    "ops": totals.ops,
                    "root_ns": totals.root_ns,
                    "unreconciled_ops": totals.unreconciled,
                    "layers": {
                        layer: {
                            "calls": calls,
                            "self_ns": self_ns,
                            "total_ns": total_ns,
                        }
                        for layer, (calls, self_ns, total_ns) in sorted(
                            totals.layers.items()
                        )
                    },
                }
                for name, totals in self.phases.items()
            },
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
