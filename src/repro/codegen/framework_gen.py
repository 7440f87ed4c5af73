"""Generation of customized programming frameworks (Figures 9-11).

Given an analyzed design, :func:`generate_framework` produces the source
text of a self-contained Python module; :func:`compile_design` goes one
step further and returns the executed module object.  The developer then
subclasses the generated ``Abstract*`` classes and installs them through
the generated ``*Framework`` class, which "ensures conformance between
design and programming" (Section V) by rejecting implementations that do
not subclass their abstract base.
"""

from __future__ import annotations

import types
from typing import Optional, Set, Union

from repro.codegen.emitter import Emitter
from repro.errors import CodegenError
from repro.lang.ast_nodes import (
    GetContext,
    GetSource,
    WhenPeriodic,
    WhenProvidedContext,
    WhenProvidedSource,
    WhenRequired,
)
from repro.lang.pretty import pretty
from repro.naming import (
    abstract_class_name,
    action_method_name,
    camel_to_snake,
    class_name,
    context_handler_name,
    driver_handler_name,
    driver_reader_name,
    event_handler_name,
    periodic_handler_short_name,
    publishable_name,
    query_method_name,
)
from repro.sema.analyzer import AnalyzedSpec, analyze


def generate_framework(
    design: Union[str, AnalyzedSpec], name: str = "App"
) -> str:
    """Compile a design into the source of its programming framework."""
    if isinstance(design, str):
        design = analyze(design)
    generator = _FrameworkGenerator(design, name)
    return generator.generate()


def compile_design(
    design: Union[str, AnalyzedSpec],
    name: str = "App",
    module_name: Optional[str] = None,
) -> types.ModuleType:
    """Generate, compile and execute the framework; returns the module."""
    source = generate_framework(design, name)
    module_name = module_name or f"repro_generated_{camel_to_snake(name)}"
    module = types.ModuleType(module_name)
    module.__dict__["__file__"] = f"<generated:{name}>"
    try:
        code = compile(source, f"<generated:{name}>", "exec")
        exec(code, module.__dict__)
    except SyntaxError as exc:  # pragma: no cover - generator bug guard
        raise CodegenError(f"generated framework does not compile: {exc}")
    module.__dict__["__source__"] = source
    return module


class _FrameworkGenerator:
    """Stateful single-module generator."""

    def __init__(self, design: AnalyzedSpec, name: str):
        self.design = design
        self.name = class_name(name)
        self.emitter = Emitter()

    def generate(self) -> str:
        e = self.emitter
        e.line('"""Generated programming framework for design '
               f"'{self.name}'.")
        e.blank()
        e.line("Produced by the repro design compiler (ICDCS 2017 "
               "reproduction).")
        e.line("DO NOT EDIT: regenerate from the DiaSpec design instead.")
        e.line('"""')
        e.blank()
        e.line("from repro.api import (")
        e.line("    Application,")
        e.line("    Context,")
        e.line("    Controller,")
        e.line("    DeviceDriver,")
        e.line("    MapReduce,")
        e.line("    Publishable,")
        e.line("    RuntimeConfig,")
        e.line("    analyze,")
        e.line(")")
        e.blank(1)
        e.line('DESIGN_SOURCE = """\\')
        for line in pretty(self.design.spec).splitlines():
            e.line(line.replace("\\", "\\\\").replace('"""', '\\"\\"\\"'))
        e.line('"""')
        e.blank()
        e.line("DESIGN = analyze(DESIGN_SOURCE)")
        e.blank(1)
        self._emit_enumerations()
        self._emit_structures()
        self._emit_device_drivers()
        self._emit_contexts()
        self._emit_controllers()
        self._emit_framework_class()
        return e.render()

    # -- data types ---------------------------------------------------------

    def _emit_enumerations(self) -> None:
        e = self.emitter
        for enum_decl in self.design.spec.enumerations:
            e.line(f"class {class_name(enum_decl.name)}:")
            with e.indented():
                e.docstring(
                    f"Generated from 'enumeration {enum_decl.name}'."
                )
                e.blank()
                for member in enum_decl.members:
                    e.line(f'{member} = "{member}"')
                members = ", ".join(f'"{m}"' for m in enum_decl.members)
                comma = "," if len(enum_decl.members) == 1 else ""
                e.line(f"MEMBERS = ({members}{comma})")
            e.blank(1)

    def _emit_structures(self) -> None:
        e = self.emitter
        for struct_decl in self.design.spec.structures:
            fields = [(p.name, camel_to_snake(p.name)) for p in struct_decl.fields]
            e.line(f"class {class_name(struct_decl.name)}:")
            with e.indented():
                e.docstring(
                    f"Generated from 'structure {struct_decl.name}'.",
                    "Instances conform to the declared structure type when "
                    "published by a context.",
                )
                e.blank()
                slots = ", ".join(f'"{snake}"' for __, snake in fields)
                comma = "," if len(fields) == 1 else ""
                e.line(f"__slots__ = ({slots}{comma})")
                e.blank()
                args = ", ".join(snake for __, snake in fields)
                e.line(f"def __init__(self, {args}):")
                with e.indented():
                    for __, snake in fields:
                        e.line(f"self.{snake} = {snake}")
                e.blank()
                e.line("def as_dict(self):")
                with e.indented():
                    pairs = ", ".join(
                        f'"{name}": self.{snake}' for name, snake in fields
                    )
                    e.line(f"return {{{pairs}}}")
                e.blank()
                e.line("def __eq__(self, other):")
                with e.indented():
                    e.line(
                        "return isinstance(other, type(self)) and "
                        "other.as_dict() == self.as_dict()"
                    )
                e.blank()
                e.line("def __repr__(self):")
                with e.indented():
                    parts = ", ".join(
                        f"{snake}={{self.{snake}!r}}" for __, snake in fields
                    )
                    e.line(
                        f'return f"{class_name(struct_decl.name)}({parts})"'
                    )
            e.blank(1)

    # -- devices -------------------------------------------------------------

    def _emit_device_drivers(self) -> None:
        e = self.emitter
        emitted: Set[str] = set()

        def emit(device_name: str) -> None:
            if device_name in emitted:
                return
            info = self.design.devices[device_name]
            decl = info.decl
            if decl.extends:
                emit(decl.extends)
            base = (
                f"Abstract{class_name(decl.extends)}Driver"
                if decl.extends
                else "DeviceDriver"
            )
            e.line(f"class Abstract{class_name(device_name)}Driver({base}):")
            with e.indented():
                e.docstring(
                    f"Generated driver base for device '{device_name}'.",
                    "A concrete device must implement every source reader "
                    "and action\nhandler; event-driven delivery uses the "
                    "push_* helpers.  The runtime\nprovides the query-driven "
                    "and periodic modes on top of the readers,\nso "
                    "implementing this class satisfies all three delivery "
                    "models\n(Section III).",
                )
                e.blank()
                e.line(f'DEVICE_TYPE = "{device_name}"')
                body = False
                for source in decl.sources:
                    body = True
                    reader = driver_reader_name(source.name)
                    e.blank()
                    e.line(f"def {reader}(self):")
                    with e.indented():
                        e.docstring(
                            f"Current value of source '{source.name}' "
                            f"(as {source.type_name})."
                        )
                        e.line(
                            "raise NotImplementedError("
                            f'"driver must implement {reader}()")'
                        )
                    e.blank()
                    push = f"push_{query_method_name(source.name)}"
                    if source.is_indexed:
                        index_arg = camel_to_snake(source.index_name)
                        e.line(f"def {push}(self, value, {index_arg}=None):")
                        with e.indented():
                            e.docstring(
                                f"Event-driven delivery of '{source.name}', "
                                f"indexed by {source.index_name}."
                            )
                            e.line(
                                f'self.push("{source.name}", value, '
                                f"index={index_arg})"
                            )
                    else:
                        e.line(f"def {push}(self, value):")
                        with e.indented():
                            e.docstring(
                                f"Event-driven delivery of '{source.name}'."
                            )
                            e.line(f'self.push("{source.name}", value)')
                for action in decl.actions:
                    body = True
                    handler = driver_handler_name(action.name)
                    params = ", ".join(
                        camel_to_snake(p.name) for p in action.params
                    )
                    signature = f"self, {params}" if params else "self"
                    e.blank()
                    e.line(f"def {handler}({signature}):")
                    with e.indented():
                        e.docstring(
                            f"Perform action '{action.name}'."
                        )
                        e.line(
                            "raise NotImplementedError("
                            f'"driver must implement {handler}()")'
                        )
                if not body:
                    e.blank()
                    e.line("# facets are inherited unchanged")
            e.blank(1)
            emitted.add(device_name)

        for device in self.design.spec.devices:
            emit(device.name)

    # -- contexts --------------------------------------------------------------

    def _emit_contexts(self) -> None:
        e = self.emitter
        for context in self.design.spec.contexts:
            info = self.design.contexts[context.name]
            uses_mapreduce = any(
                isinstance(i, WhenPeriodic)
                and i.group is not None
                and i.group.uses_mapreduce
                for i in context.interactions
            )
            e.line(f"{publishable_name(context.name)} = Publishable")
            e.blank(1)
            bases = "Context, MapReduce" if uses_mapreduce else "Context"
            e.line(f"class {abstract_class_name(context.name)}({bases}):")
            with e.indented():
                e.docstring(
                    f"Generated base for context '{context.name}' "
                    f"(as {context.type_name}).",
                    "Subclass it and implement the callbacks; the runtime "
                    "invokes them\nas declared by the design (inversion of "
                    "control).",
                )
                e.blank()
                e.line(f'CONTEXT_NAME = "{context.name}"')
                e.line(f'RESULT_TYPE = "{context.type_name}"')
                emitted_names: Set[str] = {"CONTEXT_NAME", "RESULT_TYPE"}
                for interaction in context.interactions:
                    self._emit_context_interaction(
                        context, interaction, emitted_names
                    )
                if uses_mapreduce:
                    self._emit_mapreduce_methods(context, emitted_names)
                del info
            e.blank(1)

    def _emit_context_interaction(
        self, context, interaction, emitted: Set[str]
    ) -> None:
        e = self.emitter
        if isinstance(interaction, WhenRequired):
            if "when_required" not in emitted:
                emitted.add("when_required")
                e.blank()
                e.line("def when_required(self, discover):")
                with e.indented():
                    e.docstring(
                        "Serve a query-driven pull of this context "
                        "('when required')."
                    )
                    e.line(
                        "raise NotImplementedError("
                        '"implement when_required()")'
                    )
            return

        if isinstance(interaction, WhenProvidedSource):
            handler = event_handler_name(interaction.source, interaction.device)
            argument = camel_to_snake(
                f"{interaction.source}From{class_name(interaction.device)}"
            )
            description = (
                f"Callback for 'when provided {interaction.source} from "
                f"{interaction.device}' ({interaction.publish.value} "
                "publish)."
            )
            detail = (
                f"``{argument}`` is the SourceEvent: .value holds the "
                f"reading, .device\nthe publishing entity's proxy.  "
                + _publish_doc(interaction.publish, context.name)
            )
        elif isinstance(interaction, WhenPeriodic):
            # Figure 10 names the callback after the source alone
            # (onPeriodicPresence); the runtime also accepts the long
            # on_periodic_<source>_from_<device> spelling.
            handler = periodic_handler_short_name(interaction.source)
            argument, detail = _periodic_argument(interaction)
            description = (
                f"Callback for 'when periodic {interaction.source} from "
                f"{interaction.device} {interaction.period}' "
                f"({interaction.publish.value} publish)."
            )
            detail += "  " + _publish_doc(interaction.publish, context.name)
        elif isinstance(interaction, WhenProvidedContext):
            handler = context_handler_name(interaction.context)
            argument = camel_to_snake(interaction.context)
            description = (
                f"Callback for 'when provided {interaction.context}' "
                f"({interaction.publish.value} publish)."
            )
            detail = (
                f"``{argument}`` is the value published by the "
                f"{interaction.context} context.  "
                + _publish_doc(interaction.publish, context.name)
            )
        else:  # pragma: no cover - exhaustive
            raise CodegenError(f"unknown interaction {interaction!r}")

        if handler not in emitted:
            emitted.add(handler)
            e.blank()
            e.line(f"def {handler}(self, {argument}, discover):")
            with e.indented():
                e.docstring(description, detail)
                e.line(
                    f'raise NotImplementedError("implement {handler}()")'
                )
        self._emit_get_helpers(interaction.gets, emitted)

    def _emit_get_helpers(self, gets, emitted: Set[str]) -> None:
        e = self.emitter
        for get in gets:
            if isinstance(get, GetSource):
                helper = (
                    f"get_{camel_to_snake(get.source)}_from_"
                    f"{camel_to_snake(get.device)}"
                )
                if helper in emitted:
                    continue
                emitted.add(helper)
                e.blank()
                e.line(f"def {helper}(self, where=None):")
                with e.indented():
                    e.docstring(
                        f"Query-driven pull of '{get.source}' from bound "
                        f"{get.device} entities.",
                        "Returns the single value when exactly one entity "
                        "matches,\notherwise an {entity_id: value} mapping.",
                    )
                    e.line(f'targets = self.discover.devices("{get.device}")')
                    e.line("if where:")
                    with e.indented():
                        e.line("targets = targets.where(**where)")
                    e.line(
                        "values = {proxy.entity_id: proxy.query("
                        f'"{get.source}") for proxy in targets}}'
                    )
                    e.line("if len(values) == 1:")
                    with e.indented():
                        e.line("return next(iter(values.values()))")
                    e.line("return values")
            elif isinstance(get, GetContext):
                helper = f"get_{camel_to_snake(get.context)}"
                if helper in emitted:
                    continue
                emitted.add(helper)
                e.blank()
                e.line(f"def {helper}(self):")
                with e.indented():
                    e.docstring(
                        f"Query-driven pull of the {get.context} context "
                        "('when required')."
                    )
                    e.line(
                        "return self.discover.context_value("
                        f'"{get.context}")'
                    )

    def _emit_mapreduce_methods(self, context, emitted: Set[str]) -> None:
        e = self.emitter
        declaration = next(
            i
            for i in context.interactions
            if isinstance(i, WhenPeriodic)
            and i.group is not None
            and i.group.uses_mapreduce
        )
        group = declaration.group
        if "map" not in emitted:
            emitted.add("map")
            e.blank()
            e.line("def map(self, key, value, collector):")
            with e.indented():
                e.docstring(
                    f"Map phase: emits {group.map_type_name} values "
                    f"(design: 'with map as {group.map_type_name}').",
                    f"``key`` is the grouping attribute "
                    f"({group.attribute}); ``value`` one raw\nreading of "
                    f"'{declaration.source}'.  Emit with "
                    "collector.emit_map(key, value).",
                )
                e.line('raise NotImplementedError("implement map()")')
        if "reduce" not in emitted:
            emitted.add("reduce")
            e.blank()
            e.line("def reduce(self, key, values, collector):")
            with e.indented():
                e.docstring(
                    f"Reduce phase: produces the {group.reduce_type_name} "
                    f"result per key (design: 'reduce as "
                    f"{group.reduce_type_name}').",
                    "``values`` is the list of Map-phase emissions for "
                    "``key``.  Emit with\ncollector.emit_reduce(key, value).",
                )
                e.line('raise NotImplementedError("implement reduce()")')
        if "combine" not in emitted:
            emitted.add("combine")
            e.blank()
            e.line("# Optional streaming fast path: define")
            e.line("#     def combine(self, key, values, collector): ...")
            e.line("# (associative, emitting via collector.emit_combine) to")
            e.line("# collapse intermediate pairs per map chunk before the")
            e.line("# shuffle and to fold `every <window>` deliveries")
            e.line("# incrementally instead of buffering them.")

    # -- controllers --------------------------------------------------------------

    def _emit_controllers(self) -> None:
        e = self.emitter
        for controller in self.design.spec.controllers:
            e.line(f"class {abstract_class_name(controller.name)}(Controller):")
            with e.indented():
                e.docstring(
                    f"Generated base for controller '{controller.name}'.",
                    "Controllers receive context values and actuate devices "
                    "through the\ngenerated do_* helpers (Figure 11).",
                )
                e.blank()
                e.line(f'CONTROLLER_NAME = "{controller.name}"')
                emitted: Set[str] = set()
                for reaction in controller.reactions:
                    handler = context_handler_name(reaction.context)
                    if handler not in emitted:
                        emitted.add(handler)
                        argument = camel_to_snake(reaction.context)
                        e.blank()
                        e.line(f"def {handler}(self, {argument}, discover):")
                        with e.indented():
                            e.docstring(
                                f"Callback for 'when provided "
                                f"{reaction.context}'."
                            )
                            e.line(
                                "raise NotImplementedError("
                                f'"implement {handler}()")'
                            )
                    for do in reaction.dos:
                        self._emit_do_helper(do, emitted)
            e.blank(1)

    def _emit_do_helper(self, do, emitted: Set[str]) -> None:
        e = self.emitter
        helper = (
            f"do_{action_method_name(do.action)}_on_"
            f"{camel_to_snake(do.device)}"
        )
        if helper in emitted:
            return
        emitted.add(helper)
        action_info = self.design.devices[do.device].actions[do.action]
        param_names = [camel_to_snake(p) for p, __ in action_info.params]
        params = "".join(f", {p}" for p in param_names)
        e.blank()
        e.line(f"def {helper}(self{params}, where=None):")
        with e.indented():
            e.docstring(
                f"Issue action '{do.action}' on discovered {do.device} "
                "entities.",
                "``where`` narrows the target set by attribute values, "
                "e.g.\nwhere={'location': lot}.  Returns {entity_id: "
                "result}.",
            )
            e.line(f'targets = self.discover.devices("{do.device}")')
            e.line("if where:")
            with e.indented():
                e.line("targets = targets.where(**where)")
            call_params = ", ".join(
                f"{name}={snake}"
                for (name, __), snake in zip(action_info.params, param_names)
            )
            if call_params:
                e.line(f'return targets.act("{do.action}", {call_params})')
            else:
                e.line(f'return targets.act("{do.action}")')

    # -- framework --------------------------------------------------------------

    def _emit_framework_class(self) -> None:
        e = self.emitter
        e.line(f"class {self.name}Framework:")
        with e.indented():
            e.docstring(
                f"Customized programming framework for design '{self.name}'.",
                "Install implementations (which must subclass the generated "
                "abstract\nclasses), bind devices, then start() — the "
                "runtime calls the\nimplementations as the design "
                "prescribes.",
            )
            e.blank()
            e.line("ABSTRACTS = {")
            with e.indented():
                for context in self.design.spec.contexts:
                    e.line(
                        f'"{context.name}": '
                        f"{abstract_class_name(context.name)},"
                    )
                for controller in self.design.spec.controllers:
                    e.line(
                        f'"{controller.name}": '
                        f"{abstract_class_name(controller.name)},"
                    )
            e.line("}")
            e.blank()
            e.line("def __init__(self, config=None):")
            with e.indented():
                e.line("self.design = DESIGN")
                e.line("if config is None:")
                e.line(f'    config = RuntimeConfig(name="{self.name}")')
                e.line("self.application = Application(DESIGN, config)")
            e.blank()
            e.line("def implement(self, name, implementation):")
            with e.indented():
                e.docstring(
                    "Install an implementation; enforces design conformance."
                )
                e.line("expected = self.ABSTRACTS.get(name)")
                e.line("if expected is None:")
                with e.indented():
                    e.line(
                        "raise TypeError("
                        "f\"'{name}' is not a context or controller of "
                        'this design")'
                    )
                e.line("cls = (")
                e.line("    implementation")
                e.line("    if isinstance(implementation, type)")
                e.line("    else type(implementation)")
                e.line(")")
                e.line("if not issubclass(cls, expected):")
                with e.indented():
                    e.line(
                        "raise TypeError("
                        "f\"implementation of '{name}' must subclass "
                        '{expected.__name__}")'
                    )
                e.line(
                    "return self.application.implement(name, implementation)"
                )
            for context in self.design.spec.contexts:
                snake = camel_to_snake(context.name)
                e.blank()
                e.line(f"def implement_{snake}(self, implementation):")
                with e.indented():
                    e.line(
                        f'return self.implement("{context.name}", '
                        "implementation)"
                    )
            for controller in self.design.spec.controllers:
                snake = camel_to_snake(controller.name)
                e.blank()
                e.line(f"def implement_{snake}(self, implementation):")
                with e.indented():
                    e.line(
                        f'return self.implement("{controller.name}", '
                        "implementation)"
                    )
            for device in self.design.spec.devices:
                self._emit_device_factory(device)
            for context in self.design.spec.contexts:
                if context.is_queryable:
                    snake = camel_to_snake(context.name)
                    e.blank()
                    e.line(f"def query_{snake}(self):")
                    with e.indented():
                        e.docstring(
                            f"Query-driven pull of the {context.name} "
                            "context."
                        )
                        e.line(
                            "return self.application.query_context("
                            f'"{context.name}")'
                        )
            e.blank()
            e.line("def start(self):")
            with e.indented():
                e.line("self.application.start()")
                e.line("return self")
            e.blank()
            e.line("def stop(self):")
            with e.indented():
                e.line("self.application.stop()")
            e.blank()
            e.line("def advance(self, seconds):")
            with e.indented():
                e.docstring("Drive the (simulation) clock forward.")
                e.line("return self.application.advance(seconds)")
            e.blank()
            e.line("@property")
            e.line("def discover(self):")
            with e.indented():
                e.line("return self.application.discover")
            e.blank()
            e.line("@property")
            e.line("def stats(self):")
            with e.indented():
                e.line("return self.application.stats")

    def _emit_device_factory(self, device) -> None:
        e = self.emitter
        info = self.design.devices[device.name]
        snake = camel_to_snake(device.name)
        attribute_names = sorted(info.attributes)
        params = "".join(
            f", {camel_to_snake(name)}" for name in attribute_names
        )
        e.blank()
        e.line(f"def create_{snake}(self, entity_id, driver{params}):")
        with e.indented():
            e.docstring(
                f"Bind a {device.name} entity (registering its attribute "
                "values)."
            )
            e.line("return self.application.create_device(")
            e.line(f'    "{device.name}",')
            e.line("    entity_id,")
            e.line("    driver,")
            for name in attribute_names:
                e.line(f"    {name}={camel_to_snake(name)},")
            e.line(")")
        e.blank()
        e.line(f"def create_{snake}s(self, entity_ids, drivers{params}):")
        with e.indented():
            e.docstring(
                f"Bind {device.name} entities as one column (all or none)."
            )
            e.line("return self.application.bind_column(")
            e.line(f'    "{device.name}",')
            e.line("    entity_ids,")
            e.line("    drivers,")
            for name in attribute_names:
                e.line(f"    {name}={camel_to_snake(name)},")
            e.line(")")


def _publish_doc(publish, context_name: str) -> str:
    wrapper = publishable_name(context_name)
    from repro.lang.ast_nodes import Publish

    if publish is Publish.ALWAYS:
        return (
            f"Must return the value to publish (optionally wrapped in "
            f"{wrapper})."
        )
    if publish is Publish.MAYBE:
        return (
            f"Return the value to publish (optionally wrapped in {wrapper}) "
            "or None to stay silent."
        )
    return "The return value is ignored ('no publish')."


def _periodic_argument(interaction) -> "tuple[str, str]":
    group = interaction.group
    source_snake = camel_to_snake(interaction.source)
    if group is None:
        argument = f"{source_snake}_readings"
        detail = (
            "``%s`` is a list of GatherReading(device, value) collected "
            "from every\nbound device in this sweep." % argument
        )
        return argument, detail
    attr_snake = camel_to_snake(group.attribute)
    argument = f"{source_snake}_by_{attr_snake}"
    if group.uses_mapreduce and group.window is not None:
        detail = (
            "``%s`` maps each %s to the per-sweep reduced values folded\n"
            "incrementally over the %s window through combine/reduce."
            % (argument, group.attribute, group.window)
        )
    elif group.uses_mapreduce:
        detail = (
            "``%s`` maps each %s to the Reduce-phase result for this "
            "sweep\n(Figure 10's onPeriodicPresence)." % (argument,
                                                          group.attribute)
        )
    elif group.window is not None:
        detail = (
            "``%s`` maps each %s to every raw reading gathered during "
            "the\n%s window." % (argument, group.attribute, group.window)
        )
    else:
        detail = (
            "``%s`` maps each %s to the raw readings of this sweep."
            % (argument, group.attribute)
        )
    return argument, detail
