"""Command-line toolchain for DiaSpec designs.

The paper's methodology is *tool-based* (§I); this module is the tooling
face of the reproduction::

    python -m repro check  design.diaspec      # analyze, report warnings
    python -m repro fmt    design.diaspec      # canonical formatting
    python -m repro graph  design.diaspec      # dataflow graph + layers
    python -m repro chains design.diaspec      # functional chains (Fig. 3)
    python -m repro stats  design.diaspec      # design metrics
    python -m repro compile design.diaspec --name App -o out/  # framework+stubs
    python -m repro metrics                    # run an example, dump telemetry

Exit status: 0 on success, 1 on a design error (with a message on
stderr), 2 on bad usage.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.codegen.framework_gen import generate_framework
from repro.codegen.stub_gen import generate_stubs
from repro.errors import DiaSpecError
from repro.lang.ast_nodes import (
    WhenPeriodic,
    WhenProvidedContext,
    WhenProvidedSource,
    WhenRequired,
)
from repro.lang.parser import parse
from repro.lang.pretty import pretty
from repro.naming import camel_to_snake
from repro.sema.analyzer import AnalyzedSpec, analyze


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    arguments = parser.parse_args(argv)
    if arguments.command is None:
        parser.print_help()
        return 2
    try:
        return arguments.handler(arguments)
    except DiaSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DiaSpec design toolchain (ICDCS 2017 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command")
    parser.set_defaults(command=None)

    def add(name, help_text, handler):
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("design", help="path to a .diaspec file")
        sub.set_defaults(handler=handler)
        return sub

    add("check", "analyze a design and report problems", _cmd_check)
    add("fmt", "print the canonical form of a design", _cmd_fmt)
    graph_parser = add(
        "graph", "print the component dataflow graph", _cmd_graph
    )
    graph_parser.add_argument(
        "--dot", action="store_true",
        help="emit Graphviz DOT instead of the text rendering",
    )
    add("chains", "print the source-to-action functional chains",
        _cmd_chains)
    add("stats", "print design metrics", _cmd_stats)
    doc_parser = add("doc", "render Markdown documentation for a design",
                     _cmd_doc)
    doc_parser.add_argument(
        "--title", default=None, help="document title (default: file name)"
    )

    diff_parser = subparsers.add_parser(
        "diff", help="compare two design versions (exit 3 on breaking "
        "changes)"
    )
    diff_parser.add_argument("old", help="path to the old design")
    diff_parser.add_argument("new", help="path to the new design")
    diff_parser.set_defaults(handler=_cmd_diff)

    compile_parser = add(
        "compile", "generate the programming framework and stubs",
        _cmd_compile,
    )
    compile_parser.add_argument(
        "--name", default="App", help="application/framework name"
    )
    compile_parser.add_argument(
        "-o", "--output", default=".",
        help="output directory (default: current)",
    )
    compile_parser.add_argument(
        "--no-stubs", action="store_true",
        help="generate only the framework, not the implementation stubs",
    )

    metrics_parser = subparsers.add_parser(
        "metrics",
        help="run the parking example and dump a Prometheus metrics "
        "snapshot",
    )
    metrics_parser.add_argument(
        "--seconds", type=float, default=1800.0,
        help="simulated seconds to run (default: 1800)",
    )
    metrics_parser.add_argument(
        "--chrome-trace", default=None, metavar="PATH",
        help="also write the traced timeline as Chrome-trace JSON "
        "(loadable in chrome://tracing)",
    )
    metrics_parser.set_defaults(handler=_cmd_metrics)

    chaos_parser = subparsers.add_parser(
        "chaos",
        help="run the parking example under a seeded fault plan and "
        "report recovery",
    )
    chaos_parser.add_argument(
        "--seed", type=int, default=7,
        help="fault-plan seed (default: 7); the same seed always kills "
        "the same sensors",
    )
    chaos_parser.add_argument(
        "--duration", type=float, default=7200.0,
        help="simulated seconds to run (default: 7200)",
    )
    chaos_parser.add_argument(
        "--kill-fraction", type=float, default=0.3,
        help="fraction of presence sensors taken down (default: 0.3)",
    )
    chaos_parser.add_argument(
        "--stale", choices=("last_known", "skip", "fail"),
        default="last_known",
        help="degraded-delivery policy for failed reads "
        "(default: last_known)",
    )
    chaos_parser.add_argument(
        "--report", default=None, metavar="PATH",
        help="also write the JSON report to this path",
    )
    chaos_parser.set_defaults(handler=_cmd_chaos)

    tune_parser = subparsers.add_parser(
        "tune",
        help="run the parking example with the adaptive tuning "
        "controller closed over a connection-flap plan and report the "
        "trajectory",
    )
    tune_parser.add_argument(
        "--seed", type=int, default=7,
        help="fault-plan and controller seed (default: 7)",
    )
    tune_parser.add_argument(
        "--duration", type=float, default=21600.0,
        help="simulated seconds to run (default: 21600)",
    )
    tune_parser.add_argument(
        "--interval", type=float, default=600.0,
        help="controller tick interval in simulated seconds "
        "(default: 600)",
    )
    tune_parser.add_argument(
        "--flap-fraction", type=float, default=0.5,
        help="fraction of presence sensors that flap (default: 0.5)",
    )
    tune_parser.add_argument(
        "--report", default=None, metavar="PATH",
        help="also write the JSON report to this path",
    )
    tune_parser.set_defaults(handler=_cmd_tune)
    return parser


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _analyze_file(path: str) -> AnalyzedSpec:
    return analyze(_read(path))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_check(arguments) -> int:
    design = _analyze_file(arguments.design)
    devices = len(design.devices)
    contexts = len(design.contexts)
    controllers = len(design.controllers)
    print(
        f"OK: {devices} device(s), {contexts} context(s), "
        f"{controllers} controller(s)"
    )
    for warning in design.report.warnings:
        print(f"warning: {warning}")
    return 0


def _cmd_fmt(arguments) -> int:
    spec = parse(_read(arguments.design))
    sys.stdout.write(pretty(spec))
    return 0


def _cmd_graph(arguments) -> int:
    design = _analyze_file(arguments.design)
    if getattr(arguments, "dot", False):
        title = os.path.splitext(os.path.basename(arguments.design))[0]
        print(design.graph.render_dot(title))
    else:
        print(design.graph.render())
    return 0


def _cmd_chains(arguments) -> int:
    design = _analyze_file(arguments.design)
    chains = design.graph.functional_chains()
    if not chains:
        print("(no complete source-to-action chains)")
        return 0
    for chain in chains:
        print(" -> ".join(chain))
    return 0


def _cmd_stats(arguments) -> int:
    design = _analyze_file(arguments.design)
    interactions = {
        "event-driven": 0,
        "periodic": 0,
        "context-subscription": 0,
        "query-served (when required)": 0,
    }
    grouped = mapreduce = windowed = 0
    for context in design.contexts.values():
        for interaction in context.decl.interactions:
            if isinstance(interaction, WhenProvidedSource):
                interactions["event-driven"] += 1
            elif isinstance(interaction, WhenPeriodic):
                interactions["periodic"] += 1
                if interaction.group is not None:
                    grouped += 1
                    if interaction.group.uses_mapreduce:
                        mapreduce += 1
                    if interaction.group.window is not None:
                        windowed += 1
            elif isinstance(interaction, WhenProvidedContext):
                interactions["context-subscription"] += 1
            elif isinstance(interaction, WhenRequired):
                interactions["query-served (when required)"] += 1

    sources = sum(len(d.sources) for d in design.devices.values())
    actions = sum(len(d.actions) for d in design.devices.values())
    attributes = sum(len(d.attributes) for d in design.devices.values())
    print(f"devices:      {len(design.devices)} "
          f"({sources} sources, {actions} actions, {attributes} attributes)")
    print(f"contexts:     {len(design.contexts)}")
    print(f"controllers:  {len(design.controllers)}")
    print(f"enumerations: {len(design.spec.enumerations)}")
    print(f"structures:   {len(design.spec.structures)}")
    print("interactions:")
    for label, count in interactions.items():
        print(f"  {label}: {count}")
    print(f"  grouped by: {grouped} (mapreduce: {mapreduce}, "
          f"windowed: {windowed})")
    layers = design.graph.layers
    depth = max(layers.values()) if layers else 0
    print(f"dataflow depth: {depth} layer(s), "
          f"{len(design.graph.functional_chains())} functional chain(s)")
    return 0


def _cmd_doc(arguments) -> int:
    from repro.codegen.docgen import generate_docs

    design = _analyze_file(arguments.design)
    title = arguments.title or os.path.splitext(
        os.path.basename(arguments.design)
    )[0]
    sys.stdout.write(generate_docs(design, title))
    return 0


def _cmd_diff(arguments) -> int:
    from repro.sema.diff import diff_designs

    diff = diff_designs(_read(arguments.old), _read(arguments.new))
    print(diff.render())
    return 3 if diff.is_breaking else 0


def _cmd_metrics(arguments) -> int:
    """Run the parking example under telemetry and print the snapshot.

    Periods are scaled down (1-minute sweeps, 10-minute occupancy
    windows) so a short simulated run exercises every instrumented
    layer: bus, entity registry, MapReduce engine, window accumulators,
    and device reads.
    """
    from repro.apps.parking.app import build_parking_app
    from repro.runtime.tracing import Tracer
    from repro.telemetry import render_chrome_trace

    parking = build_parking_app(
        availability_period="1 min",
        usage_period="5 min",
        occupancy_window="10 min",
        start=False,
    )
    app = parking.application
    tracer = None
    if arguments.chrome_trace:
        tracer = Tracer(app).attach()
    app.start()
    app.advance(arguments.seconds)
    sys.stdout.write(app.metrics.render_prometheus())
    if tracer is not None:
        with open(arguments.chrome_trace, "w", encoding="utf-8") as handle:
            handle.write(render_chrome_trace(tracer, app.name))
        print(
            f"wrote {arguments.chrome_trace} "
            f"({len(tracer.entries)} trace events)",
            file=sys.stderr,
        )
    return 0


def _cmd_chaos(arguments) -> int:
    """Kill a slice of the parking sensors mid-run and report recovery.

    Exit status is 0 only when every injected failure recovered: all
    breakers closed, no entity quarantined or failed at the end of the
    run, and no gather ever aborted.  CI runs this as a smoke test.
    """
    import json

    from repro.faults.chaos import run_parking_chaos

    report = run_parking_chaos(
        seed=arguments.seed,
        duration_seconds=arguments.duration,
        kill_fraction=arguments.kill_fraction,
        stale_mode=arguments.stale,
    )
    rendered = json.dumps(report, indent=2, sort_keys=True)
    print(rendered)
    if arguments.report:
        with open(arguments.report, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {arguments.report}", file=sys.stderr)
    if not report["recovered"]:
        if report["injected_read_failures"] == 0:
            print(
                "chaos: no faults fired within the run window "
                "(nothing was proven)",
                file=sys.stderr,
            )
        else:
            print(
                f"chaos: {report['unrecovered_failures']} unrecovered "
                f"failure(s)",
                file=sys.stderr,
            )
        return 1
    return 0


def _cmd_tune(arguments) -> int:
    """Close the telemetry → config loop on the parking deployment.

    Half the presence sensors flap; the controller retunes the live
    supervision policy to stop burning reads on dark hardware.  Exit
    status is 0 only when the controller actually evaluated its
    objective and made at least one adjustment — a run too short to
    tick (or a plan that never fires) proves nothing.
    """
    import json

    from repro.apps.parking.tuning import run_parking_tuning

    report = run_parking_tuning(
        seed=arguments.seed,
        duration_seconds=arguments.duration,
        interval_seconds=arguments.interval,
        flap_fraction=arguments.flap_fraction,
    )
    rendered = json.dumps(report, indent=2, sort_keys=True)
    print(rendered)
    if arguments.report:
        with open(arguments.report, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {arguments.report}", file=sys.stderr)
    if not report["adjusted"]:
        print(
            "tune: the controller never adjusted a knob "
            "(run longer, or widen the fault plan)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_compile(arguments) -> int:
    design = _analyze_file(arguments.design)
    name = arguments.name
    os.makedirs(arguments.output, exist_ok=True)
    module_base = camel_to_snake(name)
    framework_path = os.path.join(
        arguments.output, f"{module_base}_framework.py"
    )
    framework_source = generate_framework(design, name)
    with open(framework_path, "w", encoding="utf-8") as handle:
        handle.write(framework_source)
    print(f"wrote {framework_path} "
          f"({len(framework_source.splitlines())} lines)")
    if not arguments.no_stubs:
        stubs_path = os.path.join(arguments.output, f"{module_base}_impl.py")
        stub_source = generate_stubs(
            design, name, framework_module=f"{module_base}_framework"
        )
        with open(stubs_path, "w", encoding="utf-8") as handle:
            handle.write(stub_source)
        print(f"wrote {stubs_path} ({len(stub_source.splitlines())} lines)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
