"""The import graph is a DAG.  ``repro.runtime`` sits below the
applications, the CLI and the benchmarks: they import it, never the
other way round — not even lazily inside a function, which is how the
reference scenarios used to sneak in.  The compiler front end, the
MapReduce engine and telemetry sit below the runtime in turn: importing
one of them must not execute an import of anything above.

Inside the runtime, ``Application`` is used through its public surface:
no module but ``runtime/app.py`` itself reads an ``app._private``.  The
tuning controller (``repro.tuning``) is a client of that surface, built
by its owner: no runtime module imports it, so an application can
neither build a controller nor register a ``tuning_*`` series.  A sweep
is one loop in its process, and a map side runs in parallel only as a
shard worker: no module under ``src/repro`` imports
``concurrent.futures``.  A gather maps through ``map_partition`` and
reduces through ``MapReduceEngine.merge_partials``: no runtime module
takes an executor from the engine or names the removed
``mapreduce_executor`` setting."""

import ast
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"
RUNTIME = SRC / "repro" / "runtime"
SOURCES = sorted(RUNTIME.rglob("*.py"))
FORBIDDEN = ("repro.apps", "repro.cli", "repro.tuning", "benchmarks")

BELOW_RUNTIME = ("telemetry", "typesys", "lang", "sema", "mapreduce")
BELOW_SOURCES = sorted(
    path
    for package in BELOW_RUNTIME
    for path in (SRC / "repro" / package).rglob("*.py")
)
ABOVE = ("repro.runtime", "repro.apps", "repro.cli")

TOP_LEVEL = sorted(
    f"repro.{module.name}"
    for module in pkgutil.iter_modules([str(SRC / "repro")])
    if module.name != "__main__"
)


def import_time_nodes(tree):
    """The nodes that run when the module is imported: function bodies
    and ``if TYPE_CHECKING:`` blocks are skipped."""
    pending = [tree]
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) in (
            "TYPE_CHECKING",
            "typing.TYPE_CHECKING",
        ):
            pending.extend(node.orelse)
            continue
        yield node
        pending.extend(ast.iter_child_nodes(node))


def imported_modules(nodes):
    """Every module an import statement among ``nodes`` names."""
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def application_private_reaches(tree):
    """Every ``<app>._name`` attribute access, ``<app>`` being anything
    called ``app`` or ``application`` (``app``, ``self.app``,
    ``runtime.app`` …); dunders are the language's, not private."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        name = getattr(owner, "id", None) or getattr(owner, "attr", None)
        if (
            name in ("app", "application")
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ):
            yield f"{name}.{node.attr} (line {node.lineno})"


def within(module, layers):
    return any(
        module == layer or module.startswith(layer + ".") for layer in layers
    )


def test_the_runtime_has_sources():
    names = {str(p.relative_to(RUNTIME)) for p in SOURCES}
    assert {"app.py", "shard/worker.py"} <= names


@pytest.mark.parametrize(
    "path", SOURCES, ids=lambda p: str(p.relative_to(RUNTIME))
)
def test_runtime_imports_nothing_above_it(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for module in imported_modules(ast.walk(tree)):
        assert not within(module, FORBIDDEN), (
            f"runtime/{path.relative_to(RUNTIME)} imports {module}"
        )


def test_no_runtime_module_imports_the_tuning_controller():
    importers = [
        f"runtime/{path.relative_to(RUNTIME)} imports {module}"
        for path in SOURCES
        for module in imported_modules(
            ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        )
        if within(module, ("repro.tuning",))
    ]
    assert importers == []


def test_no_runtime_module_imports_an_executor_pool():
    """Nor any other module of the package: the shard workers are the
    one parallel surface."""
    importers = [
        f"{path.relative_to(SRC)} imports {module}"
        for path in sorted((SRC / "repro").rglob("*.py"))
        for module in imported_modules(
            ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        )
        if within(module, ("concurrent.futures",))
    ]
    assert importers == []


def test_no_runtime_module_takes_an_executor_from_the_engine():
    engine = "repro.mapreduce.engine"
    allowed = {"MapReduceEngine", "map_partition", "rank_groups"}
    allowed.add("sequence_partials")
    reaches = []
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        where = f"runtime/{path.relative_to(RUNTIME)}"
        for node in ast.walk(ast.parse(text, str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == engine:
                taken = {alias.name for alias in node.names} - allowed
                reaches.extend(f"{where} imports {name}" for name in taken)
            elif isinstance(node, ast.Import):
                if engine in (alias.name for alias in node.names):
                    reaches.append(f"{where} imports {engine}")
        if "mapreduce_executor" in text:
            reaches.append(f"{where} names mapreduce_executor")
    assert reaches == []


@pytest.mark.parametrize(
    "path", BELOW_SOURCES, ids=lambda p: str(p.relative_to(SRC / "repro"))
)
def test_lower_layers_import_nothing_above_them_at_import_time(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for module in imported_modules(import_time_nodes(tree)):
        assert not within(module, ABOVE), (
            f"{path.relative_to(SRC)} imports {module} at import time"
        )


def test_only_app_py_reads_application_privates():
    """What another module reaches through an ``app._private`` it has
    to know the format of: the shard package drives the gather through
    ``app.sweeper`` and ``Application.on_device_publish`` instead."""
    reaches = [
        f"{path.relative_to(SRC)}: {reach}"
        for path in sorted((SRC / "repro").rglob("*.py"))
        if path != RUNTIME / "app.py"
        for reach in application_private_reaches(
            ast.parse(path.read_text(encoding="utf-8"), str(path))
        )
    ]
    assert reaches == []


@pytest.mark.parametrize("package", TOP_LEVEL)
def test_every_package_imports_first_in_a_fresh_interpreter(package):
    """A cycle only bites the package that happens to be imported
    first, so each one gets its own interpreter."""
    result = subprocess.run(
        [sys.executable, "-c", f"import {package}"],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
