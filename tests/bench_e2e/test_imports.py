"""The benchmark may lean only on the stable surface: ``repro.api``, the
``repro.codegen`` / ``repro.lang`` package roots and the cooker and
parking builders.  Refactors of ``repro.runtime`` internals must not be
able to break a benchmark they are forbidden to edit."""

import ast
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"
SOURCES = sorted(E2E.glob("*.py"))

ALLOWED_REPRO = {
    "repro.api",
    "repro.codegen",
    "repro.lang",
    "repro.apps.cooker",
    "repro.apps.parking",
}
# Knobs ROADMAP slates for deletion: the harness must not pass them.
FORBIDDEN_KEYWORDS = {
    "wire_format",
    "delta_sync",
    "local_cache",
    "streaming_windows",
}
FORBIDDEN_NAMES = {"FleetScaleBootstrap", "from_legacy_kwargs"}
# Only the traced run may load the tracer and its metric table.
TRACE_ONLY = {"benchmarks.e2e.trace", "benchmarks.e2e.layers"}


def imported_modules(tree, top_level_only=False):
    nodes = tree.body if top_level_only else ast.walk(tree)
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_the_harness_has_sources():
    assert {p.name for p in SOURCES} >= {"harness.py", "trace.py", "run.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_repro_imports_stay_on_the_allow_list(path):
    for module in imported_modules(parse(path)):
        if module == "repro" or module.startswith("repro."):
            # "from repro.api import X" also yields "repro.api.X"
            assert module in ALLOWED_REPRO or (
                module.rpartition(".")[0] in ALLOWED_REPRO
            ), f"{path.name} imports {module}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_knob_slated_for_deletion_is_passed(path):
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Call):
            for keyword in node.keywords:
                assert keyword.arg not in FORBIDDEN_KEYWORDS, (
                    f"{path.name} passes {keyword.arg}="
                )
        if isinstance(node, ast.Name):
            assert node.id not in FORBIDDEN_NAMES
        if isinstance(node, ast.Attribute):
            assert node.attr not in FORBIDDEN_NAMES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_sleep_in_the_benchmark(path):
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Attribute):
            assert node.attr != "sleep", f"{path.name} sleeps"
        if isinstance(node, ast.keyword):
            assert node.arg != "service_time"


@pytest.mark.parametrize(
    "path",
    [p for p in SOURCES if p.stem not in ("trace", "layers")],
    ids=lambda p: p.name,
)
def test_the_end_to_end_run_never_imports_the_tracer(path):
    """Module level only: ``harness.run_traced`` imports both inside
    the function, which ``--trace 0`` never calls."""
    top_level = set(imported_modules(parse(path), top_level_only=True))
    assert not top_level & TRACE_ONLY, path.name
