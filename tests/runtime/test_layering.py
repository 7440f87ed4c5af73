"""``repro.runtime`` is the bottom of the stack: applications, the CLI
and the benchmarks import it, never the other way round — not even
lazily inside a function, which is how the reference scenarios used to
sneak in."""

import ast
from pathlib import Path

import pytest

RUNTIME = Path(__file__).resolve().parents[2] / "src" / "repro" / "runtime"
SOURCES = sorted(RUNTIME.rglob("*.py"))
FORBIDDEN = ("repro.apps", "repro.cli", "benchmarks")


def imported_modules(tree):
    """Every module an import statement names, at any nesting level."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def test_the_runtime_has_sources():
    names = {str(p.relative_to(RUNTIME)) for p in SOURCES}
    assert {"app.py", "tuning.py", "shard/worker.py"} <= names


@pytest.mark.parametrize(
    "path", SOURCES, ids=lambda p: str(p.relative_to(RUNTIME))
)
def test_runtime_imports_nothing_above_it(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for module in imported_modules(tree):
        for layer in FORBIDDEN:
            assert module != layer and not module.startswith(layer + "."), (
                f"runtime/{path.relative_to(RUNTIME)} imports {module}"
            )
