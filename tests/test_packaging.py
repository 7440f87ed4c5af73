"""The Python floor is one number: ``requires-python`` in
pyproject.toml, the oldest interpreter of CI's test matrix, ruff's
``target-version`` and the README agree (the runtime relies on 3.10,
e.g. ``bisect_left(..., key=)``)."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def read(name):
    return (ROOT / name).read_text(encoding="utf-8")


def version(text):
    return tuple(int(part) for part in text.split("."))


def test_the_python_floor_is_the_oldest_python_ci_tests():
    pyproject = read("pyproject.toml")
    floor = re.search(
        r'^requires-python = ">=(\d+\.\d+)"$', pyproject, re.M
    ).group(1)
    matrix = re.search(
        r"^\s*python-version: \[(.*)\]$",
        read(".github/workflows/ci.yml"),
        re.M,
    ).group(1)
    oldest = min(map(version, re.findall(r'"(\d+\.\d+)"', matrix)))
    target = re.search(r'^target-version = "py(\d)(\d+)"$', pyproject, re.M)
    assert version(floor) == oldest
    assert version(floor) == (int(target.group(1)), int(target.group(2)))
    assert f"Requires Python ≥ {floor}." in read("README.md")
