"""``BENCHMARK.json`` as the harness, the compare tool and the tests
read it: the one place metric names, units, directions and bounds are
written down."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@dataclass(frozen=True)
class Spec:
    command: List[str]
    run_seconds: int
    workloads: Dict[str, str]  # name -> why
    end_to_end: Dict[str, dict]  # name -> {unit, better, bound}
    per_layer: Dict[str, dict]  # name -> {unit, better}


def load_spec(path: Path = BENCHMARK_JSON) -> Spec:
    with open(path, encoding="utf-8") as handle:
        raw = json.load(handle)
    return Spec(
        command=raw["command"],
        run_seconds=raw["run_seconds"],
        workloads={w["name"]: w["why"] for w in raw["workloads"]},
        end_to_end={m["name"]: m for m in raw["end_to_end"]},
        per_layer={m["name"]: m for m in raw["per_layer"]},
    )
