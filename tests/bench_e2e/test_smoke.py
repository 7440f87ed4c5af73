"""Every workload at ``--scale smoke``, end to end and traced, against
the contract in ``BENCHMARK.json``."""

import functools
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import types

import pytest

from benchmarks.e2e import cooker, harness
from benchmarks.e2e.spec import BENCHMARK_JSON, load_spec

SPEC = load_spec()
ROOT = BENCHMARK_JSON.parent
WORKLOADS = sorted(SPEC.workloads)


def run(workload, trace, *extra):
    argv = [
        "--workload", workload, "--seed", "3", "--seconds", "30",
        "--trace", str(trace), "--scale", "smoke", "--max-ops", "8", *extra,
    ]
    args = harness.parse_args(argv)
    if trace:
        return harness.run_traced(args)
    return harness.run_end_to_end(args)


@functools.lru_cache(maxsize=None)
def traced_metrics(workload):
    return run(workload, 1)["metrics"]


def no_workers_left():
    return multiprocessing.active_children() == []


def test_benchmark_json_is_well_formed():
    raw = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert set(raw) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert raw["paths"] == ["benchmarks/e2e", "tests/bench_e2e"]
    assert WORKLOADS == sorted(harness.WORKLOADS)
    for metric in raw["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = SPEC.end_to_end["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(
        m["bound"] for m in SPEC.end_to_end.values()
    )
    for metric in raw["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for workload in raw["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_smoke(workload):
    outcome = run(workload, 0)
    assert no_workers_left()
    assert set(outcome["metrics"]) == set(SPEC.end_to_end)
    assert outcome["failed"] == 0 and outcome["correct"]
    assert outcome["attempted"] == 8
    for name, value in outcome["metrics"].items():
        assert value > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke(workload, tmp_path):
    out = tmp_path / "spans.json"
    outcome = run(workload, 1, "--trace-out", str(out))
    assert no_workers_left()
    metrics = outcome["metrics"]
    assert set(metrics) == set(SPEC.per_layer)
    assert outcome["failed"] == 0 and outcome["correct"]
    assert all(isinstance(v, (int, float)) for v in metrics.values())
    # per operation, layer self-times add up to the root span
    assert metrics["trace.unreconciled_ops"] == 0
    assert metrics["trace.missing_targets"] == 0
    assert metrics["faults.gather_errors"] == 0
    assert metrics["faults.component_errors"] == 0
    assert metrics["trace.overhead_ratio"] > 0
    assert 0 < metrics["trace.residual_share"] < 1
    dumped = json.loads(out.read_text(encoding="utf-8"))
    assert dumped["missing_targets"] == []
    for name, phase in dumped["phases"].items():
        assert phase["unreconciled_ops"] == 0
        layer_self = sum(l["self_ns"] for l in phase["layers"].values())
        assert layer_self == phase["root_ns"], name
    sharded = workload.startswith("fleet_")
    assert (metrics["shard.speedup_vs_single"] > 0) is sharded
    assert (metrics["shard.wire_bytes_per_op"] > 0) is sharded
    assert (metrics["shard.single_op_p50_ms"] > 0) is sharded


def test_each_workload_exercises_its_mechanism():
    static = traced_metrics("fleet_sharded")
    churn = traced_metrics("fleet_churn")
    assert static["plan.cohort_compiles_per_op"] == 0
    assert static["registry.version_bumps_per_op"] == 0
    assert 0 < static["shard.delta_row_share"] < 0.2
    assert churn["plan.cohort_compiles_per_op"] >= 1
    assert churn["registry.version_bumps_per_op"] == 100
    assert churn["cache.hit_ratio"] == pytest.approx(0.5)
    assert churn["shard.delta_row_share"] == 1
    assert churn["mapreduce.mapped_per_op"] > 0
    assert static["mapreduce.mapped_per_op"] == 0
    # per device, churn moves several times the bytes of the static run
    per_device = [
        m["shard.wire_bytes_per_op"] / m["registry.entities"]
        for m in (static, churn)
    ]
    assert per_device[1] > 3 * per_device[0]
    assert no_workers_left()


def test_workers_are_reaped_when_an_operation_raises(monkeypatch):
    from benchmarks.e2e.fleet_workloads import FleetChurn

    real = FleetChurn.op

    def op(self):
        if self.ops == 3:
            raise RuntimeError("injected mid-run failure")
        real(self)

    monkeypatch.setattr(FleetChurn, "op", op)
    outcome = run("fleet_churn", 0)
    assert no_workers_left()
    assert outcome["attempted"] == 3
    assert outcome["failed"] == 1 and not outcome["correct"]


def test_a_failed_check_fails_the_run(monkeypatch, capsys):
    """Perturb one expected value: the questions the resident should
    have seen."""
    monkeypatch.setattr(
        cooker,
        "NotifyController",
        types.SimpleNamespace(QUESTION="on for {minutes} min?"),
    )
    code = harness.main(
        [
            "--workload", "cooker_events", "--seconds", "30",
            "--scale", "smoke", "--max-ops", "8",
        ]
    )
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and last["failed"] > 0


def test_main_prints_the_contract_line(capsys):
    code = harness.main(
        [
            "--workload", "parking_city", "--seed", "5", "--seconds", "30",
            "--trace", "0", "--scale", "smoke", "--max-ops", "7",
        ]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    last = json.loads(lines[-1])
    assert code == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] == 7 and last["failed"] == 0
    for name, metric in last["metrics"].items():
        assert metric["unit"] == SPEC.end_to_end[name]["unit"]
        assert any(line.strip().startswith(name) for line in lines[:-1])


def test_the_same_seed_gives_the_same_inputs():
    first = traced_metrics("fleet_churn")
    again = run("fleet_churn", 1)["metrics"]
    for name in (
        "driver.reads_per_op",
        "shard.wire_bytes_per_op",
        "shard.delta_rows_per_op",
        "shard.quiescent_rows_per_op",
        "mapreduce.mapped_per_op",
    ):
        assert first[name] == again[name], name


def test_exits_non_zero_without_the_sources(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own paths there is no runtime to measure."""
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    for path in ("benchmarks/e2e", "tests/bench_e2e"):
        shutil.copytree(
            ROOT / path,
            tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, *SPEC.command[1:], "--workload", "cooker_events",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")
