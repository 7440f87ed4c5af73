"""The command-line toolchain."""

import pytest

from repro.apps.cooker import DESIGN_SOURCE as COOKER
from repro.cli import main


@pytest.fixture
def design_file(tmp_path):
    path = tmp_path / "cooker.diaspec"
    path.write_text(COOKER, encoding="utf-8")
    return str(path)


@pytest.fixture
def bad_design_file(tmp_path):
    path = tmp_path / "bad.diaspec"
    path.write_text(
        "context A as Float { when provided B always publish; }\n"
        "context B as Float { when provided A always publish; }\n",
        encoding="utf-8",
    )
    return str(path)


class TestCheck:
    def test_ok_design(self, design_file, capsys):
        assert main(["check", design_file]) == 0
        out = capsys.readouterr().out
        assert "3 device(s)" in out
        assert "2 context(s)" in out

    def test_design_error_exits_1(self, bad_design_file, capsys):
        assert main(["check", bad_design_file]) == 1
        assert "cycle" in capsys.readouterr().err

    def test_warnings_printed(self, tmp_path, capsys):
        path = tmp_path / "warn.diaspec"
        path.write_text("device Lonely { }\n", encoding="utf-8")
        assert main(["check", str(path)]) == 0
        assert "warning" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent.diaspec"]) == 1
        assert "error" in capsys.readouterr().err

    def test_syntax_error(self, tmp_path, capsys):
        path = tmp_path / "broken.diaspec"
        path.write_text("device {", encoding="utf-8")
        assert main(["check", str(path)]) == 1
        assert "line 1" in capsys.readouterr().err


class TestFmt:
    def test_canonical_output_reparses(self, design_file, capsys):
        from repro.lang.parser import parse

        assert main(["fmt", design_file]) == 0
        formatted = capsys.readouterr().out
        assert parse(formatted) == parse(COOKER)

    def test_fmt_is_stable(self, design_file, tmp_path, capsys):
        main(["fmt", design_file])
        once = capsys.readouterr().out
        second = tmp_path / "second.diaspec"
        second.write_text(once, encoding="utf-8")
        main(["fmt", str(second)])
        assert capsys.readouterr().out == once


class TestGraphAndChains:
    def test_graph_lists_components(self, design_file, capsys):
        assert main(["graph", design_file]) == 0
        out = capsys.readouterr().out
        assert "context Alert" in out
        assert "--subscribe-->" in out

    def test_chains_match_figure_3(self, design_file, capsys):
        assert main(["chains", design_file]) == 0
        out = capsys.readouterr().out
        assert ("Clock -> Alert -> Notify -> TVPrompter -> RemoteTurnOff "
                "-> TurnOff -> Cooker") in out

    def test_chains_empty_design(self, tmp_path, capsys):
        path = tmp_path / "empty.diaspec"
        path.write_text("device D { }\n", encoding="utf-8")
        assert main(["chains", str(path)]) == 0
        assert "no complete" in capsys.readouterr().out


class TestStats:
    def test_counts(self, design_file, capsys):
        assert main(["stats", design_file]) == 0
        out = capsys.readouterr().out
        assert "devices:      3" in out
        assert "contexts:     2" in out
        assert "event-driven: 2" in out
        assert "functional chain" in out

    def test_parking_stats_show_mapreduce(self, tmp_path, capsys):
        from repro.apps.parking import DESIGN_SOURCE

        path = tmp_path / "parking.diaspec"
        path.write_text(DESIGN_SOURCE, encoding="utf-8")
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "mapreduce: 1" in out
        assert "windowed: 1" in out


class TestCompile:
    def test_writes_framework_and_stubs(self, design_file, tmp_path,
                                        capsys):
        out_dir = tmp_path / "generated"
        assert main([
            "compile", design_file, "--name", "CookerMonitoring",
            "-o", str(out_dir),
        ]) == 0
        framework = out_dir / "cooker_monitoring_framework.py"
        stubs = out_dir / "cooker_monitoring_impl.py"
        assert framework.exists() and stubs.exists()
        compile(framework.read_text(), str(framework), "exec")
        compile(stubs.read_text(), str(stubs), "exec")

    def test_no_stubs_flag(self, design_file, tmp_path):
        out_dir = tmp_path / "gen2"
        assert main([
            "compile", design_file, "--name", "X", "-o", str(out_dir),
            "--no-stubs",
        ]) == 0
        assert (out_dir / "x_framework.py").exists()
        assert not (out_dir / "x_impl.py").exists()

    def test_generated_framework_is_importable(self, design_file, tmp_path):
        import importlib.util

        out_dir = tmp_path / "gen3"
        main(["compile", design_file, "--name", "Cooker", "-o",
              str(out_dir)])
        spec = importlib.util.spec_from_file_location(
            "cooker_framework", out_dir / "cooker_framework.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert hasattr(module, "CookerFramework")


class TestMetrics:
    def test_prometheus_snapshot_on_stdout(self, capsys):
        assert main(["metrics", "--seconds", "600"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE bus_published_total counter" in out
        assert "app_gather_sweeps_total" in out
        assert "mapreduce_runs_total" in out
        assert (
            'window_deliveries_total{context="AverageOccupancy"}' in out
        )

    def test_chrome_trace_file(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.json"
        assert main([
            "metrics", "--seconds", "600",
            "--chrome-trace", str(trace_path),
        ]) == 0
        captured = capsys.readouterr()
        assert "wrote" in captured.err
        document = json.loads(trace_path.read_text(encoding="utf-8"))
        assert document["traceEvents"]
        assert any(e["ph"] == "i" for e in document["traceEvents"])


class TestChaos:
    def test_recovery_report_and_exit_zero(self, tmp_path, capsys):
        import json

        report_path = tmp_path / "chaos-report.json"
        assert main([
            "chaos", "--seed", "7", "--report", str(report_path),
        ]) == 0
        captured = capsys.readouterr()
        printed = json.loads(captured.out)
        written = json.loads(report_path.read_text(encoding="utf-8"))
        assert printed == written
        assert printed["recovered"] is True
        assert printed["unrecovered_failures"] == 0
        assert printed["sensors_killed"] == 36

    def test_plan_that_never_fires_exits_one(self, capsys):
        # The fault window opens at 1800s; a 600s run proves nothing
        # and must not report success.
        assert main(["chaos", "--seed", "7", "--duration", "600"]) == 1
        assert "no faults fired" in capsys.readouterr().err


class TestTune:
    def test_exits_zero_and_prints_one_report_byte_for_byte(self, capsys):
        """Changes to the runtime are checked by comparing ``repro tune
        --seed 7`` output byte for byte with the previous revision's:
        two runs must print the same bytes."""
        import json

        assert main(["tune", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["tune", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first
        report = json.loads(first)
        assert report["seed"] == 7
        assert report["injected_read_failures"] == 7620
        assert report["gather_errors"] == 28860


class TestUsage:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()
